#include "core/screen.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

#if defined(__x86_64__) && defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace diverse {

namespace {

std::atomic<bool> g_screening_enabled{true};

// Same grain rule as the exact batched sweeps (core/metric.cc): a fixed
// amount of coordinate work per range, boundaries a function of (n, grain)
// only. The screened argmax combines ranges ascending with strict
// comparisons, so — like the exact path — ties resolve to the globally
// first index no matter how the ranges are cut.
constexpr size_t kGrainOps = 16384;
constexpr size_t kMinGrainRows = 256;

size_t GrainRows(const Dataset& data) {
  size_t dim = std::max<size_t>(data.dim(), 1);
  return std::max(kMinGrainRows, kGrainOps / dim);
}

// Single-query *relax* sweeps (GMM's per-center loop) still gate on per-row
// coordinate work. Their fused kernel (Metric::ScreenedRelaxRows) skips a
// row with one fp32 distance and one compare against a cached cutoff, but
// the rescue band stays populated throughout the k-step trajectory, and
// below ~8 coords per row the exact sweep costs little more than the
// screen. The fused SMM sweeps (ScreenedArgClosest /
// ScreenedArgClosestWithin / ScreenedFirstWithin) carry no such gate: their
// skip path is one float compare against precomputed cutoffs, profitable at
// any dimension. The decision reads only dataset statistics —
// deterministic, and either verdict is bit-identical.
bool SingleQueryScreenWorthwhile(const Dataset& data) {
  size_t work = data.has_dense_rows() ? data.dim() : 0;
  const Dataset::SparseStats& ss = data.sparse_stats();
  if (ss.rows > 0) {
    work = std::max(work, static_cast<size_t>(2.0 * ss.AvgNnz()));
  }
  return work >= 8;
}

// Exact (unscreened) first-strict-argmin sweep — the fallback of the fused
// nearest-center sweeps.
size_t ExactArgClosest(const Metric& metric, const Point& query,
                       const Dataset& data, double* min_dist) {
  size_t n = data.size();
  thread_local std::vector<double> d;
  d.resize(n);
  metric.DistanceToMany(query, data, 0, std::span<double>(d.data(), n));
  size_t best = 0;
  double best_val = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    if (d[i] < best_val) {
      best_val = d[i];
      best = i;
    }
  }
  if (min_dist != nullptr) *min_dist = best_val;
  return best;
}

}  // namespace

void CollectScreenRescues(const float* t, const float* thr, size_t count,
                          uint32_t base, std::vector<uint32_t>& out) {
  const float flt_max = std::numeric_limits<float>::max();
  size_t i = 0;
#if defined(__x86_64__) && defined(__SSE2__)
  // The SSE2 fast path tests four lanes per compare and decodes lanes only
  // when at least one of the four rescues — on realistic sweeps the vast
  // majority of quads skip in two packed compares.
  const __m128 vmax = _mm_set1_ps(flt_max);
  for (; i + 4 <= count; i += 4) {
    __m128 tv = _mm_loadu_ps(t + i);
    __m128 skip = _mm_and_ps(_mm_cmpgt_ps(tv, _mm_loadu_ps(thr + i)),
                             _mm_cmple_ps(tv, vmax));
    int mask = _mm_movemask_ps(skip);
    if (mask == 0xF) continue;
    for (uint32_t j = 0; j < 4; ++j) {
      if ((mask & (1 << j)) == 0) {
        out.push_back(base + static_cast<uint32_t>(i) + j);
      }
    }
  }
#endif
  for (; i < count; ++i) {
    float v = t[i];
    if (v > thr[i] && v <= flt_max) continue;
    out.push_back(base + static_cast<uint32_t>(i));
  }
}

bool ScreeningEnabled() {
  return g_screening_enabled.load(std::memory_order_relaxed);
}

void SetScreeningEnabled(bool enabled) {
  g_screening_enabled.store(enabled, std::memory_order_relaxed);
}

ScopedScreening::ScopedScreening(bool enabled) : prev_(ScreeningEnabled()) {
  SetScreeningEnabled(enabled);
}

ScopedScreening::~ScopedScreening() { SetScreeningEnabled(prev_); }

bool UseScreening(const Metric& metric) {
  return ScreeningEnabled() && metric.ScreeningProfitable();
}

size_t ScreenedRelaxTilesAndArgFarthest(const Metric& metric,
                                        const Dataset& queries, size_t q_begin,
                                        size_t nq, size_t rank_base,
                                        const Dataset& data,
                                        std::span<double> dist,
                                        std::span<size_t> assignment) {
  if (!UseScreening(metric) ||
      !metric.RelaxTileScreeningProfitableFor(queries, data)) {
    return RelaxTilesAndArgFarthest(metric, queries, q_begin, nq, rank_base,
                                    data, dist, assignment);
  }
  size_t n = data.size();
  DIVERSE_CHECK_GE(nq, 1u);
  DIVERSE_CHECK_LE(q_begin + nq, queries.size());
  DIVERSE_CHECK_EQ(dist.size(), n);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), n);
  if (n == 0) return 0;

  // One bound for the whole sweep; reading it also builds both datasets'
  // lazy screen stats on this thread, before the parallel fan-out. A
  // degenerate bound (rel >= 1 — possible only at astronomical term
  // counts) would invert the skip-threshold transform, so such sweeps run
  // exact instead.
  const ScreenBound bound = metric.ScreenErrorBound(queries, data);
  if (!(bound.rel < 1.0)) {
    return RelaxTilesAndArgFarthest(metric, queries, q_begin, nq, rank_base,
                                    data, dist, assignment);
  }

  size_t grain = GrainRows(data);
  size_t num_ranges = (n + grain - 1) / grain;
  std::vector<size_t> range_best(num_ranges, SIZE_MAX);
  GlobalThreadPool().ParallelForRanges(n, grain, [&](size_t lo, size_t hi) {
    // The whole screen + relax + rescue loop for this row range runs inside
    // the metric's fused kernel — no intermediate fp32 tile for the dense
    // metrics, cosine-space thresholds for all-sparse cosine tiles, and
    // the unfused materialize-then-collect fallback otherwise.
    metric.ScreenedRelaxTile(queries, q_begin, nq, rank_base, data, lo,
                             hi - lo, bound, dist, assignment);
    size_t local_best = lo;
    double local_val = -std::numeric_limits<double>::infinity();
    for (size_t i = lo; i < hi; ++i) {
      if (dist[i] > local_val) {
        local_val = dist[i];
        local_best = i;
      }
    }
    range_best[lo / grain] = local_best;
  });

  size_t best = range_best[0];
  DIVERSE_CHECK_LT(best, n);
  for (size_t r = 1; r < num_ranges; ++r) {
    size_t candidate = range_best[r];
    if (candidate == SIZE_MAX) continue;
    if (dist[candidate] > dist[best]) best = candidate;
  }
  return best;
}

RelaxScreenPlan PlanScreenedRelax(const Metric& metric, const Dataset& queries,
                                  const Dataset& data) {
  RelaxScreenPlan plan;
  if (!UseScreening(metric) || !SingleQueryScreenWorthwhile(data) ||
      !metric.ScreeningProfitableFor(queries, data)) {
    return plan;
  }
  plan.bound = metric.ScreenErrorBound(queries, data);
  if (!(plan.bound.rel < 1.0)) return plan;  // degenerate: run exact
  plan.screen = true;
  return plan;
}

size_t ScreenedRelaxRange(const Metric& metric, const Dataset& queries,
                          size_t q_index, const Dataset& data, size_t begin,
                          size_t count, const RelaxScreenPlan& plan,
                          std::span<double> dist, std::span<size_t> assignment,
                          size_t center_rank) {
  DIVERSE_CHECK_LT(q_index, queries.size());
  DIVERSE_CHECK_LE(begin + count, data.size());
  DIVERSE_CHECK_EQ(dist.size(), data.size());
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), data.size());
  if (count == 0) return 0;
  size_t end = begin + count;
  if (!plan.screen) {
    // Exact per-pair relax through the batched kernel — the same doubles
    // Metric::RelaxAndArgFarthest folds, chunked to bound scratch.
    constexpr size_t kChunk = 512;
    const Point& query = queries.point(q_index);
    thread_local std::vector<double> dbuf;
    for (size_t c0 = begin; c0 < end; c0 += kChunk) {
      size_t cn = std::min(kChunk, end - c0);
      dbuf.resize(cn);
      metric.DistanceToMany(query, data, c0,
                            std::span<double>(dbuf.data(), cn));
      for (size_t i = 0; i < cn; ++i) {
        if (dbuf[i] < dist[c0 + i]) {
          dist[c0 + i] = dbuf[i];
          if (!assignment.empty()) assignment[c0 + i] = center_rank;
        }
      }
    }
    return count;
  }
  // The flat sweep's kernel over [begin, end), with every cutoff "not
  // cached": each is derived from the row's incoming dist on first touch,
  // which is exactly the value the flat sweep's cache holds.
  thread_local std::vector<float> cutoff;
  cutoff.assign(count, std::numeric_limits<float>::quiet_NaN());
  size_t farthest = 0;
  return metric.ScreenedRelaxRows(
      queries, q_index, center_rank, data, begin, plan.bound,
      dist.subspan(begin, count),
      assignment.empty() ? assignment : assignment.subspan(begin, count),
      std::span<float>(cutoff), &farthest);
}

ScreenedRelaxSweep::ScreenedRelaxSweep(const Metric& metric,
                                       const Dataset& queries,
                                       const Dataset& data,
                                       std::span<double> dist,
                                       std::span<size_t> assignment)
    : metric_(metric),
      queries_(queries),
      data_(data),
      dist_(dist),
      assignment_(assignment),
      plan_(PlanScreenedRelax(metric, queries, data)) {
  DIVERSE_CHECK_EQ(dist.size(), data.size());
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), data.size());
  if (plan_.screen) {
    cutoff_.assign(data.size(), std::numeric_limits<float>::quiet_NaN());
  }
}

size_t ScreenedRelaxSweep::Step(size_t q_index, size_t center_rank) {
  DIVERSE_CHECK_LT(q_index, queries_.size());
  if (!plan_.screen) {
    return metric_.RelaxAndArgFarthest(queries_.point(q_index), data_, dist_,
                                       assignment_, center_rank);
  }
  size_t n = data_.size();
  if (n == 0) return 0;
  size_t grain = GrainRows(data_);
  size_t num_ranges = (n + grain - 1) / grain;
  std::vector<size_t> range_best(num_ranges, SIZE_MAX);
  std::span<float> cutoff(cutoff_);
  GlobalThreadPool().ParallelForRanges(n, grain, [&](size_t lo, size_t hi) {
    size_t far = 0;
    metric_.ScreenedRelaxRows(
        queries_, q_index, center_rank, data_, lo, plan_.bound,
        dist_.subspan(lo, hi - lo),
        assignment_.empty() ? assignment_ : assignment_.subspan(lo, hi - lo),
        cutoff.subspan(lo, hi - lo), &far);
    range_best[lo / grain] = lo + far;
  });

  size_t best = range_best[0];
  DIVERSE_CHECK_LT(best, n);
  for (size_t r = 1; r < num_ranges; ++r) {
    size_t candidate = range_best[r];
    if (candidate == SIZE_MAX) continue;
    if (dist_[candidate] > dist_[best]) best = candidate;
  }
  return best;
}

namespace {

// The fused argmin + coverage sweep under an already-resolved bound: shared
// by the one-shot overload (per-query bound) and the persistent-context
// overload (cached dataset-worst-case bound). `beyond` is the precomputed
// certify-beyond cutoff at the caller's cover threshold.
ScreenedNearest ScreenedArgClosestWithinBody(const Metric& metric,
                                             const Point& query,
                                             const Dataset& data,
                                             const ScreenBound& bound,
                                             double inv_rel, float beyond) {
  size_t n = data.size();
  ScreenedNearest out;
  const float flt_max = std::numeric_limits<float>::max();
  thread_local std::vector<float> s;
  s.resize(n);
  metric.DistanceToManyF32(query, data, 0, std::span<float>(s.data(), n));
  // Smallest finite screened value; non-finite values (overflowed fp32
  // accumulators) certify nothing and keep every certificate off.
  float smin = std::numeric_limits<float>::infinity();
  bool any_nonfinite = false;
  for (size_t i = 0; i < n; ++i) {
    float v = s[i];
    if (v >= -flt_max && v <= flt_max) {
      smin = std::min(smin, v);
    } else {
      any_nonfinite = true;
    }
  }
  // Coverage certificate: when every row's certified lower bound clears the
  // cover threshold, the caller's coverage decision is settled with zero
  // exact evaluations (the skip-threshold transform is exactly the
  // "certify exact > t" test, applied with t = cover_threshold).
  if (!any_nonfinite && smin > beyond) {
    out.beyond = true;
    return out;
  }
  // Argmin: every index whose certified lower bound is at or below the
  // smallest certified upper bound could be (or tie) the minimum; the true
  // argmin is always among them, and no skipped index can match the
  // minimum (its lower bound strictly exceeds it), so the first-strict-min
  // scan over the candidates in ascending order picks the same index as
  // the exact sweep. Both transforms are monotone in the screened value,
  // so the candidate test is one float compare against a precomputed
  // cutoff.
  double min_upper = ScreenedUpper(smin, bound);
  float candidate_cutoff =
      NextUpNonNegativeF32(static_cast<float>((min_upper + bound.abs) *
                                              inv_rel));
  size_t best = n;
  double best_val = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    float v = s[i];
    bool finite = v >= -flt_max && v <= flt_max;
    if (finite && v > candidate_cutoff) continue;
    double d = metric.Distance(query, data.point(i));
    if (d < best_val) {
      best_val = d;
      best = i;
    }
  }
  DIVERSE_CHECK_LT(best, n);
  out.index = best;
  out.dist = best_val;
  return out;
}

// The fused first-within loop under already-resolved cutoffs: shared by
// the one-shot and persistent-context overloads of ScreenedFirstWithin.
size_t ScreenedFirstWithinBody(const Metric& metric, const Point& query,
                               const Dataset& data, double threshold,
                               float within, float beyond) {
  size_t n = data.size();
  constexpr size_t kChunk = 16;
  const float flt_max = std::numeric_limits<float>::max();
  float buf[kChunk];
  for (size_t b = 0; b < n; b += kChunk) {
    size_t bn = std::min(kChunk, n - b);
    metric.DistanceToManyF32(query, data, b, std::span<float>(buf, bn));
    for (size_t i = 0; i < bn; ++i) {
      float v = buf[i];
      if (v >= -flt_max && v <= within) return b + i;
      if (v > beyond && v <= flt_max) continue;
      if (metric.Distance(query, data.point(b + i)) <= threshold) {
        return b + i;
      }
    }
  }
  return n;
}

}  // namespace

ScreenedNearest ScreenedArgClosestWithin(const Metric& metric,
                                         const Point& query,
                                         const Dataset& data,
                                         double cover_threshold) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(n, 1u);
  DIVERSE_CHECK_GE(cover_threshold, 0.0);
  ScreenedNearest out;
  if (!UseScreening(metric) || !metric.ScreeningProfitableFor(query, data)) {
    out.index = ExactArgClosest(metric, query, data, &out.dist);
    return out;
  }
  const ScreenBound bound = metric.ScreenErrorBound(query, data);
  if (!(bound.rel < 1.0)) {
    out.index = ExactArgClosest(metric, query, data, &out.dist);
    return out;
  }
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  const float beyond = ScreenSkipThreshold(cover_threshold, bound.abs,
                                           inv_rel);
  return ScreenedArgClosestWithinBody(metric, query, data, bound, inv_rel,
                                      beyond);
}

// True when the context's cached dataset-worst-case bound covers `query`:
// the query's side statistics are dominated by the data's own extremes, so
// the cached bound is at least as wide as the per-call bound (see the
// header's soundness note).
bool ScreenContextCovers(const PersistentScreenContext& ctx,
                         const Point& query) {
  if (query.is_sparse()) {
    if (query.sparse_values().size() > ctx.max_nnz_) return false;
  } else if (!ctx.has_dense_) {
    return false;
  }
  double qn = query.norm();
  return qn == 0.0 || qn >= ctx.min_positive_norm_;
}

// Rebuilds the context's cached bound and cutoffs when the (data stats,
// threshold) key moved; counts a hit otherwise. Returns false when the
// cached bound is degenerate (rel >= 1) and callers must take the one-shot
// path.
bool RefreshScreenContext(PersistentScreenContext& ctx, const Metric& metric,
                          const Dataset& data, double threshold) {
  const Dataset::ScreenStats& ss = data.screen_stats();
  bool same = ctx.valid_ && ctx.dim_ == data.dim() &&
              ctx.has_dense_ == data.has_dense_rows() &&
              ctx.max_nnz_ == data.sparse_stats().max_nnz &&
              ctx.min_positive_norm_ == ss.min_positive_norm &&
              ctx.threshold_ == threshold;
  if (same) {
    ++ctx.hits_;
  } else {
    ctx.dim_ = data.dim();
    ctx.has_dense_ = data.has_dense_rows();
    ctx.max_nnz_ = data.sparse_stats().max_nnz;
    ctx.min_positive_norm_ = ss.min_positive_norm;
    ctx.threshold_ = threshold;
    ctx.bound_ = metric.ScreenErrorBound(data, data);
    if (ctx.bound_.rel < 1.0) {
      ctx.inv_rel_ = (1.0 + 1e-12) / (1.0 - ctx.bound_.rel);
      ctx.beyond_ = ScreenSkipThreshold(threshold, ctx.bound_.abs,
                                        ctx.inv_rel_);
      ctx.within_ = ScreenCertifiedBelow(threshold, ctx.bound_);
    }
    ctx.valid_ = true;
    ++ctx.rebuilds_;
  }
  return ctx.bound_.rel < 1.0;
}

ScreenedNearest ScreenedArgClosestWithin(const Metric& metric,
                                         const Point& query,
                                         const Dataset& data,
                                         double cover_threshold,
                                         PersistentScreenContext* ctx) {
  if (ctx == nullptr) {
    return ScreenedArgClosestWithin(metric, query, data, cover_threshold);
  }
  size_t n = data.size();
  DIVERSE_CHECK_GE(n, 1u);
  DIVERSE_CHECK_GE(cover_threshold, 0.0);
  if (!UseScreening(metric) || !metric.ScreeningProfitableFor(query, data)) {
    ScreenedNearest out;
    out.index = ExactArgClosest(metric, query, data, &out.dist);
    return out;
  }
  if (!RefreshScreenContext(*ctx, metric, data, cover_threshold) ||
      !ScreenContextCovers(*ctx, query)) {
    return ScreenedArgClosestWithin(metric, query, data, cover_threshold);
  }
  return ScreenedArgClosestWithinBody(metric, query, data, ctx->bound_,
                                      ctx->inv_rel_, ctx->beyond_);
}

size_t ScreenedArgClosest(const Metric& metric, const Point& query,
                          const Dataset& data, double* min_dist) {
  // +inf cover threshold: the coverage certificate can never fire, so this
  // is the plain fused screened argmin.
  ScreenedNearest r = ScreenedArgClosestWithin(
      metric, query, data, std::numeric_limits<double>::infinity());
  if (min_dist != nullptr) *min_dist = r.dist;
  return r.index;
}

size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                           const Dataset& data, double threshold) {
  size_t n = data.size();
  constexpr size_t kChunk = 16;
  if (!UseScreening(metric) || !metric.ScreeningProfitableFor(query, data)) {
    double buf[kChunk];
    for (size_t b = 0; b < n; b += kChunk) {
      size_t bn = std::min(kChunk, n - b);
      metric.DistanceToMany(query, data, b, std::span<double>(buf, bn));
      for (size_t i = 0; i < bn; ++i) {
        if (buf[i] <= threshold) return b + i;
      }
    }
    return n;
  }
  if (threshold < 0.0) return n;  // distances are nonnegative; nothing fits
  const ScreenBound bound = metric.ScreenErrorBound(query, data);
  if (!(bound.rel < 1.0)) {
    double buf[kChunk];
    for (size_t b = 0; b < n; b += kChunk) {
      size_t bn = std::min(kChunk, n - b);
      metric.DistanceToMany(query, data, b, std::span<double>(buf, bn));
      for (size_t i = 0; i < bn; ++i) {
        if (buf[i] <= threshold) return b + i;
      }
    }
    return n;
  }
  // Two precomputed float cutoffs replace the per-row double bound
  // transforms: s <= within certifies d < threshold (qualify), a finite
  // s > beyond certifies d > threshold (skip), and only band hits pay an
  // exact evaluation. Chunked so a merge-heavy scan keeps its early exit.
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  const float within = ScreenCertifiedBelow(threshold, bound);
  const float beyond = ScreenSkipThreshold(threshold, bound.abs, inv_rel);
  return ScreenedFirstWithinBody(metric, query, data, threshold, within,
                                 beyond);
}

size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                           const Dataset& data, double threshold,
                           PersistentScreenContext* ctx) {
  if (ctx == nullptr) {
    return ScreenedFirstWithin(metric, query, data, threshold);
  }
  size_t n = data.size();
  if (n == 0) return 0;
  if (!UseScreening(metric) || !metric.ScreeningProfitableFor(query, data) ||
      threshold < 0.0) {
    return ScreenedFirstWithin(metric, query, data, threshold);
  }
  if (!RefreshScreenContext(*ctx, metric, data, threshold) ||
      !ScreenContextCovers(*ctx, query)) {
    return ScreenedFirstWithin(metric, query, data, threshold);
  }
  return ScreenedFirstWithinBody(metric, query, data, threshold,
                                 ctx->within_, ctx->beyond_);
}

}  // namespace diverse
