#include "core/metric.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "core/dataset.h"
#include "core/screen.h"
#include "core/sparse_kernels.h"
#include "core/vector_kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace diverse {

namespace {

// Rows per parallel range: aim for a fixed amount of coordinate work per
// range so dispatch overhead stays negligible at any dimension, with a floor
// that keeps ranges coarse for very high-dimensional rows. Range boundaries
// depend only on (n, grain), never on scheduling, so per-range reductions
// are deterministic at any thread count.
constexpr size_t kGrainOps = 16384;
constexpr size_t kMinGrainRows = 256;

size_t GrainRows(const Dataset& data) {
  size_t dim = std::max<size_t>(data.dim(), 1);
  return std::max(kMinGrainRows, kGrainOps / dim);
}

// out[i] = row_distance(data.row(begin + i)) for all i, in parallel.
template <typename RowFn>
void BatchMap(const Dataset& data, size_t begin, std::span<double> out,
              const RowFn& row_distance) {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  GlobalThreadPool().ParallelForRanges(
      out.size(), GrainRows(data), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          out[i] = row_distance(data.row(begin + i));
        }
      });
}

// The fused relax-and-argmax sweep shared by all metrics. Each range
// records its first maximum; ranges combine in ascending order with a
// strict comparison, which reproduces the scalar loop's first-max-wins
// semantics exactly.
template <typename RowFn>
size_t BatchRelaxArgFarthest(const Dataset& data, std::span<double> dist,
                             std::span<size_t> assignment, size_t center_rank,
                             const RowFn& row_distance) {
  size_t n = data.size();
  DIVERSE_CHECK_EQ(dist.size(), n);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), n);
  if (n == 0) return 0;

  size_t grain = GrainRows(data);
  size_t num_ranges = (n + grain - 1) / grain;
  // SIZE_MAX marks ranges a single inline call subsumed (the pool runs the
  // whole sweep as one range when the work is small or it has one worker).
  std::vector<size_t> range_best(num_ranges, SIZE_MAX);
  GlobalThreadPool().ParallelForRanges(
      n, grain, [&](size_t lo, size_t hi) {
        size_t local_best = lo;
        double local_val = -std::numeric_limits<double>::infinity();
        for (size_t i = lo; i < hi; ++i) {
          double d = row_distance(data.row(i));
          if (d < dist[i]) {
            dist[i] = d;
            if (!assignment.empty()) assignment[i] = center_rank;
          }
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

kernels::VecView QueryView(const Point& query, const Dataset& data) {
  if (!data.empty()) DIVERSE_CHECK_EQ(query.dim(), data.dim());
  return query.View();
}

// --- Blocked many-vs-many tiles ------------------------------------------

void CheckTileArgs(const Dataset& queries, size_t q_begin, size_t nq,
                   const Dataset& data, size_t r_begin, size_t nr,
                   size_t out_stride) {
  DIVERSE_CHECK_LE(q_begin + nq, queries.size());
  DIVERSE_CHECK_LE(r_begin + nr, data.size());
  DIVERSE_CHECK_GE(out_stride, nr);
  if (nq > 0 && nr > 0) DIVERSE_CHECK_EQ(queries.dim(), data.dim());
}

// --- Sparse tile strategy selection ---------------------------------------
// The sparse engine decodes a block of sparse query lanes once
// (core/sparse_kernels.h) and streams every sparse data row a single time
// against all lanes. Whether that beats the per-pair scalar merge depends on
// the data layout, not the operation, so the decisions below read only the
// block content and the Dataset's sparse-row statistics — deterministic
// inputs, so tiled results never depend on scheduling. Either choice is
// bit-identical to the scalar merge; the strategy only moves cost.

// Minimum sparse data rows per tile for the block decode to amortize.
constexpr size_t kSparseEngineMinRows = 4;
// Largest ambient dimension for the direct-index slot table (the table is
// cleared per query block; beyond this the O(dim) clear and its cache
// footprint outweigh the O(1) probes).
constexpr size_t kDirectIndexMaxDim = size_t{1} << 14;

// Dimension to build the direct-index mirror for, or 0 for merge-walk
// probing. Only intersection kernels (dot, Jaccard) probe; union-walk
// kernels (Euclidean, L1) stream both index lists and never look up.
size_t DirectIndexDim(const Dataset& data, size_t nr) {
  size_t dim = data.dim();
  if (dim == 0 || dim > kDirectIndexMaxDim) return 0;
  // Amortize the per-block O(dim) clear over the rows that will probe it.
  if (dim > 64 * nr) return 0;
  return dim;
}

// Union-walk profitability for Euclidean/L1 sparse blocks. The engine
// streams (U + nnz_r) merged positions per row with a branch-free
// kTileLanes-wide accumulate each; the per-pair merge walks
// (total_lane_nnz + sparse_lanes * nnz_r) positions one lane at a time with
// data-dependent branching. Measured on the BM_SparseTileEuclidean*
// workloads, one branch-free 8-lane position costs about 0.7x a branchy
// single-lane merge position (the merge's unpredictable three-way branch
// dominates, not the arithmetic), giving the 8x admit factor below. Blocks
// whose lanes share support (text corpora — Zipf vocabularies overlap
// heavily) pass with a wide margin; only blocks whose widened union would
// do nearly an order of magnitude more positions than the per-pair merges
// fall back (e.g. a lone sparse lane among dense ones against short rows).
bool UnionWalkProfitable(size_t union_size, size_t total_lane_nnz,
                         size_t sparse_lanes, double avg_row_nnz,
                         double col_hits_per_row) {
  double engine = static_cast<double>(kernels::kTileLanes) *
                  (static_cast<double>(union_size) + avg_row_nnz);
  double per_pair = static_cast<double>(total_lane_nnz) +
                    static_cast<double>(sparse_lanes) * avg_row_nnz;
  // When the transposed column mirror is available, credit the engine for
  // expected index matches (matched positions advance both cursors at
  // once).
  engine -= static_cast<double>(kernels::kTileLanes) * col_hits_per_row;
  return engine <= 8.0 * per_pair;
}

// Expected per-row index matches between the decoded block union and the
// sparse data rows, from the optional transposed column-occupancy mirror
// (0.0 when the mirror is not built — the estimate is advisory only).
double ExpectedColumnHits(const Dataset& data,
                          const kernels::SparseTileScratch& ws) {
  const std::vector<uint32_t>* occ = data.column_occupancy();
  if (occ == nullptr || data.sparse_stats().rows == 0) return 0.0;
  uint64_t hits = 0;
  for (uint32_t idx : ws.indices) hits += (*occ)[idx];
  return static_cast<double>(hits) /
         static_cast<double>(data.sparse_stats().rows);
}

// --- Sparse query-block decode cache --------------------------------------
// PackSparseQueryLanes re-walks a query block's CSR lanes (and rebuilds the
// direct-index slot table) on every call, but the decoded scratch is
// read-only while data rows stream against it — so a thread that decodes
// the same block twice in a row does pure rework. That happens constantly
// in tiled sweeps (one query chunk against many row blocks) and in the
// cover-tree leaf path (one center against many leaf slabs). Each
// thread-local scratch slot therefore remembers what it holds: the owning
// dataset's content stamp (globally unique per mutation, so equal stamps
// imply identical content — see Dataset::content_stamp), the lane block's
// absolute row span, the sub-block index, and the direct-index dimension
// the decode was built for. A matching key skips the decode outright.
// Process-global relaxed counters prove the reuse in tests.

struct SparseDecodeKey {
  uint64_t stamp = 0;      // Dataset::content_stamp() of the query side
  size_t block_begin = 0;  // absolute first row of the lane block
  size_t block_n = 0;      // lanes in the block (its sparse subset derives)
  size_t sub = 0;          // sub-block index within the lane block
  size_t direct_dim = 0;   // direct-index dim the decode was built for
  friend bool operator==(const SparseDecodeKey&,
                         const SparseDecodeKey&) = default;
};

// Monotonic telemetry only (tests assert deltas after joining all workers)
// — relaxed ordering is sufficient because no other memory is published
// through these counters. The decode caches themselves are thread_local.
std::atomic<uint64_t> g_sparse_decode_count{0};
std::atomic<uint64_t> g_sparse_decode_hits{0};

// True (and counted as a hit) when `have` already holds `want`'s decode;
// otherwise records `want` into `have` and tells the caller to decode.
// Stamp 0 marks a never-mutated dataset (necessarily empty — no sparse
// lanes to decode) and never caches.
bool SparseDecodeCached(const SparseDecodeKey& want, SparseDecodeKey& have) {
  if (want.stamp != 0 && have == want) {
    g_sparse_decode_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  g_sparse_decode_count.fetch_add(1, std::memory_order_relaxed);
  have = want;
  return false;
}

// Shared tile driver for the four concrete metrics, parameterized on the
// output scalar: Out = double is the exact engine (8 query lanes, the
// bit-identical lane kernels), Out = float the fp32 screening engine (16
// lanes, twice the width for the same vector registers). Keeping ONE
// driver keeps the strategy gates — dense/sparse lane partition, the
// sparse-engine admission (kSparseEngineMinRows), DirectIndexDim, and the
// union-walk profitability check — in lockstep by construction, which the
// screened-value determinism contract depends on (either gate verdict is
// value-identical; the gates only move cost).
//
// Queries are processed in lane blocks of TileTraits<Out>::kLanes, each
// split by representation:
//   * dense lanes are transposed once (TileTraits<Out>::Pack) and every
//     dense data row is streamed through the multi-query lane kernel
//     (`lanes`) — only when kHasDenseLanes (Jaccard has no dense lane
//     kernel);
//   * sparse lanes are decoded into per-thread SparseTileScratch blocks of
//     kernels::kTileLanes (one sub-block for the exact engine, up to two
//     for the 16-lane fp32 engine) and every sparse data row is streamed
//     through the sparse lane kernel (`sparse_lanes`);
//   * mixed pairs (dense lane x sparse row and vice versa) always run the
//     per-pair kernel (`pair`), which is already O(nnz).
// Each data row is fetched a single time and handed to every group.
// `finish_lanes` turns a block of lane accumulators into the metric's
// distances in place (batched SQRTPD/SQRTPS for Euclidean, the
// angular-cosine postprocess, nothing for L1/Jaccard); it runs for both
// the dense and the sparse group, over that group's compacted views.
// `sparse_union_walk` marks the union-walk kernels (Euclidean/L1), which
// are gated by UnionWalkProfitable and never build the direct index.

template <typename Out>
struct TileTraits;

template <>
struct TileTraits<double> {
  static constexpr size_t kLanes = kernels::kTileLanes;
  static void Pack(const kernels::VecView* queries, size_t nq, size_t dim,
                   float* qt) {
    kernels::PackQueryLanes(queries, nq, dim, qt);
  }
};

template <>
struct TileTraits<float> {
  static constexpr size_t kLanes = kernels::kTileLanesF32;
  static void Pack(const kernels::VecView* queries, size_t nq, size_t dim,
                   float* qt) {
    kernels::PackQueryLanesF32(queries, nq, dim, qt);
  }
};

template <bool kHasDenseLanes, typename Out, typename PairFn, typename LaneFn,
          typename SparseLanesFn, typename FinishLanesFn>
void BatchTileImpl(const Dataset& queries, size_t q_begin, size_t nq,
                   const Dataset& data, size_t r_begin, size_t nr, Out* out,
                   size_t out_stride, const PairFn& pair, const LaneFn& lanes,
                   const SparseLanesFn& sparse_lanes, bool sparse_union_walk,
                   const FinishLanesFn& finish_lanes) {
  CheckTileArgs(queries, q_begin, nq, data, r_begin, nr, out_stride);
  // Empty tiles are legal no-ops; bail before packing query lanes (the
  // lane pack walks data.dim() coordinates of each query, which is only
  // validated against the query dimension for nonempty tiles).
  if (nq == 0 || nr == 0) return;
  size_t dim = data.dim();
  constexpr size_t kQBlock = TileTraits<Out>::kLanes;
  constexpr size_t kSub = kernels::kTileLanes;  // sparse decode width
  constexpr size_t kMaxSub = (kQBlock + kSub - 1) / kSub;
  thread_local std::vector<float> qt;  // transposed dense lane block
  thread_local kernels::SparseTileScratch sparse_ws[kMaxSub];
  thread_local SparseDecodeKey sparse_key[kMaxSub];
  kernels::VecView dv[kQBlock];  // compacted dense lane views
  kernels::VecView sv[kQBlock];  // compacted sparse lane views
  size_t dense_id[kQBlock];
  size_t sparse_id[kQBlock];
  Out lane_out[kQBlock];
  const Dataset::SparseStats& stats = data.sparse_stats();
  for (size_t q0 = 0; q0 < nq; q0 += kQBlock) {
    size_t qn = std::min(kQBlock, nq - q0);
    size_t dn = 0, sn = 0;
    for (size_t lane = 0; lane < qn; ++lane) {
      kernels::VecView v = queries.row(q_begin + q0 + lane);
      if (v.is_sparse()) {
        sv[sn] = v;
        sparse_id[sn++] = lane;
      } else {
        dv[dn] = v;
        dense_id[dn++] = lane;
      }
    }
    bool dense_block = kHasDenseLanes && dim > 0 && dn > 0;
    if (dense_block) {
      qt.resize(dim * kQBlock);
      TileTraits<Out>::Pack(dv, dn, dim, qt.data());
    }
    bool sparse_block = sn > 0 && stats.rows > 0 && nr >= kSparseEngineMinRows;
    size_t num_sub = (sn + kSub - 1) / kSub;
    if (sparse_block) {
      size_t direct_dim = sparse_union_walk ? 0 : DirectIndexDim(data, nr);
      for (size_t sub = 0; sub < num_sub; ++sub) {
        size_t sub_n = std::min(kSub, sn - sub * kSub);
        SparseDecodeKey want{queries.content_stamp(), q_begin + q0, qn, sub,
                             direct_dim};
        if (!SparseDecodeCached(want, sparse_key[sub])) {
          kernels::PackSparseQueryLanes(sv + sub * kSub, sub_n, direct_dim,
                                        sparse_ws[sub]);
        }
        if (sparse_union_walk &&
            !UnionWalkProfitable(sparse_ws[sub].indices.size(),
                                 sparse_ws[sub].total_nnz, sub_n,
                                 stats.AvgNnz(),
                                 ExpectedColumnHits(data, sparse_ws[sub]))) {
          sparse_block = false;
          break;
        }
      }
    }
    for (size_t r = 0; r < nr; ++r) {
      kernels::VecView row = data.row(r_begin + r);
      if (!row.is_sparse()) {
        if (dense_block) {
          lanes(qt.data(), row.values, dim, lane_out);
          finish_lanes(lane_out, dv, row, dn);
          for (size_t i = 0; i < dn; ++i) {
            out[(q0 + dense_id[i]) * out_stride + r] = lane_out[i];
          }
        } else {
          for (size_t i = 0; i < dn; ++i) {
            out[(q0 + dense_id[i]) * out_stride + r] = pair(dv[i], row);
          }
        }
        for (size_t i = 0; i < sn; ++i) {
          out[(q0 + sparse_id[i]) * out_stride + r] = pair(sv[i], row);
        }
      } else {
        for (size_t i = 0; i < dn; ++i) {
          out[(q0 + dense_id[i]) * out_stride + r] = pair(dv[i], row);
        }
        if (sparse_block) {
          for (size_t sub = 0; sub < num_sub; ++sub) {
            size_t sub_n = std::min(kSub, sn - sub * kSub);
            sparse_lanes(sparse_ws[sub], row, lane_out);
            finish_lanes(lane_out, sv + sub * kSub, row, sub_n);
            for (size_t i = 0; i < sub_n; ++i) {
              out[(q0 + sparse_id[sub * kSub + i]) * out_stride + r] =
                  lane_out[i];
            }
          }
        } else {
          for (size_t i = 0; i < sn; ++i) {
            out[(q0 + sparse_id[i]) * out_stride + r] = pair(sv[i], row);
          }
        }
      }
    }
  }
}

// The exact tile engine (bit-identical to the scalar kernels).
template <bool kHasDenseLanes, typename PairFn, typename LaneFn,
          typename SparseLanesFn, typename FinishLanesFn>
void BatchTile(const Dataset& queries, size_t q_begin, size_t nq,
               const Dataset& data, size_t r_begin, size_t nr, double* out,
               size_t out_stride, const PairFn& pair, const LaneFn& lanes,
               const SparseLanesFn& sparse_lanes, bool sparse_union_walk,
               const FinishLanesFn& finish_lanes) {
  BatchTileImpl<kHasDenseLanes, double>(queries, q_begin, nq, data, r_begin,
                                        nr, out, out_stride, pair, lanes,
                                        sparse_lanes, sparse_union_walk,
                                        finish_lanes);
}

// The fp32 screening tile engine (certified bounds, no bit-exactness
// promise — see core/screen.h).
template <typename PairFn, typename LaneFn, typename SparseLanesFn,
          typename FinishLanesFn>
void BatchTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                  const Dataset& data, size_t r_begin, size_t nr, float* out,
                  size_t out_stride, const PairFn& pair, const LaneFn& lanes,
                  const SparseLanesFn& sparse_lanes, bool sparse_union_walk,
                  const FinishLanesFn& finish_lanes) {
  BatchTileImpl<true, float>(queries, q_begin, nq, data, r_begin, nr, out,
                             out_stride, pair, lanes, sparse_lanes,
                             sparse_union_walk, finish_lanes);
}

// --- Certified screening bounds -------------------------------------------
// u = 2^-24, the fp32 unit roundoff. A sum of m nonnegative fp32 terms,
// each produced from exact float inputs by at most two rounded ops,
// satisfies |s32 - s| <= gamma(m+2) * s with gamma(n) = n*u / (1 - n*u),
// for ANY summation order (the sequential chain is the worst case, so the
// bound also covers the 8/16-accumulator orders the kernels actually use)
// — plus a per-op absolute floor of 2^-150 in the fp32 underflow regime.
// The exact path's own double-accumulation error is gamma_53-sized and
// vanishes inside the 2x safety factors below. Full derivations live in the
// README's "Mixed-precision screening" section and are property-tested
// against sampled |screened - exact| gaps in tests/screen_test.cc.

constexpr double kF32Eps = 5.9604644775390625e-08;  // 2^-24

struct ScreenSideStats {
  bool has_dense = false;
  size_t max_sparse_nnz = 0;
  double min_positive_norm = std::numeric_limits<double>::infinity();
};

ScreenSideStats SideStatsOf(const Dataset& d) {
  ScreenSideStats s;
  s.has_dense = d.has_dense_rows();
  s.max_sparse_nnz = d.sparse_stats().max_nnz;
  s.min_positive_norm = d.screen_stats().min_positive_norm;
  return s;
}

ScreenSideStats SideStatsOf(const Point& p) {
  ScreenSideStats s;
  s.has_dense = !p.is_sparse();
  s.max_sparse_nnz = p.is_sparse() ? p.sparse_values().size() : 0;
  if (p.norm() > 0.0) s.min_positive_norm = p.norm();
  return s;
}

// Worst-case fp32-accumulated term count for any pair drawn from the two
// sides: pairs with a dense operand walk all dim coordinates; sparse x
// sparse pairs walk at most the sum of the two supports.
size_t MaxPairTerms(const ScreenSideStats& q, const ScreenSideStats& r,
                    size_t dim) {
  size_t m = (q.has_dense || r.has_dense) ? dim : 0;
  m = std::max(m, q.max_sparse_nnz + r.max_sparse_nnz);
  return std::max<size_t>(m, 1);
}

// Euclidean / L1: relative bound (2m + 64) * u — more than twice the
// derived worst case of (m + 6) * u on the distance — plus an absolute
// floor that soaks the fp32 underflow regime (where both the screened and
// the exact value are below ~2^-61, far under the floor).
ScreenBound AdditiveBound(size_t m) {
  return ScreenBound{(2.0 * static_cast<double>(m) + 64.0) * kF32Eps, 1e-18};
}

// Cosine-space error band of the fp32 dot kernels:
// |dot32 - dot| <= gamma(m+1) * ||a|| ||b|| (Cauchy-Schwarz over the
// absolute terms, any summation order) gives an absolute error e_c on the
// cosine after the exact-double norm division (the fp32 narrowing of the
// quotient is another u, inside the 2x margin), inflated by the denormal
// floor over the smallest positive norm product. Zero-norm pairs take the
// exact convention values and carry no error at all. The cosine-space
// sparse screen (CosineSparseScreenedRelaxTile) compares in this band
// directly; CosineBound below turns it into an absolute angular band via
// the Hölder-type bound |acos x - acos y| <= sqrt(2|x-y|) + |x-y| (the
// endpoint increment acos(1 - e) is the maximum and is below sqrt(2e) + e
// for every e in [0, 2]), plus 1e-5 for kernels::AcosScreenPoly — the
// screened angular kernels evaluate the arccos with that polynomial.
double CosineSpaceError(size_t m, double min_norm_q, double min_norm_r) {
  double md = static_cast<double>(m);
  return (2.0 * md + 32.0) * kF32Eps +
         md * 3e-45 / (min_norm_q * min_norm_r);
}

ScreenBound CosineBound(size_t m, double min_norm_q, double min_norm_r) {
  double e_c = CosineSpaceError(m, min_norm_q, min_norm_r);
  double e_d = std::sqrt(2.0 * e_c) + e_c + 1e-5;
  return ScreenBound{0.0, std::min(e_d, 4.0)};
}

// --- Metric-index pruning slack -------------------------------------------
// The cover tree (core/cover_tree.h) prunes with chains of EXACT-double
// kernel values: d(q, center) - radius lower-bounds d(q, x) for any x in
// the node, d(q, center) + radius upper-bounds it. The exact kernels round,
// so each computed value carries the double analog of the fp32 screening
// band above — the same derivations with u = 2^-52 and the same >=2x safety
// factors. A pruning test chains at most three computed values (the pair
// bound, the center distance, and the radius, itself a computed pair
// distance), so the traversal widens by FOUR times this band before any
// comparison: sound for every chain it forms, and still orders of magnitude
// below the distances the tests discriminate on.

constexpr double kDblEps = 2.220446049250313e-16;  // 2^-52

ScreenBound AdditiveIndexSlack(size_t m) {
  // Euclidean / L1: (2m + 64) u relative — more than twice the (m + 6) u
  // worst case on the distance — plus a floor soaking double underflow.
  return ScreenBound{(2.0 * static_cast<double>(m) + 64.0) * kDblEps, 1e-30};
}

ScreenBound CosineIndexSlack(size_t m, double min_norm) {
  // Cosine-space band of the exact double dot (Cauchy-Schwarz over absolute
  // terms, any order) with a denormal floor over the smallest positive norm
  // product, lifted to the angle by |acos x - acos y| <= sqrt(2|x-y|) +
  // |x-y|, plus ulp-scale headroom for the exact std::acos itself. Degrades
  // to the never-prune band (abs = 4 >= pi) when norms underflow the floor.
  double md = static_cast<double>(m);
  double e_c =
      (2.0 * md + 64.0) * kDblEps + md * 1e-315 / (min_norm * min_norm);
  double e_d = std::sqrt(2.0 * e_c) + e_c + 1e-12;
  return ScreenBound{0.0, std::min(e_d, 4.0)};
}

// --- Fused screened tile relax --------------------------------------------
// Certain-skip cutoff in squared space for the fused Euclidean kernel: the
// lane values stay SQUARED (no SQRTPS on the skip path), so the
// distance-space skip threshold thr must map to a squared cutoff hi with
//   v > hi (finite)  =>  sqrtf(v) > thr.
// IEEE sqrt is correctly rounded and monotone, so the exact boundary is
// within ~2.5 float ulps of thr^2; a 1e-6 relative inflation clears it with
// orders of magnitude to spare. Outside the float range where the relative
// margin is trustworthy (subnormal or near-overflow squares) the cutoff
// degrades to +inf — no certain skip, every lane goes through the certified
// candidate test, which is always safe.
float SquaredSkipCutoff(float thr) {
  if (!(thr < std::numeric_limits<float>::infinity())) {
    return std::numeric_limits<float>::infinity();
  }
  float t2 = thr * thr;
  if (t2 >= 1e-30f && t2 <= 1e37f) return t2 * (1.0f + 1e-6f);
  return std::numeric_limits<float>::infinity();
}

// The register-resident screen + relax + rescue loop behind
// Metric::ScreenedRelaxTile for all-dense layouts. Per data row: one
// 16-lane fp32 kernel call into a 64-byte stack buffer and one packed
// compare against the row's certain-skip cutoff (kernels::RescueMask16F32);
// only rows with a lane in the certified band do further work. Besides
// removing the fp32 tile traffic (write + re-read of nq x nr floats, which
// dominates at low dimension), the fused loop certifies skips MORE
// aggressively than the unfused base loop: band-hit rows resolve through a
// per-row argmin screen instead of the serial per-center cascade, so the
// rescue set is typically SMALLER (never more than nq * nr; fused <=
// unfused is pinned in screen_test) while the final dist / assignment /
// argmax stay bit-identical to the exact relax fold.

// The fused loop. Two facts make it both fast and safe:
//
//   * The tile relax is a strict-min fold: the final (dist[r],
//     assignment[r]) is the exact minimum over incoming dist and all lane
//     distances, with the FIRST rank winning exact ties — a pure function
//     of the pair distances, independent of relax order. So a fused kernel
//     need not replay the unfused loop's serial lane cascade; it only has
//     to produce that function's value bit for bit.
//   * Per row, the candidates for that minimum are certified by the
//     argmin-screening argument (see ScreenedArgClosestWithin): with
//     U = min(dist[r], ScreenedUpper(smin)) over the row's finite lane
//     values, any lane whose certified lower bound exceeds U provably
//     cannot improve or tie the final minimum. Evaluating only the
//     candidates, in ascending rank with a strict-min relax, reproduces
//     the exact fold — typically ONE exact evaluation per touched row,
//     against the serial cascade's string of band hits (and strictly no
//     more than the nq * nr the unscreened path pays).
//
// The fast path stays one packed compare: rows where every lane clears the
// certain-skip cutoff (mask_thr[r], in the lane kernels' native value
// space — squared for Euclidean, so no SQRTPS runs there) are done in
// ~RescueMask16F32 alone. A band-hit row's argmin screen is packed too:
// MinFinite16F32 reduces the lane block (still in native space — sqrt and
// min commute, so Euclidean pays ONE scalar sqrt on the reduced value,
// `to_distance_scalar`), the candidate cutoff maps back through
// mask_cutoff, and a second RescueMask16F32 yields the candidate bitset —
// walked in ascending rank so exact ties keep first-rank semantics.
template <typename LaneF32Fn, typename FinishFn, typename ToDistanceFn,
          typename MaskCutoffFn, typename ExactPairFn>
size_t FusedDenseScreenedRelaxTile(
    const Dataset& queries, size_t q_begin, size_t nq, size_t rank_base,
    const Dataset& data, size_t r_begin, size_t nr, const ScreenBound& bound,
    std::span<double> dist, std::span<size_t> assignment,
    const LaneF32Fn& lanes, const FinishFn& finish,
    const ToDistanceFn& to_distance_scalar, const MaskCutoffFn& mask_cutoff,
    const ExactPairFn& exact_pair) {
  constexpr size_t kRowBlock = 256;
  constexpr size_t kLanes = kernels::kTileLanesF32;
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  const size_t dim = data.dim();
  size_t exact_evals = 0;
  thread_local std::vector<float> qt;
  thread_local std::vector<float> mask_thr;
  qt.resize(dim * kLanes);
  kernels::VecView qv[kLanes];
  float vals[kLanes];
  for (size_t rb = 0; rb < nr; rb += kRowBlock) {
    size_t rn = std::min(kRowBlock, nr - rb);
    // Cache each row's certain-skip cutoff for the whole center sweep; it
    // only changes when a rescue improves the row's distance.
    mask_thr.resize(rn);
    for (size_t i = 0; i < rn; ++i) {
      mask_thr[i] = mask_cutoff(
          ScreenSkipThreshold(dist[r_begin + rb + i], bound.abs, inv_rel));
    }
    for (size_t qc = 0; qc < nq; qc += kLanes) {
      size_t qn = std::min(kLanes, nq - qc);
      for (size_t l = 0; l < qn; ++l) {
        qv[l] = queries.row(q_begin + qc + l);
      }
      kernels::PackQueryLanesF32(qv, qn, dim, qt.data());
      const uint32_t lane_mask =
          qn >= kLanes ? 0xFFFFu : ((1u << qn) - 1u);
      for (size_t r = 0; r < rn; ++r) {
        size_t gr = r_begin + rb + r;
        kernels::VecView row = data.row(gr);
        lanes(qt.data(), row.values, dim, vals);
        finish(vals, qv, row, qn);
        if ((kernels::RescueMask16F32(vals, mask_thr[r]) & lane_mask) == 0) {
          continue;
        }
        // Band hit: run the certified argmin screen for this row's
        // strict-min fold. Padding lanes (zero-filled queries) must not
        // reach the packed min.
        if (qn < kLanes) {
          for (size_t l = qn; l < kLanes; ++l) {
            vals[l] = std::numeric_limits<float>::infinity();
          }
        }
        float smin = to_distance_scalar(kernels::MinFinite16F32(vals));
        double min_upper = std::min(dist[gr], ScreenedUpper(smin, bound));
        float cutoff = mask_cutoff(NextUpNonNegativeF32(
            static_cast<float>((min_upper + bound.abs) * inv_rel)));
        uint32_t cand = kernels::RescueMask16F32(vals, cutoff) & lane_mask;
        bool improved = false;
        while (cand != 0) {
          size_t l = static_cast<size_t>(std::countr_zero(cand));
          cand &= cand - 1;
          double d = exact_pair(qv[l], row);
          ++exact_evals;
          if (d < dist[gr]) {
            dist[gr] = d;
            if (!assignment.empty()) assignment[gr] = rank_base + qc + l;
            improved = true;
          }
        }
        if (improved) {
          mask_thr[r] = mask_cutoff(
              ScreenSkipThreshold(dist[gr], bound.abs, inv_rel));
        }
      }
    }
  }
  return exact_evals;
}

// The one-center loop behind Metric::ScreenedRelaxRows for all-dense
// layouts. Per row, one pass over the contiguous dense pool: the fp32
// screen value (`screen`, the metric's DistanceToManyF32 kernel before any
// sqrt), one compare against the row's cached cutoff (`cutoff_of` maps a
// distance to it), an inline exact rescue (`exact`, the same double as the
// metric's DistanceRows), and the first-max argmax fold. Non-finite screen
// values fail the v <= FLT_MAX test and always rescue; a NaN cutoff fails
// the compare, and is derived from dist before the rescue test repeats.
template <typename ScreenFn, typename CutoffFn, typename ExactFn>
size_t FusedDenseScreenedRelaxRows(const Dataset& queries, size_t q_index,
                                   size_t center_rank, const Dataset& data,
                                   size_t begin, std::span<double> dist,
                                   std::span<size_t> assignment,
                                   std::span<float> cutoff, size_t* farthest,
                                   const ScreenFn& screen,
                                   const CutoffFn& cutoff_of,
                                   const ExactFn& exact) {
  const size_t count = dist.size();
  DIVERSE_CHECK_EQ(queries.dim(), data.dim());
  DIVERSE_CHECK_LE(begin + count, data.size());
  DIVERSE_CHECK_EQ(cutoff.size(), count);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), count);
  const kernels::VecView qv = queries.row(q_index);
  const size_t dim = data.dim();
  const float* q = qv.values;
  const float* row = data.dense_data() + begin * dim;
  const float flt_max = std::numeric_limits<float>::max();
  size_t exact_evals = 0;
  size_t best = 0;
  double best_val = -std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < count; ++t, row += dim) {
    const float v = screen(row, q, dim);
    double cur = dist[t];
    float c = cutoff[t];
    if (!(v > c && v <= flt_max)) {
      if (c != c) {
        c = cutoff_of(cur);
        cutoff[t] = c;
      }
      if (!(v > c && v <= flt_max)) {
        kernels::VecView rv = qv;
        rv.values = row;
        rv.norm = data.norm(begin + t);
        double d = exact(qv, rv);
        ++exact_evals;
        if (d < cur) {
          cur = d;
          dist[t] = d;
          if (!assignment.empty()) assignment[t] = center_rank;
          cutoff[t] = cutoff_of(d);
        }
      }
    }
    if (cur > best_val) {
      best_val = cur;
      best = t;
    }
  }
  *farthest = best;
  return exact_evals;
}

// Cosine-space screened relax for all-sparse tiles: the screen compares
// raw fp32 dots against per-row cos thresholds, so the skip path costs the
// SparseDotLanesF32 walks plus one multiply-compare per lane — no arccos
// anywhere. Every center chunk is decoded ONCE per call and a row streams
// against all of them back to back, so a band-hit row screens its ENTIRE
// center set at once: the certified cosine-space argmin test (angular min
// is cosine max; C_LO lower-bounds the cosine of the row's final minimum,
// so lanes certified below it cannot improve or tie the strict-min fold)
// leaves typically ONE candidate per row per sweep to pay the exact
// per-pair merge — not one per 8-lane chunk, which is what makes sparse
// cosine screening profitable at all (rescued merges are ~an order of
// magnitude costlier than blocked pairs). Zero-norm rows and lanes always
// rescue: their distances are convention values the screen does not model.
// Deterministic: decode order, walk order, and thresholds depend only on
// inputs.
size_t CosineSparseScreenedRelaxTile(const Dataset& queries, size_t q_begin,
                                     size_t nq, size_t rank_base,
                                     const Dataset& data, size_t r_begin,
                                     size_t nr, std::span<double> dist,
                                     std::span<size_t> assignment) {
  constexpr size_t kSub = kernels::kTileLanes;
  const double inf = std::numeric_limits<double>::infinity();
  const float flt_max = std::numeric_limits<float>::max();
  ScreenSideStats qs = SideStatsOf(queries);
  ScreenSideStats rs = SideStatsOf(data);
  const double e_c = CosineSpaceError(MaxPairTerms(qs, rs, data.dim()),
                                      qs.min_positive_norm,
                                      rs.min_positive_norm);
  // Absorbs the cos() rounding and the norm multiplications/divisions of
  // the skip tests (each ~1e-16, far below this absolute cosine slack).
  constexpr double kCosSlack = 1e-9;
  size_t exact_evals = 0;
  size_t num_sub = (nq + kSub - 1) / kSub;
  thread_local std::vector<kernels::SparseTileScratch> ws_pool;
  if (ws_pool.size() < num_sub) ws_pool.resize(num_sub);
  thread_local std::vector<kernels::VecView> qv;
  thread_local std::vector<double> qnorm;
  thread_local std::vector<double> inv_nb;
  thread_local std::vector<float> dots;
  thread_local std::vector<double> cvals;
  qv.resize(nq);
  qnorm.resize(nq);
  inv_nb.resize(nq);
  dots.resize(num_sub * kSub);
  cvals.resize(nq);
  for (size_t l = 0; l < nq; ++l) {
    qv[l] = queries.row(q_begin + l);
    qnorm[l] = qv[l].norm;
    inv_nb[l] = qnorm[l] > 0.0 ? 1.0 / qnorm[l] : 0.0;
  }
  const size_t direct_dim = DirectIndexDim(data, nr);
  thread_local std::vector<SparseDecodeKey> key_pool;
  if (key_pool.size() < ws_pool.size()) key_pool.resize(ws_pool.size());
  for (size_t sub = 0; sub < num_sub; ++sub) {
    size_t sub_n = std::min(kSub, nq - sub * kSub);
    SparseDecodeKey want{queries.content_stamp(), q_begin, nq, sub,
                         direct_dim};
    if (!SparseDecodeCached(want, key_pool[sub])) {
      kernels::PackSparseQueryLanes(qv.data() + sub * kSub, sub_n, direct_dim,
                                    ws_pool[sub]);
    }
  }
  auto row_cos_threshold = [&](double cur, double rnorm) -> double {
    // (cos(cur) - slack - e_c) * row_norm; -inf (never skip) when the row
    // norm is zero or the row has not been relaxed yet.
    if (!(rnorm > 0.0) || !(cur < inf)) return -inf;
    return (std::cos(cur) - kCosSlack - e_c) * rnorm;
  };
  for (size_t r = 0; r < nr; ++r) {
    size_t gr = r_begin + r;
    kernels::VecView row = data.row(gr);
    double na = row.norm;
    double cthr = row_cos_threshold(dist[gr], na);
    uint32_t any = 0;
    for (size_t sub = 0; sub < num_sub; ++sub) {
      any |= kernels::SparseCosineScreenLanes(ws_pool[sub], row, cthr,
                                              qnorm.data() + sub * kSub,
                                              dots.data() + sub * kSub);
    }
    if (any == 0) continue;
    if (na > 0.0) {
      double inv_na = 1.0 / na;
      // Lower bound on cos(dist[gr]), division rounding inside the slack.
      double c_lo = cthr * inv_na + e_c;
      for (size_t l = 0; l < nq; ++l) {
        float s = dots[l];
        if (qnorm[l] > 0.0 && s >= -flt_max && s <= flt_max) {
          double c = static_cast<double>(s) * inv_na * inv_nb[l];
          cvals[l] = c;
          if (c - e_c > c_lo) c_lo = c - e_c;
        } else {
          cvals[l] = inf;  // convention / overflow lane: always a candidate
        }
      }
      for (size_t l = 0; l < nq; ++l) {
        if (cvals[l] + e_c < c_lo) continue;
        double d = kernels::AngularCosine(qv[l], row);
        ++exact_evals;
        if (d < dist[gr]) {
          dist[gr] = d;
          if (!assignment.empty()) assignment[gr] = rank_base + l;
        }
      }
    } else {
      // Zero-norm row: every pair takes its exact convention value.
      for (size_t l = 0; l < nq; ++l) {
        double d = kernels::AngularCosine(qv[l], row);
        ++exact_evals;
        if (d < dist[gr]) {
          dist[gr] = d;
          if (!assignment.empty()) assignment[gr] = rank_base + l;
        }
      }
    }
  }
  return exact_evals;
}

// --- Single-query sparse cosine gather ------------------------------------
// A single-query cosine sweep over sparse rows would merge both index lists
// for every (query, row) pair: a branchy walk over nnz_q + nnz_r positions.
// Instead the query is scattered once per sweep into a dim-sized, zero-filled
// per-thread float table, and each sparse row computes Dot(row, dense_q) —
// the mixed-layout branch of kernels::Dot, a branch-free gather over the
// row's own indices.
//
// Bit-identical to the merge: the gather visits the row's indices in
// ascending order, so products at common indices arrive in the merge's
// order with the same values. Every other term is x * 0.0f = ±0 for a
// finite row value x — guaranteed by the finite-norm gate, since the double
// norm of a row is finite exactly when all its values are. The accumulator
// starts at +0 and never becomes -0 under round-to-nearest, so adding ±0
// leaves its bits unchanged. Dense rows and rows with a non-finite norm
// keep AngularCosine(row, q).
//
// The table costs 4 * dim bytes per thread, capped by kDirectIndexMaxDim;
// only the query's indices are written and re-zeroed, so a sweep pays
// O(nnz_q) for it, not O(dim). Pool threads running the sweep's ranges read
// the caller's table while the caller blocks in ParallelForRanges.
class GatheredCosineQuery {
 public:
  GatheredCosineQuery(const kernels::VecView& q, const Dataset& data)
      : q_(q) {
    Table& t = table_;
    if (!q.is_sparse() || !std::isfinite(q.norm) ||
        data.sparse_stats().rows == 0 || data.dim() > kDirectIndexMaxDim ||
        t.in_use) {
      return;
    }
    if (t.values.size() < data.dim()) t.values.resize(data.dim(), 0.0f);
    for (size_t i = 0; i < q.nnz; ++i) t.values[q.indices[i]] = q.values[i];
    t.in_use = true;
    active_ = true;
    dense_q_.values = t.values.data();
    dense_q_.nnz = data.dim();
    dense_q_.dim = data.dim();
    dense_q_.norm = q.norm;
  }

  ~GatheredCosineQuery() {
    if (!active_) return;
    for (size_t i = 0; i < q_.nnz; ++i) table_.values[q_.indices[i]] = 0.0f;
    table_.in_use = false;
  }

  GatheredCosineQuery(const GatheredCosineQuery&) = delete;
  GatheredCosineQuery& operator=(const GatheredCosineQuery&) = delete;

  // Equal, bit for bit, to kernels::AngularCosine(row, q).
  double Distance(const kernels::VecView& row) const {
    if (active_ && row.is_sparse() && std::isfinite(row.norm)) {
      return kernels::AngularCosine(row, dense_q_);
    }
    return kernels::AngularCosine(row, q_);
  }

 private:
  struct Table {
    std::vector<float> values;  // all zero outside an active sweep
    bool in_use = false;        // a nested sweep on this thread merges
  };
  static thread_local Table table_;

  kernels::VecView q_;
  kernels::VecView dense_q_;
  bool active_ = false;
};

thread_local GatheredCosineQuery::Table GatheredCosineQuery::table_;

}  // namespace

void Metric::DistanceToMany(const Point& query, const Dataset& data,
                            size_t begin, std::span<double> out) const {
  // Scalar fallback for metrics that do not provide a columnar kernel.
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = Distance(query, data.point(begin + i));
  }
}

void Metric::DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                          const Dataset& data, size_t r_begin, size_t nr,
                          double* out, size_t out_stride) const {
  // Scalar fallback for metrics that do not provide a columnar kernel.
  CheckTileArgs(queries, q_begin, nq, data, r_begin, nr, out_stride);
  for (size_t q = 0; q < nq; ++q) {
    for (size_t r = 0; r < nr; ++r) {
      out[q * out_stride + r] =
          Distance(queries.point(q_begin + q), data.point(r_begin + r));
    }
  }
}

void Metric::DistanceTileF32(const Dataset& queries, size_t q_begin,
                             size_t nq, const Dataset& data, size_t r_begin,
                             size_t nr, float* out, size_t out_stride) const {
  // Fallback for metrics without a reduced-precision kernel: exact tile,
  // narrowed to float. Valid under the default ScreenErrorBound (one fp32
  // rounding); ScreeningProfitable() stays false so screened sweeps do not
  // route hot loops through it.
  CheckTileArgs(queries, q_begin, nq, data, r_begin, nr, out_stride);
  if (nq == 0 || nr == 0) return;
  thread_local std::vector<double> tmp;
  tmp.resize(nq * nr);
  DistanceTile(queries, q_begin, nq, data, r_begin, nr, tmp.data(), nr);
  for (size_t q = 0; q < nq; ++q) {
    for (size_t r = 0; r < nr; ++r) {
      out[q * out_stride + r] = static_cast<float>(tmp[q * nr + r]);
    }
  }
}

void Metric::DistanceToManyF32(const Point& query, const Dataset& data,
                               size_t begin, std::span<float> out) const {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  thread_local std::vector<double> tmp;
  tmp.resize(out.size());
  DistanceToMany(query, data, begin, std::span<double>(tmp.data(), out.size()));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(tmp[i]);
  }
}

double Metric::DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                            size_t j) const {
  return Distance(a.point(i), b.point(j));
}

void Metric::DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                              std::span<const uint32_t> rows,
                              double* out) const {
  for (size_t t = 0; t < rows.size(); ++t) {
    out[t] = DistanceRows(a, i, b, rows[t]);
  }
}

ScreenBound Metric::ScreenErrorBound(const Dataset&, const Dataset&) const {
  // The default F32 kernels narrow an exact double to float: one fp32
  // rounding (4x margin), plus a floor for the denormal-float range.
  return ScreenBound{4.0 * kF32Eps, 1e-40};
}

ScreenBound Metric::ScreenErrorBound(const Point&, const Dataset&) const {
  return ScreenBound{4.0 * kF32Eps, 1e-40};
}

bool Metric::ScreeningProfitableFor(const Dataset&, const Dataset&) const {
  return ScreeningProfitable();
}

bool Metric::ScreeningProfitableFor(const Point&, const Dataset&) const {
  return ScreeningProfitable();
}

bool Metric::RelaxTileScreeningProfitableFor(const Dataset& queries,
                                             const Dataset& data) const {
  return ScreeningProfitableFor(queries, data);
}

ScreenBound Metric::IndexSlack(const Dataset&) const {
  // Unbounded band: every prune test fails — sound, and consistent with
  // SupportsMetricIndexing() == false.
  return ScreenBound{0.0, std::numeric_limits<double>::infinity()};
}

size_t Metric::ScreenedRelaxTile(const Dataset& queries, size_t q_begin,
                                 size_t nq, size_t rank_base,
                                 const Dataset& data, size_t r_begin,
                                 size_t nr, const ScreenBound& bound,
                                 std::span<double> dist,
                                 std::span<size_t> assignment) const {
  // Unfused fallback, correct for any metric: materialize a kQChunk x
  // kRowBlock fp32 tile through DistanceTileF32, collect the band hits
  // against cached per-row skip thresholds, and batch their exact
  // re-evaluations through DistanceRowsMany. Overriding never changes the
  // relax fold's result — only which (and how many, typically fewer) pairs
  // pay an exact rescue evaluation.
  constexpr size_t kRowBlock = 256;
  constexpr size_t kQChunk = 64;
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  size_t exact_evals = 0;
  thread_local std::vector<float> tile;
  thread_local std::vector<float> thr;
  thread_local std::vector<uint32_t> rescue;
  thread_local std::vector<double> rescued_d;
  for (size_t rb = 0; rb < nr; rb += kRowBlock) {
    size_t rn = std::min(kRowBlock, nr - rb);
    size_t row0 = r_begin + rb;
    thr.resize(rn);
    for (size_t i = 0; i < rn; ++i) {
      thr[i] = ScreenSkipThreshold(dist[row0 + i], bound.abs, inv_rel);
    }
    for (size_t qc = 0; qc < nq; qc += kQChunk) {
      size_t qn = std::min(kQChunk, nq - qc);
      tile.resize(qn * rn);
      DistanceTileF32(queries, q_begin + qc, qn, data, row0, rn, tile.data(),
                      rn);
      for (size_t q = 0; q < qn; ++q) {
        const float* tile_row = tile.data() + q * rn;
        rescue.clear();
        CollectScreenRescues(tile_row, thr.data(), rn,
                             static_cast<uint32_t>(row0), rescue);
        if (rescue.empty()) continue;
        rescued_d.resize(rescue.size());
        DistanceRowsMany(queries, q_begin + qc + q, data, rescue,
                         rescued_d.data());
        exact_evals += rescue.size();
        size_t rank = rank_base + qc + q;
        for (size_t t = 0; t < rescue.size(); ++t) {
          size_t row = rescue[t];
          double d = rescued_d[t];
          if (d < dist[row]) {
            dist[row] = d;
            if (!assignment.empty()) assignment[row] = rank;
            thr[row - row0] = ScreenSkipThreshold(d, bound.abs, inv_rel);
          }
        }
      }
    }
  }
  return exact_evals;
}

size_t Metric::ScreenedRelaxRows(const Dataset& queries, size_t q_index,
                                 size_t center_rank, const Dataset& data,
                                 size_t begin, const ScreenBound& bound,
                                 std::span<double> dist,
                                 std::span<size_t> assignment,
                                 std::span<float> /*cutoff*/,
                                 size_t* farthest) const {
  // Unfused fallback, correct for any metric: per chunk, an fp32 buffer
  // through DistanceToManyF32, distance-space skip thresholds recomputed
  // from dist, CollectScreenRescues, and one batched DistanceRowsMany for
  // the band hits. Per-row decisions depend only on the pair and dist[t],
  // so chunk alignment never moves one.
  constexpr size_t kChunk = 512;
  const size_t count = dist.size();
  DIVERSE_CHECK_LE(begin + count, data.size());
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), count);
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  const Point& query = queries.point(q_index);
  thread_local std::vector<float> buf;
  thread_local std::vector<float> thr;
  thread_local std::vector<uint32_t> rescue;
  thread_local std::vector<double> rescued_d;
  size_t exact_evals = 0;
  size_t best = 0;
  double best_val = -std::numeric_limits<double>::infinity();
  for (size_t c0 = 0; c0 < count; c0 += kChunk) {
    size_t cn = std::min(kChunk, count - c0);
    buf.resize(cn);
    thr.resize(cn);
    DistanceToManyF32(query, data, begin + c0,
                      std::span<float>(buf.data(), cn));
    for (size_t i = 0; i < cn; ++i) {
      thr[i] = ScreenSkipThreshold(dist[c0 + i], bound.abs, inv_rel);
    }
    rescue.clear();
    CollectScreenRescues(buf.data(), thr.data(), cn,
                         static_cast<uint32_t>(begin + c0), rescue);
    if (!rescue.empty()) {
      rescued_d.resize(rescue.size());
      DistanceRowsMany(queries, q_index, data, rescue, rescued_d.data());
      exact_evals += rescue.size();
      for (size_t r = 0; r < rescue.size(); ++r) {
        size_t t = rescue[r] - begin;
        if (rescued_d[r] < dist[t]) {
          dist[t] = rescued_d[r];
          if (!assignment.empty()) assignment[t] = center_rank;
        }
      }
    }
    for (size_t t = c0; t < c0 + cn; ++t) {
      if (dist[t] > best_val) {
        best_val = dist[t];
        best = t;
      }
    }
  }
  *farthest = best;
  return exact_evals;
}

size_t RelaxTilesAndArgFarthest(const Metric& metric, const Dataset& queries,
                                size_t q_begin, size_t nq, size_t rank_base,
                                const Dataset& data, std::span<double> dist,
                                std::span<size_t> assignment) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(nq, 1u);
  DIVERSE_CHECK_LE(q_begin + nq, queries.size());
  DIVERSE_CHECK_EQ(dist.size(), n);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), n);
  if (n == 0) return 0;

  // Row block per tile: small enough that a kQChunk x kRowBlock tile stays
  // cache-resident (the relax pass re-reads every tile entry right after it
  // is written), large enough to amortize the per-block query transpose.
  constexpr size_t kRowBlock = 256;
  // Centers per tile: bounds the scratch to kQChunk * kRowBlock doubles
  // (128 KiB); within one DistanceTile call each data row is fetched once
  // for all kQChunk centers.
  constexpr size_t kQChunk = 64;

  size_t grain = GrainRows(data);
  size_t num_ranges = (n + grain - 1) / grain;
  std::vector<size_t> range_best(num_ranges, SIZE_MAX);
  GlobalThreadPool().ParallelForRanges(n, grain, [&](size_t lo, size_t hi) {
    thread_local std::vector<double> tile;
    size_t local_best = lo;
    double local_val = -std::numeric_limits<double>::infinity();
    for (size_t rb = lo; rb < hi; rb += kRowBlock) {
      size_t rn = std::min(kRowBlock, hi - rb);
      for (size_t qc = 0; qc < nq; qc += kQChunk) {
        size_t qn = std::min(kQChunk, nq - qc);
        tile.resize(qn * rn);
        metric.DistanceTile(queries, q_begin + qc, qn, data, rb, rn,
                            tile.data(), rn);
        // Relax centers in ascending rank order: identical to the
        // sequential one-center-at-a-time relax loop, including ties
        // (strictly smaller wins, earliest rank kept). Center-major order
        // streams the tile sequentially while the block's dist (and
        // assignment) slices stay cache-resident.
        for (size_t q = 0; q < qn; ++q) {
          const double* tile_row = tile.data() + q * rn;
          if (assignment.empty()) {
            for (size_t i = 0; i < rn; ++i) {
              if (tile_row[i] < dist[rb + i]) dist[rb + i] = tile_row[i];
            }
          } else {
            size_t rank = rank_base + qc + q;
            for (size_t i = 0; i < rn; ++i) {
              if (tile_row[i] < dist[rb + i]) {
                dist[rb + i] = tile_row[i];
                assignment[rb + i] = rank;
              }
            }
          }
        }
      }
      for (size_t i = rb; i < rb + rn; ++i) {
        if (dist[i] > local_val) {
          local_val = dist[i];
          local_best = i;
        }
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

size_t Metric::RelaxAndArgFarthest(const Point& query, const Dataset& data,
                                   std::span<double> dist,
                                   std::span<size_t> assignment,
                                   size_t center_rank) const {
  size_t n = data.size();
  DIVERSE_CHECK_EQ(dist.size(), n);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), n);
  if (n == 0) return 0;
  size_t best = 0;
  double best_val = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    double d = Distance(query, data.point(i));
    if (d < dist[i]) {
      dist[i] = d;
      if (!assignment.empty()) assignment[i] = center_rank;
    }
    if (dist[i] > best_val) {
      best_val = dist[i];
      best = i;
    }
  }
  return best;
}

double EuclideanMetric::Distance(const Point& a, const Point& b) const {
  return std::sqrt(a.SquaredEuclideanDistanceTo(b));
}

void EuclideanMetric::DistanceToMany(const Point& query, const Dataset& data,
                                     size_t begin,
                                     std::span<double> out) const {
  kernels::VecView q = QueryView(query, data);
  BatchMap(data, begin, out, [&q](const kernels::VecView& row) {
    return kernels::Euclidean(row, q);
  });
}

size_t EuclideanMetric::RelaxAndArgFarthest(const Point& query,
                                            const Dataset& data,
                                            std::span<double> dist,
                                            std::span<size_t> assignment,
                                            size_t center_rank) const {
  kernels::VecView q = QueryView(query, data);
  return BatchRelaxArgFarthest(data, dist, assignment, center_rank,
                               [&q](const kernels::VecView& row) {
                                 return kernels::Euclidean(row, q);
                               });
}

void EuclideanMetric::DistanceTile(const Dataset& queries, size_t q_begin,
                                   size_t nq, const Dataset& data,
                                   size_t r_begin, size_t nr, double* out,
                                   size_t out_stride) const {
  BatchTile<true>(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::Euclidean(row, q);
      },
      kernels::SquaredEuclideanLanes, kernels::SparseSquaredEuclideanLanes,
      /*sparse_union_walk=*/true,
      [](double* vals, const kernels::VecView*, const kernels::VecView&,
         size_t qn) { kernels::SqrtLanes(vals, qn); });
}

void EuclideanMetric::DistanceTileF32(const Dataset& queries, size_t q_begin,
                                      size_t nq, const Dataset& data,
                                      size_t r_begin, size_t nr, float* out,
                                      size_t out_stride) const {
  BatchTileF32(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::EuclideanF32(row, q);
      },
      kernels::SquaredEuclideanLanesF32,
      kernels::SparseSquaredEuclideanLanesF32,
      /*sparse_union_walk=*/true,
      [](float* vals, const kernels::VecView*, const kernels::VecView&,
         size_t qn) { kernels::SqrtLanesF32(vals, qn); });
}

void EuclideanMetric::DistanceToManyF32(const Point& query,
                                        const Dataset& data, size_t begin,
                                        std::span<float> out) const {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  kernels::VecView q = QueryView(query, data);
  // Squared pass first, then one batched SQRTPS sweep: the scalar sqrt the
  // exact kernel pays per row is the dominant cost at low dimension.
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = kernels::SquaredEuclideanF32(data.row(begin + i), q);
  }
  kernels::SqrtLanesF32(out.data(), out.size());
}

double EuclideanMetric::DistanceRows(const Dataset& a, size_t i,
                                     const Dataset& b, size_t j) const {
  return kernels::Euclidean(a.row(i), b.row(j));
}

void EuclideanMetric::DistanceRowsMany(const Dataset& a, size_t i,
                                       const Dataset& b,
                                       std::span<const uint32_t> rows,
                                       double* out) const {
  kernels::VecView q = a.row(i);
  for (size_t t = 0; t < rows.size(); ++t) {
    out[t] = kernels::SquaredEuclidean(q, b.row(rows[t]));
  }
  kernels::SqrtLanes(out, rows.size());
}

size_t EuclideanMetric::ScreenedRelaxTile(const Dataset& queries,
                                          size_t q_begin, size_t nq,
                                          size_t rank_base,
                                          const Dataset& data, size_t r_begin,
                                          size_t nr, const ScreenBound& bound,
                                          std::span<double> dist,
                                          std::span<size_t> assignment) const {
  if (queries.sparse_stats().rows > 0 || data.sparse_stats().rows > 0 ||
      data.dim() == 0) {
    // Sparse or mixed layouts keep the unfused tile path (the sparse
    // engine's block decode already amortizes; the fusion win is dense tile
    // traffic). Gate reads only dataset statistics — deterministic.
    return Metric::ScreenedRelaxTile(queries, q_begin, nq, rank_base, data,
                                     r_begin, nr, bound, dist, assignment);
  }
  // The lane values stay SQUARED everywhere (SquaredSkipCutoff maps both
  // the certain-skip and the candidate cutoffs instead — sound by sqrt
  // monotonicity, which also lets the packed min reduce in squared space):
  // the only square root on the screen side is the one scalar sqrtf on a
  // band-hit row's reduced minimum.
  return FusedDenseScreenedRelaxTile(
      queries, q_begin, nq, rank_base, data, r_begin, nr, bound, dist,
      assignment, kernels::SquaredEuclideanLanesF32,
      [](float*, const kernels::VecView*, const kernels::VecView&, size_t) {},
      [](float v) { return std::sqrt(v); },
      [](float thr) { return SquaredSkipCutoff(thr); },
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::Euclidean(q, row);
      });
}

size_t EuclideanMetric::ScreenedRelaxRows(const Dataset& queries,
                                          size_t q_index, size_t center_rank,
                                          const Dataset& data, size_t begin,
                                          const ScreenBound& bound,
                                          std::span<double> dist,
                                          std::span<size_t> assignment,
                                          std::span<float> cutoff,
                                          size_t* farthest) const {
  if (data.sparse_stats().rows > 0 || queries.row_is_sparse(q_index) ||
      data.dim() == 0) {
    return Metric::ScreenedRelaxRows(queries, q_index, center_rank, data,
                                     begin, bound, dist, assignment, cutoff,
                                     farthest);
  }
  // Screen values and cutoffs stay SQUARED: the cache holds
  // SquaredSkipCutoff(threshold), so the skip path runs no sqrt at all.
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  return FusedDenseScreenedRelaxRows(
      queries, q_index, center_rank, data, begin, dist, assignment, cutoff,
      farthest,
      [](const float* row, const float* q, size_t dim) {
        return kernels::SquaredEuclideanDenseF32(row, q, dim);
      },
      [&bound, inv_rel](double cur) {
        return SquaredSkipCutoff(ScreenSkipThreshold(cur, bound.abs, inv_rel));
      },
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::Euclidean(q, row);
      });
}

ScreenBound EuclideanMetric::ScreenErrorBound(const Dataset& queries,
                                              const Dataset& data) const {
  return AdditiveBound(
      MaxPairTerms(SideStatsOf(queries), SideStatsOf(data), data.dim()));
}

ScreenBound EuclideanMetric::ScreenErrorBound(const Point& query,
                                              const Dataset& data) const {
  return AdditiveBound(
      MaxPairTerms(SideStatsOf(query), SideStatsOf(data), data.dim()));
}

ScreenBound EuclideanMetric::IndexSlack(const Dataset& data) const {
  ScreenSideStats s = SideStatsOf(data);
  return AdditiveIndexSlack(MaxPairTerms(s, s, data.dim()));
}

double ManhattanMetric::Distance(const Point& a, const Point& b) const {
  return a.L1DistanceTo(b);
}

void ManhattanMetric::DistanceToMany(const Point& query, const Dataset& data,
                                     size_t begin,
                                     std::span<double> out) const {
  kernels::VecView q = QueryView(query, data);
  BatchMap(data, begin, out, [&q](const kernels::VecView& row) {
    return kernels::L1(row, q);
  });
}

size_t ManhattanMetric::RelaxAndArgFarthest(const Point& query,
                                            const Dataset& data,
                                            std::span<double> dist,
                                            std::span<size_t> assignment,
                                            size_t center_rank) const {
  kernels::VecView q = QueryView(query, data);
  return BatchRelaxArgFarthest(
      data, dist, assignment, center_rank,
      [&q](const kernels::VecView& row) { return kernels::L1(row, q); });
}

void ManhattanMetric::DistanceTile(const Dataset& queries, size_t q_begin,
                                   size_t nq, const Dataset& data,
                                   size_t r_begin, size_t nr, double* out,
                                   size_t out_stride) const {
  BatchTile<true>(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::L1(row, q);
      },
      kernels::L1Lanes, kernels::SparseL1Lanes, /*sparse_union_walk=*/true,
      [](double*, const kernels::VecView*, const kernels::VecView&, size_t) {
      });
}

void ManhattanMetric::DistanceTileF32(const Dataset& queries, size_t q_begin,
                                      size_t nq, const Dataset& data,
                                      size_t r_begin, size_t nr, float* out,
                                      size_t out_stride) const {
  BatchTileF32(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::L1F32(row, q);
      },
      kernels::L1LanesF32, kernels::SparseL1LanesF32,
      /*sparse_union_walk=*/true,
      [](float*, const kernels::VecView*, const kernels::VecView&, size_t) {
      });
}

void ManhattanMetric::DistanceToManyF32(const Point& query,
                                        const Dataset& data, size_t begin,
                                        std::span<float> out) const {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  kernels::VecView q = QueryView(query, data);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = kernels::L1F32(data.row(begin + i), q);
  }
}

double ManhattanMetric::DistanceRows(const Dataset& a, size_t i,
                                     const Dataset& b, size_t j) const {
  return kernels::L1(a.row(i), b.row(j));
}

size_t ManhattanMetric::ScreenedRelaxTile(const Dataset& queries,
                                          size_t q_begin, size_t nq,
                                          size_t rank_base,
                                          const Dataset& data, size_t r_begin,
                                          size_t nr, const ScreenBound& bound,
                                          std::span<double> dist,
                                          std::span<size_t> assignment) const {
  if (queries.sparse_stats().rows > 0 || data.sparse_stats().rows > 0 ||
      data.dim() == 0) {
    return Metric::ScreenedRelaxTile(queries, q_begin, nq, rank_base, data,
                                     r_begin, nr, bound, dist, assignment);
  }
  return FusedDenseScreenedRelaxTile(
      queries, q_begin, nq, rank_base, data, r_begin, nr, bound, dist,
      assignment, kernels::L1LanesF32,
      [](float*, const kernels::VecView*, const kernels::VecView&, size_t) {},
      [](float v) { return v; },
      [](float thr) { return thr; },
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::L1(q, row);
      });
}

size_t ManhattanMetric::ScreenedRelaxRows(const Dataset& queries,
                                          size_t q_index, size_t center_rank,
                                          const Dataset& data, size_t begin,
                                          const ScreenBound& bound,
                                          std::span<double> dist,
                                          std::span<size_t> assignment,
                                          std::span<float> cutoff,
                                          size_t* farthest) const {
  if (data.sparse_stats().rows > 0 || queries.row_is_sparse(q_index) ||
      data.dim() == 0) {
    return Metric::ScreenedRelaxRows(queries, q_index, center_rank, data,
                                     begin, bound, dist, assignment, cutoff,
                                     farthest);
  }
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  return FusedDenseScreenedRelaxRows(
      queries, q_index, center_rank, data, begin, dist, assignment, cutoff,
      farthest,
      [](const float* row, const float* q, size_t dim) {
        return kernels::L1DenseF32(row, q, dim);
      },
      [&bound, inv_rel](double cur) {
        return ScreenSkipThreshold(cur, bound.abs, inv_rel);
      },
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::L1(q, row);
      });
}

ScreenBound ManhattanMetric::ScreenErrorBound(const Dataset& queries,
                                              const Dataset& data) const {
  return AdditiveBound(
      MaxPairTerms(SideStatsOf(queries), SideStatsOf(data), data.dim()));
}

ScreenBound ManhattanMetric::ScreenErrorBound(const Point& query,
                                              const Dataset& data) const {
  return AdditiveBound(
      MaxPairTerms(SideStatsOf(query), SideStatsOf(data), data.dim()));
}

ScreenBound ManhattanMetric::IndexSlack(const Dataset& data) const {
  ScreenSideStats s = SideStatsOf(data);
  return AdditiveIndexSlack(MaxPairTerms(s, s, data.dim()));
}

double CosineMetric::Distance(const Point& a, const Point& b) const {
  DIVERSE_CHECK_EQ(a.dim(), b.dim());
  return kernels::AngularCosine(a.View(), b.View());
}

void CosineMetric::DistanceToMany(const Point& query, const Dataset& data,
                                  size_t begin, std::span<double> out) const {
  GatheredCosineQuery q(QueryView(query, data), data);
  BatchMap(data, begin, out,
           [&q](const kernels::VecView& row) { return q.Distance(row); });
}

size_t CosineMetric::RelaxAndArgFarthest(const Point& query,
                                         const Dataset& data,
                                         std::span<double> dist,
                                         std::span<size_t> assignment,
                                         size_t center_rank) const {
  GatheredCosineQuery q(QueryView(query, data), data);
  return BatchRelaxArgFarthest(
      data, dist, assignment, center_rank,
      [&q](const kernels::VecView& row) { return q.Distance(row); });
}

void CosineMetric::DistanceTile(const Dataset& queries, size_t q_begin,
                                size_t nq, const Dataset& data, size_t r_begin,
                                size_t nr, double* out,
                                size_t out_stride) const {
  BatchTile<true>(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::AngularCosine(row, q);
      },
      kernels::DotLanes, kernels::SparseDotLanes,
      /*sparse_union_walk=*/false,
      // Same postprocess as kernels::AngularCosine, with the lane-computed
      // dot products: identical zero-norm conventions, product, clamp, acos.
      [](double* vals, const kernels::VecView* qv, const kernels::VecView& row,
         size_t qn) {
        double na = row.norm;
        for (size_t lane = 0; lane < qn; ++lane) {
          double nb = qv[lane].norm;
          if (na == 0.0 && nb == 0.0) {
            vals[lane] = 0.0;
          } else if (na == 0.0 || nb == 0.0) {
            vals[lane] = M_PI / 2.0;
          } else {
            double c = vals[lane] / (na * nb);
            c = c < -1.0 ? -1.0 : (c > 1.0 ? 1.0 : c);
            vals[lane] = std::acos(c);
          }
        }
      });
}

void CosineMetric::DistanceTileF32(const Dataset& queries, size_t q_begin,
                                   size_t nq, const Dataset& data,
                                   size_t r_begin, size_t nr, float* out,
                                   size_t out_stride) const {
  BatchTileF32(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return static_cast<float>(kernels::AngularCosineFromScreenedDot(
            kernels::DotF32(row, q), row.norm, q.norm));
      },
      kernels::DotLanesF32, kernels::SparseDotLanesF32,
      /*sparse_union_walk=*/false,
      // Same postprocess as the exact tile but from the fp32 dot: exact
      // double norms (so the zero-norm conventions carry no error), double
      // divide/clamp/acos, narrowed at the end. Overflowed dots become NaN
      // (always rescued).
      [](float* vals, const kernels::VecView* qv, const kernels::VecView& row,
         size_t qn) {
        for (size_t lane = 0; lane < qn; ++lane) {
          vals[lane] = static_cast<float>(kernels::AngularCosineFromScreenedDot(
              vals[lane], row.norm, qv[lane].norm));
        }
      });
}

void CosineMetric::DistanceToManyF32(const Point& query, const Dataset& data,
                                     size_t begin,
                                     std::span<float> out) const {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  kernels::VecView q = QueryView(query, data);
  for (size_t i = 0; i < out.size(); ++i) {
    kernels::VecView row = data.row(begin + i);
    out[i] = static_cast<float>(kernels::AngularCosineFromScreenedDot(
        kernels::DotF32(row, q), row.norm, q.norm));
  }
}

double CosineMetric::DistanceRows(const Dataset& a, size_t i,
                                  const Dataset& b, size_t j) const {
  return kernels::AngularCosine(a.row(i), b.row(j));
}

size_t CosineMetric::ScreenedRelaxTile(const Dataset& queries, size_t q_begin,
                                       size_t nq, size_t rank_base,
                                       const Dataset& data, size_t r_begin,
                                       size_t nr, const ScreenBound& bound,
                                       std::span<double> dist,
                                       std::span<size_t> assignment) const {
  bool all_dense = queries.sparse_stats().rows == 0 &&
                   data.sparse_stats().rows == 0 && data.dim() > 0;
  if (all_dense) {
    // Dense tiles keep the angular screen (identical fp32 values and
    // rescue decisions to the unfused tile), fused: the acos polynomial
    // runs in the register-resident loop instead of over a materialized
    // tile.
    return FusedDenseScreenedRelaxTile(
        queries, q_begin, nq, rank_base, data, r_begin, nr, bound, dist,
        assignment, kernels::DotLanesF32,
        [](float* vals, const kernels::VecView* qv,
           const kernels::VecView& row, size_t qn) {
          for (size_t l = 0; l < qn; ++l) {
            vals[l] =
                static_cast<float>(kernels::AngularCosineFromScreenedDot(
                    vals[l], row.norm, qv[l].norm));
          }
        },
        [](float v) { return v; },
        [](float thr) { return thr; },
        [](const kernels::VecView& q, const kernels::VecView& row) {
          return kernels::AngularCosine(q, row);
        });
  }
  if (queries.sparse_stats().rows == queries.size() &&
      data.sparse_stats().rows == data.size() && !data.empty()) {
    // All-sparse: the cosine-space screen over the blocked CSR dot engine.
    return CosineSparseScreenedRelaxTile(queries, q_begin, nq, rank_base,
                                         data, r_begin, nr, dist, assignment);
  }
  // Mixed layouts are gated off by RelaxTileScreeningProfitableFor; keep a
  // correct fallback anyway.
  return Metric::ScreenedRelaxTile(queries, q_begin, nq, rank_base, data,
                                   r_begin, nr, bound, dist, assignment);
}

bool CosineMetric::RelaxTileScreeningProfitableFor(const Dataset& queries,
                                                   const Dataset& data) const {
  bool all_dense = queries.sparse_stats().rows == 0 &&
                   data.sparse_stats().rows == 0;
  bool all_sparse = queries.sparse_stats().rows == queries.size() &&
                    data.sparse_stats().rows == data.size() &&
                    !queries.empty() && !data.empty();
  return all_dense || all_sparse;
}

ScreenBound CosineMetric::ScreenErrorBound(const Dataset& queries,
                                           const Dataset& data) const {
  ScreenSideStats q = SideStatsOf(queries);
  ScreenSideStats r = SideStatsOf(data);
  return CosineBound(MaxPairTerms(q, r, data.dim()), q.min_positive_norm,
                     r.min_positive_norm);
}

ScreenBound CosineMetric::ScreenErrorBound(const Point& query,
                                           const Dataset& data) const {
  ScreenSideStats q = SideStatsOf(query);
  ScreenSideStats r = SideStatsOf(data);
  return CosineBound(MaxPairTerms(q, r, data.dim()), q.min_positive_norm,
                     r.min_positive_norm);
}

bool CosineMetric::ScreeningProfitableFor(const Dataset& queries,
                                          const Dataset& data) const {
  // Dense-only: the sparse angular tile spends its time finding index
  // intersections, which fp32 cannot cheapen, and angular rescues pay full
  // per-pair merges — measured a net loss on text corpora.
  return queries.sparse_stats().rows == 0 && data.sparse_stats().rows == 0;
}

bool CosineMetric::ScreeningProfitableFor(const Point& query,
                                          const Dataset& data) const {
  return !query.is_sparse() && data.sparse_stats().rows == 0;
}

ScreenBound CosineMetric::IndexSlack(const Dataset& data) const {
  // The distance here is the ANGULAR cosine — a genuine metric, so the
  // triangle inequality holds in angle space and that is where the tree
  // prunes; the slack is the angular lift of the double dot's cosine band.
  ScreenSideStats s = SideStatsOf(data);
  return CosineIndexSlack(MaxPairTerms(s, s, data.dim()),
                          s.min_positive_norm);
}

double JaccardMetric::Distance(const Point& a, const Point& b) const {
  return a.SupportJaccardDistanceTo(b);
}

void JaccardMetric::DistanceToMany(const Point& query, const Dataset& data,
                                   size_t begin, std::span<double> out) const {
  kernels::VecView q = QueryView(query, data);
  BatchMap(data, begin, out, [&q](const kernels::VecView& row) {
    return kernels::SupportJaccard(row, q);
  });
}

size_t JaccardMetric::RelaxAndArgFarthest(const Point& query,
                                          const Dataset& data,
                                          std::span<double> dist,
                                          std::span<size_t> assignment,
                                          size_t center_rank) const {
  kernels::VecView q = QueryView(query, data);
  return BatchRelaxArgFarthest(data, dist, assignment, center_rank,
                               [&q](const kernels::VecView& row) {
                                 return kernels::SupportJaccard(row, q);
                               });
}

void JaccardMetric::DistanceTile(const Dataset& queries, size_t q_begin,
                                 size_t nq, const Dataset& data,
                                 size_t r_begin, size_t nr, double* out,
                                 size_t out_stride) const {
  // No dense lane kernel: support counting over dense rows is integer-exact
  // in any order and the devirtualized per-pair loop is already the win.
  // Sparse blocks, however, go through the decoded presence-bitmask walk —
  // intersections are counted once per block instead of re-merging both
  // index lists for every pair.
  BatchTile<false>(
      queries, q_begin, nq, data, r_begin, nr, out, out_stride,
      [](const kernels::VecView& q, const kernels::VecView& row) {
        return kernels::SupportJaccard(row, q);
      },
      [](const float*, const float*, size_t, double*) {},
      kernels::SparseJaccardLanes, /*sparse_union_walk=*/false,
      [](double*, const kernels::VecView*, const kernels::VecView&, size_t) {
      });
}

double JaccardMetric::DistanceRows(const Dataset& a, size_t i,
                                   const Dataset& b, size_t j) const {
  return kernels::SupportJaccard(a.row(i), b.row(j));
}

ScreenBound JaccardMetric::IndexSlack(const Dataset&) const {
  // Support Jaccard is a ratio of exact integer counts: one double divide
  // and one subtract round, so a couple of ulps relative plus an underflow
  // floor covers it with the usual >=2x margin.
  return ScreenBound{8.0 * kDblEps, 1e-30};
}

uint64_t SparseQueryDecodeCount() {
  return g_sparse_decode_count.load(std::memory_order_relaxed);
}

uint64_t SparseQueryDecodeHits() {
  return g_sparse_decode_hits.load(std::memory_order_relaxed);
}

void ResetSparseQueryDecodeStats() {
  g_sparse_decode_count.store(0, std::memory_order_relaxed);
  g_sparse_decode_hits.store(0, std::memory_order_relaxed);
}

std::unique_ptr<Metric> MakeMetricByName(const std::string& name) {
  if (name == "euclidean") return std::make_unique<EuclideanMetric>();
  if (name == "manhattan") return std::make_unique<ManhattanMetric>();
  if (name == "cosine") return std::make_unique<CosineMetric>();
  if (name == "jaccard") return std::make_unique<JaccardMetric>();
  return nullptr;
}

}  // namespace diverse
