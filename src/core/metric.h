// Distance metrics.
//
// All algorithms in this library are metric-oblivious: they depend only on a
// `Metric` that returns pairwise distances satisfying the metric axioms. The
// paper evaluates on Euclidean distance (synthetic R^2/R^3 data) and the
// cosine distance arccos(u.v / (|u||v|)) (musiXmatch); the Jaccard distance is
// called out as a practically important case, and L1 is included because the
// (1+eps)-approximation results of [Fekete-Meijer 04] concern rectilinear
// spaces. All four are genuine metrics (the cosine distance here is the
// *angular* distance, which satisfies the triangle inequality).

#ifndef DIVERSE_CORE_METRIC_H_
#define DIVERSE_CORE_METRIC_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "core/point.h"

namespace diverse {

class Dataset;

/// Certified error bound of an fp32 screening kernel: for every finite
/// screened value s approximating an exact distance d,
///   |s - d| <= rel * s + abs.
/// Non-finite screened values (fp32 overflow) certify nothing — the helpers
/// below map them to unbounded intervals so they are always rescued. Bounds
/// are derived from worst-case float-accumulation analysis over the term
/// counts and norms of the datasets involved (derivations in the README);
/// they are deliberately conservative — an over-wide band costs extra exact
/// re-evaluations, never a wrong result.
struct ScreenBound {
  double rel = 0.0;
  double abs = 0.0;
};

/// Smallest exact distance compatible with screened value `s` under `b`
/// (-inf when s is not finite). `exact > t` is certified iff
/// ScreenedLower(s, b) > t.
inline double ScreenedLower(float s, const ScreenBound& b) {
  double d = s;
  if (!std::isfinite(d)) return -std::numeric_limits<double>::infinity();
  return d - (b.rel * d + b.abs);
}

/// Largest exact distance compatible with screened value `s` under `b`
/// (+inf when s is not finite). `exact < t` is certified iff
/// ScreenedUpper(s, b) < t.
inline double ScreenedUpper(float s, const ScreenBound& b) {
  double d = s;
  if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
  return d + (b.rel * d + b.abs);
}

/// Interface for a distance function over `Point`s.
///
/// Implementations must satisfy the metric axioms: nonnegativity,
/// d(x,x) = 0, symmetry, and the triangle inequality (property-tested in
/// tests/metric_test.cc).
///
/// Besides the scalar `Distance`, metrics expose *batched* kernels over
/// columnar `Dataset` storage (core/dataset.h). The batch-kernel contract:
///   * out[i] == Distance(query, data.point(begin + i)) bit-for-bit — the
///     batch path runs the same shared kernels (core/vector_kernels.h) in
///     the same order as the scalar path;
///   * exactly as many distance evaluations are performed as the signature
///     implies (out.size(), resp. data.size()) — CountingMetric relies on
///     this to keep work accounting machine-independent;
///   * results are deterministic at any thread count: rows are partitioned
///     into ranges that depend only on the input size, and reductions
///     combine ranges in ascending order.
/// The concrete metrics below override the batch kernels with devirtualized
/// loops over the columnar rows, parallelized on GlobalThreadPool() for
/// large sweeps; the base-class implementations are scalar fallbacks so
/// user-defined metrics stay correct without overriding anything.
class Metric {
 public:
  virtual ~Metric() = default;

  /// Distance between two points. Must be thread-safe.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// Batched kernel: out[i] = Distance(query, data.point(begin + i)) for
  /// i in [0, out.size()). Requires begin + out.size() <= data.size().
  virtual void DistanceToMany(const Point& query, const Dataset& data,
                              size_t begin, std::span<double> out) const;

  /// Fused one-vs-rest relax-and-argmax — one GMM / k-center step in a
  /// single sweep. For every row i:
  ///   d = Distance(query, data.point(i));
  ///   if (d < dist[i]) { dist[i] = d; if assignment given:
  ///                      assignment[i] = center_rank; }
  /// Returns the smallest index maximizing the post-update dist[] (the
  /// farthest point from the center set dist[] summarizes). Requires
  /// dist.size() == data.size(), and assignment empty or the same size.
  virtual size_t RelaxAndArgFarthest(const Point& query, const Dataset& data,
                                     std::span<double> dist,
                                     std::span<size_t> assignment = {},
                                     size_t center_rank = 0) const;

  /// Blocked many-vs-many kernel: a Q x R tile of distances,
  ///   out[q * out_stride + r] =
  ///       Distance(queries.point(q_begin + q), data.point(r_begin + r))
  /// for q in [0, nq), r in [0, nr). Requires q_begin + nq <= queries.size(),
  /// r_begin + nr <= data.size(), and out_stride >= nr (out_stride lets
  /// callers write tiles directly into a larger row-major matrix).
  ///
  /// The concrete metrics compute dense x dense blocks with the multi-query
  /// lane kernels of core/vector_kernels.h and sparse x sparse blocks with
  /// the blocked CSR intersection kernels of core/sparse_kernels.h (each
  /// sparse query block is decoded once and every CSR row streamed a single
  /// time against all lanes) — both bit-identical to the scalar kernels.
  /// Mixed dense/sparse pairs run the exact per-pair scalar merge, as do
  /// sparse blocks whose layout the strategy picker deems unprofitable
  /// (the choice reads only the block and the Dataset's nnz statistics, so
  /// it never changes results or determinism). Evaluation count is exactly
  /// nq * nr. The tile is computed on the calling thread: callers that want
  /// parallelism partition their work into tiles across the thread pool
  /// (see RelaxTilesAndArgFarthest / DistanceMatrix), which keeps nested
  /// kernel calls deadlock-free and results independent of thread count.
  virtual void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                            const Dataset& data, size_t r_begin, size_t nr,
                            double* out, size_t out_stride) const;

  /// fp32 screening tile: same geometry as DistanceTile but float outputs,
  /// each approximating the exact distance within the bound returned by
  /// ScreenErrorBound(queries, data). Computed on the calling thread. The
  /// base implementation runs the exact DistanceTile and narrows to float
  /// (bound: one fp32 rounding); the concrete metrics whose
  /// ScreeningProfitable() is true override it with true fp32-accumulation
  /// kernels (16 dense lanes, fp32 sparse union/intersection walks).
  /// Overriding this without overriding ScreenErrorBound to match is a
  /// correctness bug — the screened sweeps certify skips against the bound.
  virtual void DistanceTileF32(const Dataset& queries, size_t q_begin,
                               size_t nq, const Dataset& data, size_t r_begin,
                               size_t nr, float* out,
                               size_t out_stride) const;

  /// fp32 screening sweep: out[i] approximates
  /// Distance(query, data.point(begin + i)) within
  /// ScreenErrorBound(query, data). Unlike DistanceToMany this is computed
  /// on the calling thread — screened sweeps partition work themselves.
  virtual void DistanceToManyF32(const Point& query, const Dataset& data,
                                 size_t begin, std::span<float> out) const;

  /// Exact distance between two columnar rows — the rescue path of the
  /// screened sweeps. Bit-identical to Distance(a.point(i), b.point(j)):
  /// the concrete metrics run the same shared kernels on the columnar row
  /// views, and every kernel is symmetric in its operands bit for bit.
  virtual double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                              size_t j) const;

  /// Batched rescue: out[t] = DistanceRows(a, i, b, rows[t]) for every
  /// listed row, in one call — the screened sweeps gather a tile's rescued
  /// rows and pay one virtual dispatch (and, for Euclidean, one batched
  /// SQRTPD pass) instead of one per rescue. Computed on the calling
  /// thread.
  virtual void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                                std::span<const uint32_t> rows,
                                double* out) const;

  /// Fused screen + relax + rescue over a row range — the screened tile
  /// sweep without the intermediate fp32 tile. Produces EXACTLY the relax
  /// fold of RelaxTilesAndArgFarthest over centers [q_begin, q_begin + nq)
  /// and rows [r_begin, r_begin + nr): final dist[r] is the exact minimum
  /// over the incoming value and all center distances, assignment[r] the
  /// rank_base-relative rank of the FIRST center achieving it (strict-min
  /// semantics, exact ties to the lowest rank) — bit-identical to the
  /// exact tile path. The fp32 screen and the certified skip tests (per-
  /// row thresholds derived from dist[r] and `bound`; see core/screen.h)
  /// only decide WHICH pairs pay an exact evaluation. Returns that number
  /// of exact evaluations, which CountingMetric adds to its exact counter.
  /// Implementations may certify skips more aggressively than the base
  /// loop — the count is deterministic (a function of fp32 values and the
  /// bound alone) and never exceeds nq * nr, but it is NOT promised equal
  /// across implementations: the fused overrides typically rescue fewer
  /// pairs than the base loop (tested fused <= unfused in screen_test).
  /// dist/assignment span the whole dataset (absolute row indexing);
  /// computed on the calling thread (screened sweeps partition rows
  /// themselves). Requires bound.rel < 1 and bound == the value
  /// ScreenErrorBound(queries, data) returned; callers gate on
  /// RelaxTileScreeningProfitableFor first.
  ///
  /// The base implementation materializes thread-local fp32 tiles through
  /// DistanceTileF32 and batches rescues through DistanceRowsMany — correct
  /// for any metric. The concrete dense metrics override it with a
  /// register-resident fused loop (one 16-lane fp32 kernel call and one
  /// packed threshold compare per row, band hits resolved by a certified
  /// per-row argmin screen), and CosineMetric additionally screens sparse
  /// blocks in cosine space (per-row cos thresholds — no acos on the skip
  /// path).
  virtual size_t ScreenedRelaxTile(const Dataset& queries, size_t q_begin,
                                   size_t nq, size_t rank_base,
                                   const Dataset& data, size_t r_begin,
                                   size_t nr, const ScreenBound& bound,
                                   std::span<double> dist,
                                   std::span<size_t> assignment) const;

  /// Fused single-query screen + relax + rescue + argmax over data rows
  /// [begin, begin + dist.size()) — the one-center counterpart of
  /// ScreenedRelaxTile, and the body of every GMM step (ScreenedRelaxSweep
  /// in core/screen.h). All spans are RANGE-relative: entry t belongs to
  /// row begin + t. For every row, with d = DistanceRows(queries, q_index,
  /// data, row):
  ///   if (d < dist[t]) { dist[t] = d; assignment[t] = center_rank; }
  /// bit for bit, but d is only evaluated for rows whose fp32 screen value
  /// cannot certify d > dist[t] under `bound`. *farthest receives the
  /// offset t of the first maximum of the updated dist. Returns the number
  /// of exact evaluations paid, which CountingMetric adds to its exact
  /// counter (it counts dist.size() screened evaluations).
  ///
  /// `cutoff` holds one float per row: the row's certain-skip cutoff in
  /// the implementation's screen space, a pure function of dist[t] and
  /// `bound`. Callers that run many steps keep it across calls so the
  /// skip path never recomputes it; a NaN entry means "not cached yet" and
  /// is derived from dist[t] on first touch. It must be dropped (or reset
  /// to NaN) whenever dist changes outside this kernel or `bound` changes.
  /// Requires bound.rel < 1 and bound == ScreenErrorBound(queries, data).
  /// Computed on the calling thread.
  ///
  /// The base implementation is the unfused chunk loop for any metric: an
  /// fp32 buffer through DistanceToManyF32 (query queries.point(q_index)),
  /// per-row distance-space thresholds, CollectScreenRescues, and batched
  /// DistanceRowsMany; it ignores `cutoff`. Euclidean and L1 override it
  /// for all-dense layouts with one register-resident pass per row over
  /// the contiguous dense pool: the fp32 value in the exact summation
  /// order of their DistanceToManyF32 kernels (squared, for Euclidean),
  /// one compare against the cached cutoff (SQUARED for Euclidean, so no
  /// sqrt runs on the skip path), an inline exact rescue, and the argmax
  /// fold. The squared compare can only rescue more rows than a compare
  /// after sqrtf, never fewer.
  virtual size_t ScreenedRelaxRows(const Dataset& queries, size_t q_index,
                                   size_t center_rank, const Dataset& data,
                                   size_t begin, const ScreenBound& bound,
                                   std::span<double> dist,
                                   std::span<size_t> assignment,
                                   std::span<float> cutoff,
                                   size_t* farthest) const;

  /// Certified |screened - exact| bound valid for every (query row, data
  /// row) pair of DistanceTileF32 over these datasets. Reads only dataset
  /// statistics (dim, nnz maxima, norm extrema), so the bound — and hence
  /// every rescue decision — is deterministic.
  virtual ScreenBound ScreenErrorBound(const Dataset& queries,
                                       const Dataset& data) const;

  /// Same bound for a single-point query (DistanceToManyF32).
  virtual ScreenBound ScreenErrorBound(const Point& query,
                                       const Dataset& data) const;

  /// True when the fp32 kernels above are real reduced-precision
  /// implementations that make a screening pass cheaper than the exact
  /// sweep. The base class returns false (its default F32 kernels do full
  /// exact work and then narrow), as does Jaccard (integer-exact support
  /// counting is already the cheap path, and its discrete value set makes
  /// screened ties — which always rescue — common). The screened sweeps of
  /// core/screen.h fall back to the exact path when this is false.
  virtual bool ScreeningProfitable() const { return false; }

  /// Layout-aware refinement of ScreeningProfitable for a concrete sweep —
  /// the gate the screened sweeps actually consult. Reads only dataset
  /// statistics, so the decision (like every rescue decision) is
  /// deterministic and thread-count independent; either verdict yields
  /// bit-identical results, the gate only moves cost. The base forwards to
  /// ScreeningProfitable(); CosineMetric narrows it to dense-only layouts
  /// (the sparse angular tile is intersection-walk bound — index probing,
  /// not arithmetic — so halving the accumulator width gains little while
  /// rescues pay full per-pair merges).
  virtual bool ScreeningProfitableFor(const Dataset& queries,
                                      const Dataset& data) const;
  virtual bool ScreeningProfitableFor(const Point& query,
                                      const Dataset& data) const;

  /// Gate for the fused screened tile relax (ScreenedRelaxTile). Defaults
  /// to ScreeningProfitableFor(queries, data); CosineMetric widens it to
  /// all-sparse layouts, which its fused kernel screens in cosine space —
  /// profitable where the unfused angular tile (an acos per pair even on
  /// the skip path) measured a net loss. Reads only dataset statistics.
  virtual bool RelaxTileScreeningProfitableFor(const Dataset& queries,
                                               const Dataset& data) const;

  /// True when Distance is a genuine metric whose triangle inequality the
  /// metric index (core/cover_tree.h) may prune with, and IndexSlack()
  /// below returns a certified rounding band for the exact kernels. The
  /// base class returns false: user-defined "distances" (dot-product
  /// similarity and friends) need not satisfy the triangle inequality at
  /// all, so indexing stays gated off unless a metric opts in. All four
  /// built-in metrics opt in — the cosine distance here is the *angular*
  /// distance, a genuine metric, so its node bounds prune in angular space.
  virtual bool SupportsMetricIndexing() const { return false; }

  /// Certified rounding slack of the *exact double* kernels: for every row
  /// pair, |computed - true| <= rel * computed + abs. The metric index
  /// chains three computed distances through the triangle inequality
  /// (center-to-center, node radius, and the bounded pair), so it inflates
  /// each bound by a 4x multiple of this band before pruning — a prune is
  /// then sound even though the chained values are computed doubles, not
  /// true reals (derivation in the README). Reads only dataset statistics,
  /// so every prune decision is deterministic. The base returns an
  /// unbounded band (abs = +inf): every prune test fails — sound, and
  /// consistent with SupportsMetricIndexing() == false.
  virtual ScreenBound IndexSlack(const Dataset& data) const;

  /// Human-readable metric name, e.g. "euclidean".
  virtual std::string Name() const = 0;
};

/// Fused multi-center relax-and-argmax over blocked tiles: exactly
/// equivalent to calling
///   metric.RelaxAndArgFarthest(queries.point(q_begin + q), data, dist,
///                              assignment, rank_base + q)
/// once per q in ascending order and keeping the last return value, but
/// executed as one blocked pass over `data` (each row block is loaded once
/// for all nq centers instead of once per center). Parallelized over row
/// ranges on GlobalThreadPool(); range boundaries and the first-max argmax
/// combination depend only on the input sizes, so results are deterministic
/// at any thread count. Costs exactly nq * data.size() evaluations through
/// metric.DistanceTile. Requires nq >= 1 and dist.size() == data.size().
size_t RelaxTilesAndArgFarthest(const Metric& metric, const Dataset& queries,
                                size_t q_begin, size_t nq, size_t rank_base,
                                const Dataset& data, std::span<double> dist,
                                std::span<size_t> assignment = {});

/// Standard Euclidean (L2) distance.
class EuclideanMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override;
  size_t RelaxAndArgFarthest(const Point& query, const Dataset& data,
                             std::span<double> dist,
                             std::span<size_t> assignment = {},
                             size_t center_rank = 0) const override;
  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override;
  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override;
  void DistanceToManyF32(const Point& query, const Dataset& data,
                         size_t begin, std::span<float> out) const override;
  double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                      size_t j) const override;
  void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                        std::span<const uint32_t> rows,
                        double* out) const override;
  size_t ScreenedRelaxTile(const Dataset& queries, size_t q_begin, size_t nq,
                           size_t rank_base, const Dataset& data,
                           size_t r_begin, size_t nr, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment) const override;
  size_t ScreenedRelaxRows(const Dataset& queries, size_t q_index,
                           size_t center_rank, const Dataset& data,
                           size_t begin, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment,
                           std::span<float> cutoff,
                           size_t* farthest) const override;
  ScreenBound ScreenErrorBound(const Dataset& queries,
                               const Dataset& data) const override;
  ScreenBound ScreenErrorBound(const Point& query,
                               const Dataset& data) const override;
  bool ScreeningProfitable() const override { return true; }
  bool SupportsMetricIndexing() const override { return true; }
  ScreenBound IndexSlack(const Dataset& data) const override;
  std::string Name() const override { return "euclidean"; }
};

/// Rectilinear (L1 / Manhattan) distance.
class ManhattanMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override;
  size_t RelaxAndArgFarthest(const Point& query, const Dataset& data,
                             std::span<double> dist,
                             std::span<size_t> assignment = {},
                             size_t center_rank = 0) const override;
  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override;
  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override;
  void DistanceToManyF32(const Point& query, const Dataset& data,
                         size_t begin, std::span<float> out) const override;
  double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                      size_t j) const override;
  size_t ScreenedRelaxTile(const Dataset& queries, size_t q_begin, size_t nq,
                           size_t rank_base, const Dataset& data,
                           size_t r_begin, size_t nr, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment) const override;
  size_t ScreenedRelaxRows(const Dataset& queries, size_t q_index,
                           size_t center_rank, const Dataset& data,
                           size_t begin, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment,
                           std::span<float> cutoff,
                           size_t* farthest) const override;
  ScreenBound ScreenErrorBound(const Dataset& queries,
                               const Dataset& data) const override;
  ScreenBound ScreenErrorBound(const Point& query,
                               const Dataset& data) const override;
  bool ScreeningProfitable() const override { return true; }
  bool SupportsMetricIndexing() const override { return true; }
  ScreenBound IndexSlack(const Dataset& data) const override;
  std::string Name() const override { return "manhattan"; }
};

/// Angular cosine distance arccos(u.v / (|u||v|)) in radians, exactly the
/// `dist` function of the paper's Section 7. Zero vectors are at distance 0
/// from each other and pi/2 from any nonzero vector (the convention that
/// keeps the function a metric on the datasets we generate, which exclude
/// zero vectors anyway). Single-query sweeps (DistanceToMany,
/// RelaxAndArgFarthest) with a sparse query scatter it once into a
/// per-thread dense table and gather each sparse row against it, bit for
/// bit equal to the per-pair index merge.
class CosineMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override;
  size_t RelaxAndArgFarthest(const Point& query, const Dataset& data,
                             std::span<double> dist,
                             std::span<size_t> assignment = {},
                             size_t center_rank = 0) const override;
  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override;
  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override;
  void DistanceToManyF32(const Point& query, const Dataset& data,
                         size_t begin, std::span<float> out) const override;
  double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                      size_t j) const override;
  size_t ScreenedRelaxTile(const Dataset& queries, size_t q_begin, size_t nq,
                           size_t rank_base, const Dataset& data,
                           size_t r_begin, size_t nr, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment) const override;
  ScreenBound ScreenErrorBound(const Dataset& queries,
                               const Dataset& data) const override;
  ScreenBound ScreenErrorBound(const Point& query,
                               const Dataset& data) const override;
  bool ScreeningProfitable() const override { return true; }
  bool ScreeningProfitableFor(const Dataset& queries,
                              const Dataset& data) const override;
  bool ScreeningProfitableFor(const Point& query,
                              const Dataset& data) const override;
  /// Dense tiles screen in angular space (fused); all-sparse tiles screen
  /// in cosine space through the blocked CSR dot engine — the skip path
  /// pays one multiply-compare per pair instead of an arccos.
  bool RelaxTileScreeningProfitableFor(const Dataset& queries,
                                       const Dataset& data) const override;
  bool SupportsMetricIndexing() const override { return true; }
  ScreenBound IndexSlack(const Dataset& data) const override;
  std::string Name() const override { return "cosine"; }
};

/// Jaccard distance between coordinate supports (the "dissimilarity distance
/// in database queries" of the paper's introduction).
class JaccardMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override;
  size_t RelaxAndArgFarthest(const Point& query, const Dataset& data,
                             std::span<double> dist,
                             std::span<size_t> assignment = {},
                             size_t center_rank = 0) const override;
  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override;
  // Keeps the base-class fp32 kernels (exact work + narrow) and the
  // ScreeningProfitable() = false default: support counting is
  // integer-exact, so there is no cheaper reduced-precision form, and the
  // discrete value set would make screened ties (always rescued) common.
  double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                      size_t j) const override;
  bool SupportsMetricIndexing() const override { return true; }
  ScreenBound IndexSlack(const Dataset& data) const override;
  std::string Name() const override { return "jaccard"; }
};

/// Decorator that counts distance evaluations. The count is the standard
/// machine-independent cost measure for diversity/clustering algorithms and
/// is used by tests (complexity assertions) and benches (work accounting).
/// Batched kernels count the exact number of evaluations they perform
/// (out.size() / data.size() per the batch-kernel contract), so the counter
/// agrees with the scalar path for identical work regardless of batching or
/// thread count. Screened (fp32) and exact (double) evaluations are
/// accounted separately: the exact count of a screened sweep is its rescue
/// work and never exceeds the count the pre-screening path would have paid
/// for the same sweep.
class CountingMetric final : public Metric {
 public:
  /// Wraps `base`, which must outlive this object.
  explicit CountingMetric(const Metric* base) : base_(base) {}

  double Distance(const Point& a, const Point& b) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return base_->Distance(a, b);
  }

  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override {
    count_.fetch_add(out.size(), std::memory_order_relaxed);
    base_->DistanceToMany(query, data, begin, out);
  }

  size_t RelaxAndArgFarthest(const Point& query, const Dataset& data,
                             std::span<double> dist,
                             std::span<size_t> assignment = {},
                             size_t center_rank = 0) const override {
    count_.fetch_add(dist.size(), std::memory_order_relaxed);
    return base_->RelaxAndArgFarthest(query, data, dist, assignment,
                                      center_rank);
  }

  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override {
    count_.fetch_add(nq * nr, std::memory_order_relaxed);
    base_->DistanceTile(queries, q_begin, nq, data, r_begin, nr, out,
                        out_stride);
  }

  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override {
    screened_.fetch_add(nq * nr, std::memory_order_relaxed);
    base_->DistanceTileF32(queries, q_begin, nq, data, r_begin, nr, out,
                           out_stride);
  }

  void DistanceToManyF32(const Point& query, const Dataset& data,
                         size_t begin, std::span<float> out) const override {
    screened_.fetch_add(out.size(), std::memory_order_relaxed);
    base_->DistanceToManyF32(query, data, begin, out);
  }

  double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                      size_t j) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return base_->DistanceRows(a, i, b, j);
  }

  void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                        std::span<const uint32_t> rows,
                        double* out) const override {
    count_.fetch_add(rows.size(), std::memory_order_relaxed);
    base_->DistanceRowsMany(a, i, b, rows, out);
  }

  size_t ScreenedRelaxTile(const Dataset& queries, size_t q_begin, size_t nq,
                           size_t rank_base, const Dataset& data,
                           size_t r_begin, size_t nr, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment) const override {
    // Every pair is screened in fp32; the fused kernel reports its exact
    // rescue evaluations in the return value (its internal exact calls run
    // devirtualized on base_, so this is the only accounting point).
    screened_.fetch_add(nq * nr, std::memory_order_relaxed);
    size_t rescued = base_->ScreenedRelaxTile(queries, q_begin, nq, rank_base,
                                              data, r_begin, nr, bound, dist,
                                              assignment);
    count_.fetch_add(rescued, std::memory_order_relaxed);
    return rescued;
  }

  size_t ScreenedRelaxRows(const Dataset& queries, size_t q_index,
                           size_t center_rank, const Dataset& data,
                           size_t begin, const ScreenBound& bound,
                           std::span<double> dist,
                           std::span<size_t> assignment,
                           std::span<float> cutoff,
                           size_t* farthest) const override {
    // Same accounting as ScreenedRelaxTile: every row screened once, the
    // rescues reported by the kernel's return value.
    screened_.fetch_add(dist.size(), std::memory_order_relaxed);
    size_t rescued = base_->ScreenedRelaxRows(queries, q_index, center_rank,
                                              data, begin, bound, dist,
                                              assignment, cutoff, farthest);
    count_.fetch_add(rescued, std::memory_order_relaxed);
    return rescued;
  }

  ScreenBound ScreenErrorBound(const Dataset& queries,
                               const Dataset& data) const override {
    return base_->ScreenErrorBound(queries, data);
  }

  ScreenBound ScreenErrorBound(const Point& query,
                               const Dataset& data) const override {
    return base_->ScreenErrorBound(query, data);
  }

  bool ScreeningProfitable() const override {
    return base_->ScreeningProfitable();
  }

  bool ScreeningProfitableFor(const Dataset& queries,
                              const Dataset& data) const override {
    return base_->ScreeningProfitableFor(queries, data);
  }

  bool ScreeningProfitableFor(const Point& query,
                              const Dataset& data) const override {
    return base_->ScreeningProfitableFor(query, data);
  }

  bool RelaxTileScreeningProfitableFor(const Dataset& queries,
                                       const Dataset& data) const override {
    return base_->RelaxTileScreeningProfitableFor(queries, data);
  }

  bool SupportsMetricIndexing() const override {
    return base_->SupportsMetricIndexing();
  }

  ScreenBound IndexSlack(const Dataset& data) const override {
    return base_->IndexSlack(data);
  }

  std::string Name() const override { return "counting(" + base_->Name() + ")"; }

  /// Number of exact distance evaluations since construction or the last
  /// Reset(). (Kept as `count` for the pre-screening callers.)
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Exact (double) evaluations — alias of count().
  uint64_t exact_evals() const { return count(); }

  /// Screened (fp32) evaluations through the F32 kernels.
  uint64_t screened_evals() const {
    return screened_.load(std::memory_order_relaxed);
  }

  /// Resets both counters to zero.
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    screened_.store(0, std::memory_order_relaxed);
  }

 private:
  const Metric* base_;
  mutable std::atomic<uint64_t> count_{0};
  mutable std::atomic<uint64_t> screened_{0};
};

/// Constructs a built-in metric by its Name(): "euclidean", "manhattan",
/// "cosine" or "jaccard". Returns null for any other name. This is the
/// factory the CLI and the distributed workers resolve --metric / wire
/// metric names through; user-defined Metric subclasses have no portable
/// name, which is why the socket transport accepts only these four.
std::unique_ptr<Metric> MakeMetricByName(const std::string& name);

/// Sparse query-block decode-cache instrumentation (the CountingMetric-style
/// proof of reuse asked of the cache): the blocked sparse engines decode
/// each query block's CSR lanes into per-thread scratch
/// (kernels::PackSparseQueryLanes) before streaming data rows. The decode is
/// now cached per thread, keyed on (Dataset::content_stamp, absolute block
/// rows, lane count, direct-index dim), so a block re-swept by the same
/// thread — consecutive row ranges of one tiled sweep, or one center
/// applied to many cover-tree leaf slabs — skips the re-decode. Counters
/// are process-global, relaxed, and test-only.
uint64_t SparseQueryDecodeCount();  ///< decodes performed (cache misses)
uint64_t SparseQueryDecodeHits();   ///< decodes skipped by the cache
void ResetSparseQueryDecodeStats();

}  // namespace diverse

#endif  // DIVERSE_CORE_METRIC_H_
