// Equivalence, accounting, and determinism tests for the batched distance
// kernels (Metric::DistanceToMany / RelaxAndArgFarthest over Dataset):
//   * batched results match the scalar Metric::Distance reference within
//     1e-12 for all four metrics on dense, sparse, and mixed datasets;
//   * CountingMetric adds exactly the number of evaluations a batched
//     kernel performs;
//   * batched parallel GMM selects the identical index sequence as the
//     scalar reference, at any thread count;
//   * TrySolve() on one reused Dataset gives the results of a fresh copy of
//     the points on the sequential, streaming, and MapReduce backends;
//   * the single-query sparse cosine gather (scattered query, gathered
//     rows) is bit-identical to the per-pair index merge.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/dataset.h"
#include "core/gmm.h"
#include "core/metric.h"
#include "core/screen.h"
#include "core/sequential.h"
#include "core/vector_kernels.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "solve_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

PointSet DensePoints(size_t n, size_t dim, uint64_t seed) {
  return GenerateUniformCube(n, dim, seed);
}

PointSet SparsePoints(size_t n, uint64_t seed) {
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = 200;
  opts.seed = seed;
  return GenerateSparseTextDataset(opts);
}

PointSet MixedPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      std::vector<float> values(dim);
      for (float& v : values) v = static_cast<float>(rng.NextDouble());
      pts.push_back(Point::Dense(std::move(values)));
    } else {
      std::vector<uint32_t> indices;
      std::vector<float> values;
      for (uint32_t j = 0; j < dim; ++j) {
        if (rng.NextDouble() < 0.4) {
          indices.push_back(j);
          values.push_back(static_cast<float>(rng.NextDouble()));
        }
      }
      pts.push_back(Point::Sparse(std::move(indices), std::move(values),
                                  static_cast<uint32_t>(dim)));
    }
  }
  return pts;
}

std::vector<std::unique_ptr<Metric>> AllMetrics() {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>());
  metrics.push_back(std::make_unique<ManhattanMetric>());
  metrics.push_back(std::make_unique<CosineMetric>());
  metrics.push_back(std::make_unique<JaccardMetric>());
  return metrics;
}

std::vector<PointSet> AllDatasets() {
  std::vector<PointSet> sets;
  sets.push_back(DensePoints(60, 5, /*seed=*/11));
  sets.push_back(SparsePoints(60, /*seed=*/12));
  sets.push_back(MixedPoints(60, 12, /*seed=*/13));
  return sets;
}

TEST(BatchKernelTest, DistanceToManyMatchesScalarAllMetricsAllLayouts) {
  for (const PointSet& pts : AllDatasets()) {
    Dataset data = Dataset::FromPoints(pts);
    for (const auto& metric : AllMetrics()) {
      const Point& q = pts[7];
      std::vector<double> out(pts.size());
      metric->DistanceToMany(q, data, 0, out);
      for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_NEAR(out[i], metric->Distance(pts[i], q), 1e-12)
            << metric->Name() << " row " << i;
      }
    }
  }
}

TEST(BatchKernelTest, DistanceToManySupportsSubranges) {
  PointSet pts = MixedPoints(40, 10, /*seed=*/21);
  Dataset data = Dataset::FromPoints(pts);
  EuclideanMetric metric;
  const Point& q = pts[0];
  std::vector<double> out(17);
  metric.DistanceToMany(q, data, 5, out);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], metric.Distance(pts[5 + i], q), 1e-12);
  }
}

TEST(BatchKernelTest, DistanceToManyAcceptsExternalQuery) {
  PointSet pts = DensePoints(30, 3, /*seed=*/22);
  Dataset data = Dataset::FromPoints(pts);
  CosineMetric metric;
  Point q = Point::Dense3(0.3f, 0.9f, 0.1f);  // not a dataset row
  std::vector<double> out(pts.size());
  metric.DistanceToMany(q, data, 0, out);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(out[i], metric.Distance(pts[i], q), 1e-12);
  }
}

TEST(BatchKernelTest, RelaxAndArgFarthestMatchesManualRelax) {
  for (const PointSet& pts : AllDatasets()) {
    Dataset data = Dataset::FromPoints(pts);
    for (const auto& metric : AllMetrics()) {
      size_t n = pts.size();
      std::vector<double> dist(n, std::numeric_limits<double>::infinity());
      std::vector<size_t> assignment(n, 0);
      std::vector<double> ref_dist = dist;
      std::vector<size_t> ref_assignment = assignment;
      // Two relax rounds against different centers, mirroring GMM steps.
      size_t centers[2] = {3, 19};
      size_t got = 0;
      size_t want = 0;
      for (size_t rank = 0; rank < 2; ++rank) {
        const Point& c = pts[centers[rank]];
        got = metric->RelaxAndArgFarthest(c, data, dist, assignment, rank);
        double best = -std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < n; ++i) {
          double d = metric->Distance(pts[i], c);
          if (d < ref_dist[i]) {
            ref_dist[i] = d;
            ref_assignment[i] = rank;
          }
          if (ref_dist[i] > best) {
            best = ref_dist[i];
            want = i;
          }
        }
      }
      EXPECT_EQ(got, want) << metric->Name();
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(dist[i], ref_dist[i], 1e-12) << metric->Name();
        EXPECT_EQ(assignment[i], ref_assignment[i])
            << metric->Name() << " row " << i;
      }
    }
  }
}

TEST(BatchKernelTest, CountingMetricCountsBatchedEvaluationsExactly) {
  PointSet pts = DensePoints(50, 4, /*seed=*/31);
  Dataset data = Dataset::FromPoints(pts);
  EuclideanMetric base;
  CountingMetric counting(&base);

  std::vector<double> out(30);
  counting.DistanceToMany(pts[0], data, 5, out);
  EXPECT_EQ(counting.count(), 30u);

  counting.Reset();
  std::vector<double> dist(pts.size(),
                           std::numeric_limits<double>::infinity());
  counting.RelaxAndArgFarthest(pts[0], data, dist);
  EXPECT_EQ(counting.count(), pts.size());
}

TEST(BatchKernelTest, CountingMetricGmmCostIsExactlyKTimesN) {
  // dim >= 8: single-query sweeps below that are gated back to the exact
  // path (not enough per-row work to amortize a screen).
  PointSet pts = DensePoints(200, 8, /*seed=*/32);
  Dataset data = Dataset::FromPoints(pts);
  EuclideanMetric base;
  size_t k = 9;
  // Exact path: exactly k * n exact evaluations, nothing screened.
  {
    ScopedScreening off(false);
    CountingMetric counting(&base);
    Gmm(data, counting, k);
    EXPECT_EQ(counting.count(), k * pts.size());
    EXPECT_EQ(counting.screened_evals(), 0u);
  }
  // Screened path: the same k * n sweep positions go through the fp32
  // kernels, and the exact (rescue) count never exceeds the pre-screening
  // baseline. (On this workload most relax positions are certified skips.)
  {
    ScopedScreening on(true);
    CountingMetric counting(&base);
    Gmm(data, counting, k);
    EXPECT_EQ(counting.screened_evals(), k * pts.size());
    EXPECT_LE(counting.exact_evals(), k * pts.size());
    EXPECT_GT(counting.exact_evals(), 0u);
    EXPECT_LT(counting.exact_evals(), counting.screened_evals());
  }
}

TEST(BatchKernelTest, GmmMatchesScalarReferenceAllMetricsAllLayouts) {
  for (const PointSet& pts : AllDatasets()) {
    Dataset data = Dataset::FromPoints(pts);
    for (const auto& metric : AllMetrics()) {
      GmmResult batched = Gmm(data, *metric, 10);
      GmmResult scalar = GmmScalar(pts, *metric, 10);
      EXPECT_EQ(batched.selected, scalar.selected) << metric->Name();
      EXPECT_EQ(batched.assignment, scalar.assignment) << metric->Name();
      EXPECT_EQ(batched.range, scalar.range) << metric->Name();
      ASSERT_EQ(batched.selection_distance.size(),
                scalar.selection_distance.size());
      for (size_t j = 1; j < batched.selection_distance.size(); ++j) {
        EXPECT_NEAR(batched.selection_distance[j],
                    scalar.selection_distance[j], 1e-12);
      }
    }
  }
}

// The acceptance gate of the refactor: the batched parallel GMM must select
// the identical index sequence as the scalar per-pair reference, on an
// input large enough that the sweeps actually split into parallel ranges,
// and identically at 1 and at several worker threads.
TEST(BatchKernelTest, ParallelGmmIndexSequenceIsDeterministic) {
  EuclideanMetric metric;
  PointSet pts = DensePoints(20000, 4, /*seed=*/41);
  Dataset data = Dataset::FromPoints(pts);
  size_t k = 16;

  GmmResult scalar = GmmScalar(pts, metric, k);

  SetGlobalThreadPoolSize(1);
  GmmResult one_thread = Gmm(data, metric, k);
  SetGlobalThreadPoolSize(4);
  GmmResult four_threads = Gmm(data, metric, k);
  SetGlobalThreadPoolSize(7);
  GmmResult seven_threads = Gmm(data, metric, k);

  EXPECT_EQ(one_thread.selected, scalar.selected);
  EXPECT_EQ(four_threads.selected, scalar.selected);
  EXPECT_EQ(seven_threads.selected, scalar.selected);
  EXPECT_EQ(four_threads.assignment, scalar.assignment);
  EXPECT_EQ(four_threads.range, scalar.range);
}

TEST(BatchKernelTest, SolveDatasetOverloadMatchesPointSetAcrossBackends) {
  PointSet pts = DensePoints(400, 3, /*seed=*/51);
  Dataset data = Dataset::FromPoints(pts);
  EuclideanMetric metric;
  for (Backend backend :
       {Backend::kSequential, Backend::kStreaming, Backend::kMapReduce}) {
    for (DiversityProblem problem :
         {DiversityProblem::kRemoteEdge, DiversityProblem::kRemoteClique}) {
      SolveOptions options;
      options.problem = problem;
      options.backend = backend;
      options.k = 6;
      SolveResult from_dataset =
          ValueOrEmpty(TrySolve(data, metric, options));
      SolveResult from_points = SolveOk(pts, metric, options);
      EXPECT_EQ(from_dataset.solution, from_points.solution)
          << BackendName(backend) << "/" << ProblemName(problem);
      EXPECT_EQ(from_dataset.diversity, from_points.diversity);
      EXPECT_EQ(from_dataset.solution.size(), 6u);
    }
  }
}

// --- Single-query sparse cosine gather ----------------------------------

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Random sparse rows with negative values, stored +0/-0 values, an empty row
// (norm 0), a row holding index dim-1, a few dense rows, and one row each
// holding +inf and NaN (non-finite norm: these must take the merge).
PointSet GatherEdgeRows(size_t n, uint32_t dim, bool with_dense,
                        uint64_t seed) {
  Rng rng(seed);
  auto sparse_row = [&](size_t nnz) {
    std::vector<uint32_t> indices;
    for (size_t t = 0; t < nnz; ++t) {
      indices.push_back(static_cast<uint32_t>(rng.NextBounded(dim)));
    }
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
    std::vector<float> values;
    for (size_t t = 0; t < indices.size(); ++t) {
      uint64_t kind = rng.NextBounded(16);
      float v = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
      values.push_back(kind == 0 ? 0.0f : kind == 1 ? -0.0f : v);
    }
    return std::make_pair(std::move(indices), std::move(values));
  };
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    auto [indices, values] = sparse_row(1 + rng.NextBounded(40));
    pts.push_back(Point::Sparse(std::move(indices), std::move(values), dim));
  }
  pts.push_back(Point::Sparse({}, {}, dim));
  pts.push_back(Point::Sparse({0, dim - 1}, {1.5f, -0.5f}, dim));
  pts.push_back(Point::Sparse({dim - 1}, {2.0f}, dim));
  pts.push_back(Point::Sparse({3, 7}, {0.0f, -0.0f}, dim));
  pts.push_back(
      Point::Sparse({1, dim - 1}, {std::numeric_limits<float>::infinity(), 1.0f},
                    dim));
  pts.push_back(
      Point::Sparse({0, 2}, {std::numeric_limits<float>::quiet_NaN(), 1.0f},
                    dim));
  if (with_dense) {
    for (size_t i = 0; i < 5; ++i) {
      std::vector<float> values(dim);
      for (float& v : values) {
        v = rng.NextBounded(8) == 0
                ? static_cast<float>(rng.NextDouble() * 2.0 - 1.0)
                : 0.0f;
      }
      values[dim - 1] = static_cast<float>(i) - 2.0f;
      pts.push_back(Point::Dense(std::move(values)));
    }
  }
  // Interleave the edge rows with the random ones so they land in
  // different parallel ranges.
  Rng shuffle(seed + 1);
  for (size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[shuffle.NextBounded(i)]);
  }
  return pts;
}

// Queries that are not necessarily rows: the zero-norm empty query, a
// stored-zero-only query, one at dim-1 only, and the non-finite ones.
PointSet GatherQueries(const PointSet& pts, uint32_t dim) {
  PointSet queries(pts.begin(), pts.begin() + 24);
  queries.push_back(Point::Sparse({}, {}, dim));
  queries.push_back(Point::Sparse({5}, {0.0f}, dim));
  queries.push_back(Point::Sparse({dim - 1}, {-3.0f}, dim));
  queries.push_back(Point::Sparse({0, 2, 7, dim - 1}, {1.0f, -2.0f, 0.0f, 4.0f},
                                  dim));
  for (const Point& p : pts) {
    if (!std::isfinite(p.norm()) || !p.is_sparse()) queries.push_back(p);
  }
  return queries;
}

// Relaxes `queries` one after another (as GMM steps do) through the
// overriding kernel and through the base per-pair loop, and compares the
// returned farthest row and every dist/assignment bit.
void ExpectRelaxBitIdentical(const CosineMetric& metric, const Dataset& data,
                             const PointSet& queries) {
  size_t n = data.size();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<size_t> assignment(n, 0);
  std::vector<double> ref_dist = dist;
  std::vector<size_t> ref_assignment = assignment;
  for (size_t r = 0; r < queries.size(); ++r) {
    size_t got =
        metric.RelaxAndArgFarthest(queries[r], data, dist, assignment, r);
    size_t want = metric.Metric::RelaxAndArgFarthest(
        queries[r], data, ref_dist, ref_assignment, r);
    EXPECT_EQ(got, want) << "query " << r;
    EXPECT_TRUE(SameBits(dist, ref_dist)) << "query " << r;
    EXPECT_EQ(assignment, ref_assignment) << "query " << r;
  }
}

void ExpectDistanceToManyBitIdentical(const CosineMetric& metric,
                                      const Dataset& data,
                                      const PointSet& queries) {
  size_t n = data.size();
  for (size_t r = 0; r < queries.size(); ++r) {
    std::vector<double> got(n - 3);
    metric.DistanceToMany(queries[r], data, 3, got);
    std::vector<double> want(n - 3);
    for (size_t i = 0; i < want.size(); ++i) {
      want[i] = kernels::AngularCosine(data.row(3 + i), queries[r].View());
    }
    EXPECT_TRUE(SameBits(got, want)) << "query " << r;
  }
}

void ExpectGmmBitIdentical(const CosineMetric& metric, const PointSet& pts,
                           size_t k) {
  GmmResult batched = Gmm(Dataset::FromPoints(pts), metric, k);
  GmmResult scalar = GmmScalar(pts, metric, k);
  EXPECT_EQ(batched.selected, scalar.selected);
  EXPECT_TRUE(SameBits(batched.selection_distance, scalar.selection_distance));
  EXPECT_EQ(batched.assignment, scalar.assignment);
  EXPECT_TRUE(
      SameBits(batched.distance_to_selected, scalar.distance_to_selected));
  EXPECT_TRUE(SameBits(std::vector<double>{batched.range},
                       std::vector<double>{scalar.range}));
}

// The gather applies at dims up to the direct-index cap (1 << 14); 20000 is
// past it and must keep the merge, with the same bits either way.
TEST(BatchKernelTest, SparseCosineGatherBitIdenticalToMerge) {
  SetGlobalThreadPoolSize(4);
  CosineMetric metric;
  for (uint32_t dim : {64u, 5000u, 20000u}) {
    for (bool with_dense : {false, true}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim
                                      << (with_dense ? " mixed" : " sparse"));
      PointSet pts = GatherEdgeRows(1500, dim, with_dense, /*seed=*/dim + 7);
      Dataset data = Dataset::FromPoints(pts);
      PointSet queries = GatherQueries(pts, dim);
      ExpectRelaxBitIdentical(metric, data, queries);
      ExpectDistanceToManyBitIdentical(metric, data, queries);
    }
    SCOPED_TRACE(testing::Message() << "gmm dim " << dim);
    SparseTextOptions opts;
    opts.n = 3000;
    opts.vocab_size = dim;
    opts.max_terms = std::min<size_t>(opts.max_terms, dim / 2);
    opts.seed = dim;
    PointSet text = GenerateSparseTextDataset(opts);
    for (const Point& p : GatherEdgeRows(0, dim, false, dim)) {
      if (std::isfinite(p.norm())) text.push_back(p);
    }
    ExpectGmmBitIdentical(metric, text, 24);
  }

  // Two callers at once, each with its own scattered query table, sharing
  // the pool (one takes the arena, the other the queued path).
  PointSet pts = GatherEdgeRows(3000, 5000, true, /*seed=*/99);
  Dataset data = Dataset::FromPoints(pts);
  PointSet queries = GatherQueries(pts, 5000);
  PointSet first(queries.begin(), queries.begin() + queries.size() / 2);
  PointSet second(queries.begin() + queries.size() / 2, queries.end());
  std::thread a([&] { ExpectRelaxBitIdentical(metric, data, first); });
  std::thread b([&] {
    ExpectRelaxBitIdentical(metric, data, second);
    ExpectDistanceToManyBitIdentical(metric, data, first);
  });
  a.join();
  b.join();
  SetGlobalThreadPoolSize(1);
}

}  // namespace
}  // namespace diverse
