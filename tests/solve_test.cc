#include "api/solve.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/synthetic.h"
#include "solve_helpers.h"

namespace diverse {
namespace {

TEST(SolveTest, BackendNamesRoundTrip) {
  for (Backend b :
       {Backend::kSequential, Backend::kStreaming, Backend::kStreamingTwoPass,
        Backend::kMapReduce, Backend::kMapReduceRandomized,
        Backend::kMapReduceGeneralized, Backend::kMapReduceRecursive}) {
    bool ok = false;
    EXPECT_EQ(ParseBackend(BackendName(b), &ok), b);
    EXPECT_TRUE(ok);
  }
  bool ok = true;
  ParseBackend("nope", &ok);
  EXPECT_FALSE(ok);
}

// Every backend must return k points with positive diversity for every
// problem it supports.
struct SolveCase {
  Backend backend;
  DiversityProblem problem;
};

class SolveBackendTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(SolveBackendTest, ProducesValidSolution) {
  const SolveCase& c = GetParam();
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(800, 2, /*seed=*/11);
  SolveOptions opts;
  opts.problem = c.problem;
  opts.backend = c.backend;
  opts.k = 6;
  SolveResult r = SolveOk(pts, metric, opts);
  EXPECT_EQ(r.solution.size(), 6u);
  EXPECT_GT(r.diversity, 0.0);
  EXPECT_GE(r.seconds, 0.0);
  if (c.backend != Backend::kSequential) {
    EXPECT_GT(r.coreset_size, 0u);
    EXPECT_GE(r.rounds_or_passes, 1u);
  }
}

std::vector<SolveCase> MakeCases() {
  std::vector<SolveCase> cases;
  for (DiversityProblem p : kAllProblems) {
    for (Backend b : {Backend::kSequential, Backend::kStreaming,
                      Backend::kMapReduce, Backend::kMapReduceRandomized,
                      Backend::kMapReduceRecursive}) {
      cases.push_back({b, p});
    }
    if (RequiresInjectiveProxies(p)) {
      cases.push_back({Backend::kStreamingTwoPass, p});
      cases.push_back({Backend::kMapReduceGeneralized, p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SolveBackendTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<SolveCase>& info) {
      std::string name = BackendName(info.param.backend) + "_" +
                         ProblemName(info.param.problem);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(SolveTest, AutoDefaultsApplied) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(200, 2, /*seed=*/12);
  SolveOptions opts;
  opts.backend = Backend::kMapReduce;
  opts.k = 4;  // k_prime, partitions, workers all auto
  SolveResult r = SolveOk(pts, metric, opts);
  EXPECT_EQ(r.solution.size(), 4u);
  // auto k' = 16, auto partitions = 8 -> coreset 8*16.
  EXPECT_EQ(r.coreset_size, 128u);
}

TEST(SolveTest, SmallInputMorePartitionsThanPoints) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(3, 2, /*seed=*/13);
  SolveOptions opts;
  opts.backend = Backend::kMapReduce;
  opts.k = 3;
  opts.num_partitions = 16;
  SolveResult r = SolveOk(pts, metric, opts);
  EXPECT_EQ(r.solution.size(), 3u);  // whole input
}

// ---------------------------------------------------------------------------
// TrySolve validates requests: what it cannot solve as asked, it rejects
// instead of silently adjusting.

TEST(TrySolveTest, RejectsZeroK) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/31);
  SolveOptions opts;
  opts.k = 0;
  StatusOr<SolveResult> r = TrySolve(Dataset::FromPoints(pts), metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrySolveTest, RejectsKLargerThanInput) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(10, 2, /*seed=*/32);
  SolveOptions opts;
  opts.k = 11;
  StatusOr<SolveResult> r = TrySolve(Dataset::FromPoints(pts), metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Empty input is the same violation (k > 0 = n), not a special case.
  StatusOr<SolveResult> empty = TrySolve(Dataset(), metric, opts);
  EXPECT_FALSE(empty.ok());
}

TEST(TrySolveTest, RejectsKPrimeBelowK) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/33);
  SolveOptions opts;
  opts.k = 8;
  opts.k_prime = 4;  // nonzero and < k
  StatusOr<SolveResult> r = TrySolve(Dataset::FromPoints(pts), metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrySolveTest, RejectsNonFiniteCoordinates) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/34);
  pts[7] = Point::Dense({0.5f, std::numeric_limits<float>::quiet_NaN()});
  SolveOptions opts;
  opts.k = 3;
  StatusOr<SolveResult> r = TrySolve(Dataset::FromPoints(pts), metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending point.
  EXPECT_NE(r.status().message().find("7"), std::string::npos)
      << r.status().message();
}

TEST(TrySolveTest, RejectsGeneralizedBackendOnNonInjectiveProblem) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/35);
  for (Backend b : {Backend::kStreamingTwoPass,
                    Backend::kMapReduceGeneralized}) {
    SolveOptions opts;
    opts.backend = b;
    opts.problem = DiversityProblem::kRemoteEdge;  // not injective-proxy
    opts.k = 4;
    StatusOr<SolveResult> r = TrySolve(Dataset::FromPoints(pts), metric, opts);
    EXPECT_FALSE(r.ok()) << BackendName(b);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TrySolveTest, ValidInputMatchesSolve) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(300, 2, /*seed=*/36);
  for (Backend b : {Backend::kSequential, Backend::kStreaming,
                    Backend::kMapReduce}) {
    SolveOptions opts;
    opts.backend = b;
    opts.k = 6;
    opts.seed = 36;
    SolveResult want = SolveOk(pts, metric, opts);
    StatusOr<SolveResult> got = TrySolve(Dataset::FromPoints(pts), metric, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->solution.size(), want.solution.size());
    for (size_t i = 0; i < want.solution.size(); ++i) {
      EXPECT_TRUE(got->solution[i] == want.solution[i]) << BackendName(b);
    }
    EXPECT_EQ(got->diversity, want.diversity) << BackendName(b);
    EXPECT_FALSE(got->degraded.has_value());
  }
}

// k > n and empty input are rejected, not clamped.
TEST(TrySolveTest, RejectsInsteadOfClamping) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(5, 2, /*seed=*/37);
  SolveOptions opts;
  opts.k = 50;
  StatusOr<SolveResult> r = TrySolve(Dataset::FromPoints(pts), metric, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  StatusOr<SolveResult> empty = TrySolve(Dataset(), metric, opts);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// A recursive local memory budget below k' could never compress a level.
TEST(TrySolveTest, RejectsRecursiveBudgetBelowKPrime) {
  EuclideanMetric metric;
  const Dataset data = Dataset::FromPoints(GenerateUniformCube(500, 2, 38));
  SolveOptions opts;
  opts.backend = Backend::kMapReduceRecursive;
  opts.k = 4;
  opts.local_memory_budget = 15;  // auto k' = 16
  StatusOr<SolveResult> r = TrySolve(data, metric, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  opts.k_prime = 32;
  opts.local_memory_budget = 31;
  r = TrySolve(data, metric, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  opts.local_memory_budget = 64;
  r = TrySolve(data, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
}

TEST(SolveTest, SequentialMatchesDirectCall) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/14);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.k = 5;
  SolveResult r = SolveOk(pts, metric, opts);
  EXPECT_EQ(r.rounds_or_passes, 0u);
  EXPECT_EQ(r.coreset_size, 0u);
  EXPECT_EQ(r.solution.size(), 5u);
}

}  // namespace
}  // namespace diverse
