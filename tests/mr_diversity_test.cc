#include "mapreduce/mr_diversity.h"

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/coreset.h"
#include "core/exact.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

MrOptions BasicOptions(size_t k, size_t k_prime, size_t parts) {
  MrOptions o;
  o.k = k;
  o.k_prime = k_prime;
  o.num_partitions = parts;
  o.num_workers = 4;
  o.partition = PartitionStrategy::kRandom;
  o.seed = 3;
  return o;
}

TEST(MrDiversityTest, TwoRoundsProduceKPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(500, 2, /*seed=*/1);
  for (DiversityProblem p : kAllProblems) {
    MapReduceDiversity mr(&m, p, BasicOptions(6, 12, 4));
    MrResult r = mr.Run(pts);
    EXPECT_EQ(r.solution.size(), 6u) << ProblemName(p);
    EXPECT_GT(r.diversity, 0.0) << ProblemName(p);
    EXPECT_EQ(r.rounds, 2u) << ProblemName(p);
  }
}

TEST(MrDiversityTest, CoresetSizeAccounting) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/2);
  size_t k = 4, k_prime = 8, parts = 4;
  {
    // GMM family: |T| = l * k'.
    MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                          BasicOptions(k, k_prime, parts));
    MrResult r = mr.Run(pts);
    EXPECT_EQ(r.coreset_size, parts * k_prime);
  }
  {
    // GMM-EXT family: |T| <= l * k' * k.
    MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique,
                          BasicOptions(k, k_prime, parts));
    MrResult r = mr.Run(pts);
    EXPECT_GE(r.coreset_size, parts * k_prime);
    EXPECT_LE(r.coreset_size, parts * k_prime * k);
  }
}

TEST(MrDiversityTest, LocalMemoryIsMaxReducerInput) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(800, 2, /*seed=*/3);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 8, 8));
  MrResult r = mr.Run(pts);
  // Round 1 reducers hold n/l = 100 points; round 2 holds l*k' = 64.
  EXPECT_EQ(r.max_local_memory_points, 100u);
}

TEST(MrDiversityTest, RandomizedDelegateCapShrinksCoreset) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(2000, 2, /*seed=*/4);
  MrOptions base = BasicOptions(32, 32, 4);
  MapReduceDiversity det(&m, DiversityProblem::kRemoteClique, base);
  MrOptions rand_opts = base;
  rand_opts.randomized_delegate_cap = true;
  MapReduceDiversity rnd(&m, DiversityProblem::kRemoteClique, rand_opts);
  MrResult det_r = det.Run(pts);
  MrResult rnd_r = rnd.Run(pts);
  // Theorem 7: cap max(log2 n = 11, k/l = 8) = 11 delegates/cluster vs 31.
  EXPECT_LT(rnd_r.coreset_size, det_r.coreset_size);
  EXPECT_EQ(rnd_r.solution.size(), 32u);
}

TEST(MrDiversityTest, ApproximationOnTinyInputVsExact) {
  EuclideanMetric m;
  for (DiversityProblem p : kAllProblems) {
    double alpha = SequentialAlpha(p);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      PointSet pts = GenerateUniformCube(16, 2, seed * 23);
      size_t k = 4;
      MapReduceDiversity mr(&m, p, BasicOptions(k, 8, 2));
      MrResult r = mr.Run(pts);
      double opt = ExactDiversityMaximization(p, pts, m, k).value;
      // alpha+eps bound, generous eps to absorb tiny-input effects.
      EXPECT_GE(r.diversity * alpha * 2.0 + 1e-9, opt)
          << ProblemName(p) << " seed " << seed;
    }
  }
}

TEST(MrDiversityTest, CompositionRobustToPartitioning) {
  // Composable core-sets work under ANY partition: all strategies must give
  // comparable remote-edge values on planted data.
  EuclideanMetric m;
  SphereDatasetOptions sopts;
  sopts.n = 3000;
  sopts.k = 8;
  sopts.seed = 31;
  PointSet pts = GenerateSphereDataset(sopts);
  double best = 0.0, worst = 1e100;
  for (PartitionStrategy strat :
       {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
        PartitionStrategy::kAdversarial}) {
    MrOptions o = BasicOptions(8, 32, 4);
    o.partition = strat;
    MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
    MrResult r = mr.Run(pts);
    best = std::max(best, r.diversity);
    worst = std::min(worst, r.diversity);
  }
  EXPECT_GT(worst, 0.0);
  EXPECT_LT(best / worst, 2.0);  // no partition collapses the quality
}

TEST(MrDiversityTest, GeneralizedThreeRounds) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(600, 2, /*seed=*/5);
  for (DiversityProblem p :
       {DiversityProblem::kRemoteClique, DiversityProblem::kRemoteStar,
        DiversityProblem::kRemoteBipartition, DiversityProblem::kRemoteTree}) {
    MapReduceDiversity mr(&m, p, BasicOptions(5, 10, 4));
    MrResult r = mr.RunGeneralized(pts);
    EXPECT_EQ(r.rounds, 3u) << ProblemName(p);
    EXPECT_EQ(r.solution.size(), 5u) << ProblemName(p);
    // Distinct points.
    for (size_t i = 0; i < r.solution.size(); ++i) {
      for (size_t j = i + 1; j < r.solution.size(); ++j) {
        EXPECT_FALSE(r.solution[i] == r.solution[j]) << ProblemName(p);
      }
    }
    EXPECT_GT(r.diversity, 0.0) << ProblemName(p);
  }
}

TEST(MrDiversityTest, GeneralizedUsesSmallerAggregateCoreset) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(2000, 2, /*seed=*/6);
  MrOptions o = BasicOptions(16, 32, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, o);
  MrResult two_round = mr.Run(pts);
  MrResult three_round = mr.RunGeneralized(pts);
  // Generalized: l*k' pairs vs up to l*k'*k points.
  EXPECT_LT(three_round.coreset_size, two_round.coreset_size);
}

TEST(MrDiversityTest, GeneralizedQualityComparableToTwoRound) {
  EuclideanMetric m;
  SphereDatasetOptions sopts;
  sopts.n = 2000;
  sopts.k = 6;
  sopts.seed = 77;
  PointSet pts = GenerateSphereDataset(sopts);
  MrOptions o = BasicOptions(6, 24, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, o);
  double two = mr.Run(pts).diversity;
  double three = mr.RunGeneralized(pts).diversity;
  EXPECT_GT(three, 0.5 * two);
}

TEST(MrDiversityTest, RecursiveMultiRound) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(4000, 2, /*seed=*/7);
  MrOptions o = BasicOptions(4, 8, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  // Budget 200 points per reducer: 4000 -> 20 parts * 8 = 160 <= 200, so two
  // coreset levels are NOT needed; force more with a tighter budget.
  MrResult r = mr.RunRecursive(pts, 200);
  EXPECT_EQ(r.solution.size(), 4u);
  EXPECT_GE(r.rounds, 2u);
  EXPECT_LE(r.max_local_memory_points, 200u);
}

TEST(MrDiversityTest, RecursiveDeepRecursion) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(5000, 2, /*seed=*/8);
  MrOptions o = BasicOptions(2, 4, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  MrResult r = mr.RunRecursive(pts, 50);
  EXPECT_EQ(r.solution.size(), 2u);
  EXPECT_GE(r.rounds, 3u);  // 5000 -> ~400 -> ~32 -> solve
  EXPECT_LE(r.max_local_memory_points, 50u);
  EXPECT_GT(r.diversity, 0.0);
}

TEST(MrDiversityTest, ShuffleVolumeAccounted) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/13);
  size_t k = 4, k_prime = 8, parts = 4;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(k, k_prime, parts));
  MrResult r = mr.Run(pts);
  // Round 1 ships l*k' core-set points; round 2 ships the k-point solution.
  EXPECT_EQ(r.shuffle_points, parts * k_prime + k);
}

TEST(MrDiversityTest, RoundTimingAccountedPerRound) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(300, 2, /*seed=*/10);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 8, 4));
  MrResult two = mr.Run(pts);
  EXPECT_EQ(two.round_seconds.size(), two.rounds);
  MapReduceDiversity mrc(&m, DiversityProblem::kRemoteClique,
                         BasicOptions(4, 8, 4));
  MrResult three = mrc.RunGeneralized(pts);
  EXPECT_EQ(three.round_seconds.size(), three.rounds);
  for (double s : three.round_seconds) EXPECT_GE(s, 0.0);
}

TEST(MrDiversityTest, GeneralizedSolutionPointsComeFromInput) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/11);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteTree,
                        BasicOptions(5, 10, 4));
  MrResult r = mr.RunGeneralized(pts);
  for (const Point& s : r.solution) {
    bool found = false;
    for (const Point& p : pts) {
      if (p == s) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

bool SamePoints(const PointSet& a, const PointSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

PointSet SparseDocs(size_t n) {
  SparseTextOptions o;
  o.n = n;
  o.vocab_size = 300;
  o.min_terms = 3;
  o.max_terms = 20;
  o.seed = 17;
  return GenerateSparseTextDataset(o);
}

// An engine that implements only the PointSet calls, forwarding them to a
// LoopbackEngine: row-view partitions reach it through the base class's
// in-task gather, the path every decorator-style engine inherits.
class PointSetOnlyEngine final : public CommunicationEngine {
 public:
  explicit PointSetOnlyEngine(LoopbackEngine* inner) : inner_(inner) {}
  std::string BackendName() const override { return "pointset-only"; }
  StatusOr<PointSet> Coreset(const TaskEnvelope& env, const PointSet& part,
                             const CoresetSpec& spec) override {
    ++coreset_calls;
    return inner_->Coreset(env, part, spec);
  }
  StatusOr<GenCoresetResult> GenCoreset(const TaskEnvelope& env,
                                        const PointSet& part, size_t k,
                                        size_t k_prime) override {
    ++coreset_calls;
    return inner_->GenCoreset(env, part, k, k_prime);
  }
  StatusOr<PointSet> MergeCoresets(const TaskEnvelope& env, const PointSet& a,
                                   const PointSet& b) override {
    return inner_->MergeCoresets(env, a, b);
  }
  StatusOr<PointSet> Solve(const TaskEnvelope& env, const PointSet& aggregate,
                           size_t k) override {
    return inner_->Solve(env, aggregate, k);
  }
  StatusOr<GeneralizedCoreset> GenSolve(const TaskEnvelope& env,
                                        const GeneralizedCoreset& merged,
                                        size_t k) override {
    return inner_->GenSolve(env, merged, k);
  }
  StatusOr<PointSet> Instantiate(const TaskEnvelope& env,
                                 const GeneralizedCoreset& selected,
                                 const PointSet& part, double range) override {
    return inner_->Instantiate(env, selected, part, range);
  }
  std::atomic<size_t> coreset_calls{0};

 private:
  LoopbackEngine* inner_;
};

// The drivers run on a Dataset's row views; the PointSet entry points wrap
// their input once. Both must give the same answer, for every driver, on
// dense and sparse rows — and so must an engine that only sees gathered
// PointSets.
TEST(MrDiversityTest, DatasetInputMatchesPointSetShim) {
  EuclideanMetric euclidean;
  CosineMetric cosine;
  struct Case {
    std::string name;
    PointSet points;
    const Metric* metric;
  };
  const std::vector<Case> cases = {
      {"dense", GenerateUniformCube(600, 3, /*seed=*/19), &euclidean},
      {"sparse", SparseDocs(500), &cosine}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Dataset data = Dataset::FromPoints(c.points);
    MapReduceDiversity two(c.metric, DiversityProblem::kRemoteClique,
                           BasicOptions(5, 10, 4));
    StatusOr<MrResult> from_data = two.TryRun(data);
    StatusOr<MrResult> from_points = two.TryRun(c.points);
    ASSERT_TRUE(from_data.ok()) << from_data.status().ToString();
    ASSERT_TRUE(from_points.ok()) << from_points.status().ToString();
    EXPECT_TRUE(SamePoints(from_data->solution, from_points->solution));
    EXPECT_EQ(from_data->diversity, from_points->diversity);
    EXPECT_EQ(from_data->coreset_size, from_points->coreset_size);

    StatusOr<MrResult> gen_data = two.TryRunGeneralized(data);
    StatusOr<MrResult> gen_points = two.TryRunGeneralized(c.points);
    ASSERT_TRUE(gen_data.ok()) << gen_data.status().ToString();
    ASSERT_TRUE(gen_points.ok()) << gen_points.status().ToString();
    EXPECT_TRUE(SamePoints(gen_data->solution, gen_points->solution));
    EXPECT_EQ(gen_data->diversity, gen_points->diversity);

    MapReduceDiversity rec(c.metric, DiversityProblem::kRemoteEdge,
                           BasicOptions(3, 6, 4));
    StatusOr<MrResult> rec_data = rec.TryRunRecursive(data, /*budget=*/40);
    StatusOr<MrResult> rec_points =
        rec.TryRunRecursive(c.points, /*budget=*/40);
    ASSERT_TRUE(rec_data.ok()) << rec_data.status().ToString();
    ASSERT_TRUE(rec_points.ok()) << rec_points.status().ToString();
    EXPECT_GT(rec_data->rounds, 2u);  // actually recursed
    EXPECT_TRUE(SamePoints(rec_data->solution, rec_points->solution));
    EXPECT_EQ(rec_data->diversity, rec_points->diversity);

    LoopbackEngine loopback(c.metric, DiversityProblem::kRemoteClique);
    PointSetOnlyEngine gathered(&loopback);
    MrOptions o = BasicOptions(5, 10, 4);
    o.engine = &gathered;
    MapReduceDiversity via_gather(c.metric, DiversityProblem::kRemoteClique, o);
    StatusOr<MrResult> two_gathered = via_gather.TryRun(data);
    StatusOr<MrResult> gen_gathered = via_gather.TryRunGeneralized(data);
    ASSERT_TRUE(two_gathered.ok()) << two_gathered.status().ToString();
    ASSERT_TRUE(gen_gathered.ok()) << gen_gathered.status().ToString();
    EXPECT_EQ(gathered.coreset_calls.load(), 8u);
    EXPECT_TRUE(SamePoints(two_gathered->solution, from_data->solution));
    EXPECT_TRUE(SamePoints(gen_gathered->solution, gen_data->solution));
  }
}

// The 2-round driver against a hand-rolled PointSet pipeline: copy each
// partition (PartitionPoints), build its core-set on the copy, concatenate,
// solve. The row-view data path must not change a single point.
TEST(MrDiversityTest, RowViewDriverMatchesPartitionCopyPipeline) {
  EuclideanMetric m;
  const PointSet pts = GenerateUniformCube(700, 2, /*seed=*/23);
  for (DiversityProblem problem :
       {DiversityProblem::kRemoteEdge, DiversityProblem::kRemoteClique}) {
    SCOPED_TRACE(ProblemName(problem));
    const size_t k = 5, k_prime = 10, num_parts = 6;
    PointSet aggregate;
    for (const PointSet& part : PartitionPoints(
             pts, num_parts, PartitionStrategy::kRandom, /*seed=*/3, &m)) {
      const Coreset cs = RequiresInjectiveProxies(problem)
                             ? GmmExtCoreset(part, m, k_prime, k - 1)
                             : GmmCoreset(part, m, k_prime);
      aggregate.insert(aggregate.end(), cs.points.begin(), cs.points.end());
    }
    PointSet want;
    for (size_t idx : SolveSequential(problem, aggregate, m, k)) {
      want.push_back(aggregate[idx]);
    }
    MapReduceDiversity mr(&m, problem, BasicOptions(k, k_prime, num_parts));
    StatusOr<MrResult> got = mr.TryRun(Dataset::FromPoints(pts));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->coreset_size, aggregate.size());
    EXPECT_TRUE(SamePoints(got->solution, want));
  }
}

TEST(MrDiversityDeathTest, RecursiveRejectsBudgetBelowKPrime) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(500, 2, /*seed=*/12);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 64, 4));
  EXPECT_DEATH(mr.RunRecursive(pts, 32), "CHECK failed");
}

TEST(MrDiversityDeathTest, GeneralizedRejectsNonInjectiveProblems) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/9);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 8, 2));
  EXPECT_DEATH(mr.RunGeneralized(pts), "CHECK failed");
}

}  // namespace
}  // namespace diverse
