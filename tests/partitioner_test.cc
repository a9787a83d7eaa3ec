#include "mapreduce/partitioner.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

// Every partition strategy must produce a balanced permutation of the input.
class PartitionerTest : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(PartitionerTest, IsBalancedPermutation) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(103, 2, /*seed=*/1);
  auto parts = PartitionPoints(pts, 8, GetParam(), /*seed=*/42, &m);
  ASSERT_EQ(parts.size(), 8u);
  size_t total = 0;
  for (const PointSet& part : parts) {
    EXPECT_GE(part.size(), 103u / 8);
    EXPECT_LE(part.size(), 103u / 8 + 1);
    total += part.size();
  }
  EXPECT_EQ(total, pts.size());
  // Multiset equality via sorted coordinate dumps.
  auto key = [](const Point& p) {
    return std::make_pair(p.dense_values()[0], p.dense_values()[1]);
  };
  std::multiset<std::pair<float, float>> original, partitioned;
  for (const Point& p : pts) original.insert(key(p));
  for (const PointSet& part : parts) {
    for (const Point& p : part) partitioned.insert(key(p));
  }
  EXPECT_EQ(original, partitioned);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PartitionerTest,
    ::testing::Values(PartitionStrategy::kChunked, PartitionStrategy::kRandom,
                      PartitionStrategy::kAdversarial),
    [](const ::testing::TestParamInfo<PartitionStrategy>& info) {
      return PartitionStrategyName(info.param);
    });

TEST(PartitionerTest, StrategyNames) {
  EXPECT_EQ(PartitionStrategyName(PartitionStrategy::kChunked), "chunked");
  EXPECT_EQ(PartitionStrategyName(PartitionStrategy::kRandom), "random");
  EXPECT_EQ(PartitionStrategyName(PartitionStrategy::kAdversarial),
            "adversarial");
}

TEST(PartitionerTest, ChunkedPreservesOrder) {
  PointSet pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(Point::Dense({static_cast<float>(i)}));
  }
  auto parts = PartitionPoints(pts, 2, PartitionStrategy::kChunked, 0);
  EXPECT_EQ(parts[0][0].dense_values()[0], 0.0f);
  EXPECT_EQ(parts[0][4].dense_values()[0], 4.0f);
  EXPECT_EQ(parts[1][0].dense_values()[0], 5.0f);
}

TEST(PartitionerTest, RandomIsSeedDeterministic) {
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/2);
  auto a = PartitionPoints(pts, 4, PartitionStrategy::kRandom, 7);
  auto b = PartitionPoints(pts, 4, PartitionStrategy::kRandom, 7);
  auto c = PartitionPoints(pts, 4, PartitionStrategy::kRandom, 8);
  EXPECT_EQ(a[0][0].dense_values(), b[0][0].dense_values());
  bool differs = false;
  for (size_t i = 0; i < a[0].size() && !differs; ++i) {
    differs = !(a[0][i] == c[0][i]);
  }
  EXPECT_TRUE(differs);
}

TEST(PartitionerTest, AdversarialLocalizesDensePoints) {
  // After lexicographic sorting, each part spans a narrow slab in the first
  // coordinate; total first-coordinate spread of parts is much smaller than
  // the full range for most parts.
  PointSet pts = GenerateUniformCube(1000, 2, /*seed=*/3);
  auto parts =
      PartitionPoints(pts, 10, PartitionStrategy::kAdversarial, 0);
  for (const PointSet& part : parts) {
    float lo = 1e9f, hi = -1e9f;
    for (const Point& p : part) {
      lo = std::min(lo, p.dense_values()[0]);
      hi = std::max(hi, p.dense_values()[0]);
    }
    EXPECT_LE(hi - lo, 0.25f);  // a slab of ~1/10 of the unit range + slack
  }
}

TEST(PartitionerTest, AdversarialSparseUsesMetricShells) {
  CosineMetric m;
  SparseTextOptions opts;
  opts.n = 60;
  opts.vocab_size = 100;
  opts.min_terms = 3;
  opts.max_terms = 10;
  opts.seed = 5;
  PointSet pts = GenerateSparseTextDataset(opts);
  auto parts =
      PartitionPoints(pts, 4, PartitionStrategy::kAdversarial, 0, &m);
  // Distance-to-pivot must be non-decreasing across part boundaries.
  const Point& pivot = pts[0];
  double prev_max = -1.0;
  for (const PointSet& part : parts) {
    double lo = 1e100, hi = -1.0;
    for (const Point& p : part) {
      double d = m.Distance(p, pivot);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    EXPECT_GE(lo, prev_max - 1e-9);
    prev_max = hi;
  }
}

TEST(PartitionerTest, SinglePartIsWholeInput) {
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/6);
  auto parts = PartitionPoints(pts, 1, PartitionStrategy::kRandom, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), pts.size());
}

TEST(PartitionerTest, MorePartsThanPointsYieldsEmptyTails) {
  PointSet pts = GenerateUniformCube(3, 2, /*seed=*/7);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
        PartitionStrategy::kAdversarial}) {
    EuclideanMetric m;
    auto parts = PartitionPoints(pts, 7, strategy, /*seed=*/0, &m);
    ASSERT_EQ(parts.size(), 7u) << PartitionStrategyName(strategy);
    size_t total = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      EXPECT_LE(parts[p].size(), 1u);
      total += parts[p].size();
      if (p >= pts.size()) {
        EXPECT_TRUE(parts[p].empty()) << "tail part " << p;
      }
    }
    EXPECT_EQ(total, pts.size());
  }
}

TEST(PartitionerTest, EmptyInputYieldsAllEmptyParts) {
  PointSet empty;
  for (PartitionStrategy strategy :
       {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
        PartitionStrategy::kAdversarial}) {
    // No metric: the adversarial branch must not touch points[0] (or the
    // metric) when there is nothing to sort.
    auto parts = PartitionPoints(empty, 5, strategy, /*seed=*/3);
    ASSERT_EQ(parts.size(), 5u) << PartitionStrategyName(strategy);
    for (const PointSet& part : parts) EXPECT_TRUE(part.empty());
  }
}

// PartitionRows is the partitioner; PartitionPoints is a gather over it.
// For every strategy and shape — including more parts than points and an
// empty input — gathering each row block must reproduce PartitionPoints
// point for point, and the blocks must form a permutation of the rows.
TEST(PartitionerTest, RowBlocksGatherToPartitionPoints) {
  CosineMetric cosine;
  EuclideanMetric euclidean;
  SparseTextOptions sparse_opts;
  sparse_opts.n = 57;
  sparse_opts.vocab_size = 80;
  sparse_opts.min_terms = 3;
  sparse_opts.max_terms = 12;
  sparse_opts.seed = 9;
  const PointSet dense = GenerateUniformCube(101, 3, /*seed=*/8);
  const PointSet sparse = GenerateSparseTextDataset(sparse_opts);
  const PointSet tiny = GenerateUniformCube(3, 2, /*seed=*/10);
  const PointSet empty;
  struct Input {
    const PointSet* points;
    const Metric* metric;
  };
  for (const Input& in : {Input{&dense, &euclidean}, Input{&sparse, &cosine},
                          Input{&tiny, &euclidean}, Input{&empty, nullptr}}) {
    for (PartitionStrategy strategy :
         {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
          PartitionStrategy::kAdversarial}) {
      for (size_t num_parts : {size_t{1}, size_t{4}, size_t{7}}) {
        SCOPED_TRACE(PartitionStrategyName(strategy) + " n=" +
                     std::to_string(in.points->size()) +
                     " parts=" + std::to_string(num_parts));
        const auto blocks = PartitionRows(*in.points, num_parts, strategy,
                                          /*seed=*/13, in.metric);
        const auto parts = PartitionPoints(*in.points, num_parts, strategy,
                                           /*seed=*/13, in.metric);
        ASSERT_EQ(blocks.size(), num_parts);
        ASSERT_EQ(parts.size(), num_parts);
        std::vector<uint32_t> all_rows;
        for (size_t p = 0; p < num_parts; ++p) {
          ASSERT_EQ(blocks[p].size(), parts[p].size());
          for (size_t i = 0; i < blocks[p].size(); ++i) {
            EXPECT_TRUE((*in.points)[blocks[p][i]] == parts[p][i]);
            all_rows.push_back(blocks[p][i]);
          }
        }
        std::sort(all_rows.begin(), all_rows.end());
        for (size_t r = 0; r < all_rows.size(); ++r) {
          EXPECT_EQ(all_rows[r], r);
        }
        EXPECT_EQ(all_rows.size(), in.points->size());
      }
    }
  }
}

TEST(PartitionerTest, AdversarialSparseSingletonNeedsNoSort) {
  // One sparse point, more parts than points: the pivot-distance branch
  // runs on a single element and the tails stay empty.
  CosineMetric m;
  PointSet pts;
  pts.push_back(Point::Sparse({1, 5}, {1.0f, 2.0f}, /*dim=*/10));
  auto parts =
      PartitionPoints(pts, 3, PartitionStrategy::kAdversarial, 0, &m);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 1u);
  EXPECT_TRUE(parts[1].empty());
  EXPECT_TRUE(parts[2].empty());
}

}  // namespace
}  // namespace diverse
