#include "core/dataset.h"

#include <vector>

#include <gtest/gtest.h>

#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace diverse {
namespace {

PointSet MixedPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      std::vector<float> values(dim);
      for (float& v : values) v = static_cast<float>(rng.NextDouble());
      pts.push_back(Point::Dense(std::move(values)));
    } else {
      std::vector<uint32_t> indices;
      std::vector<float> values;
      for (uint32_t j = 0; j < dim; ++j) {
        if (rng.NextDouble() < 0.3) {
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

TEST(DatasetTest, DenseConstruction) {
  PointSet pts = GenerateUniformCube(25, 4, /*seed=*/1);
  Dataset data = Dataset::FromPoints(pts);
  EXPECT_EQ(data.size(), 25u);
  EXPECT_EQ(data.dim(), 4u);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_FALSE(data.row_is_sparse(i));
    EXPECT_EQ(data.point(i), pts[i]);
    EXPECT_EQ(data.norm(i), pts[i].norm());
    kernels::VecView row = data.row(i);
    ASSERT_EQ(row.nnz, 4u);
    EXPECT_EQ(row.dim, 4u);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(row.values[j], pts[i].dense_values()[j]);
    }
  }
}

TEST(DatasetTest, SparseConstruction) {
  SparseTextOptions opts;
  opts.n = 30;
  opts.seed = 2;
  PointSet docs = GenerateSparseTextDataset(opts);
  Dataset data = Dataset::FromPoints(docs);
  EXPECT_EQ(data.size(), docs.size());
  EXPECT_EQ(data.dim(), docs[0].dim());
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(data.row_is_sparse(i));
    kernels::VecView row = data.row(i);
    ASSERT_EQ(row.nnz, docs[i].nnz());
    EXPECT_EQ(row.norm, docs[i].norm());
    for (size_t j = 0; j < row.nnz; ++j) {
      EXPECT_EQ(row.indices[j], docs[i].sparse_indices()[j]);
      EXPECT_EQ(row.values[j], docs[i].sparse_values()[j]);
    }
  }
}

TEST(DatasetTest, MixedRepresentationRows) {
  PointSet pts = MixedPoints(20, 8, /*seed=*/3);
  Dataset data = Dataset::FromPoints(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(data.row_is_sparse(i), pts[i].is_sparse()) << "row " << i;
    EXPECT_EQ(data.point(i), pts[i]);
  }
}

TEST(DatasetTest, AppendMatchesFromPoints) {
  PointSet pts = MixedPoints(15, 6, /*seed=*/4);
  Dataset bulk = Dataset::FromPoints(pts);
  Dataset incremental;
  EXPECT_TRUE(incremental.empty());
  for (const Point& p : pts) incremental.Append(p);
  ASSERT_EQ(incremental.size(), bulk.size());
  EXPECT_EQ(incremental.dim(), bulk.dim());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(incremental.point(i), bulk.point(i));
    EXPECT_EQ(incremental.norm(i), bulk.norm(i));
  }
}

TEST(DatasetTest, ClearResetsDimension) {
  Dataset data;
  data.Append(Point::Dense2(1.0f, 2.0f));
  EXPECT_EQ(data.dim(), 2u);
  data.Clear();
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.dim(), 0u);
  data.Append(Point::Dense3(1.0f, 2.0f, 3.0f));
  EXPECT_EQ(data.dim(), 3u);
}

TEST(DatasetTest, OwningConstructorKeepsPoints) {
  PointSet pts = GenerateUniformCube(10, 3, /*seed=*/5);
  PointSet copy = pts;
  Dataset data(std::move(copy));
  ASSERT_EQ(data.points().size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(data.point(i), pts[i]);
}

TEST(DatasetTest, MemoryBytesCoversColumnarArrays) {
  PointSet pts = GenerateUniformCube(100, 8, /*seed=*/6);
  Dataset data = Dataset::FromPoints(pts);
  // At least the raw coordinate storage (row-major floats) twice: once in
  // the points, once columnar.
  EXPECT_GT(data.MemoryBytes(), 2 * 100 * 8 * sizeof(float));
}

// AssignGather is the one gather routine: with points it must be
// indistinguishable from Assign() of the same points (rows, norms,
// statistics, retained points); without, the columnar content is the same
// and no point is retained. Rows may repeat and come in any order; the
// destination's previous content and capacity are irrelevant.
TEST(DatasetTest, AssignGatherMatchesAssignOfSamePoints) {
  const PointSet pts = MixedPoints(30, 7, /*seed=*/8);
  const Dataset src = Dataset::FromPoints(pts);
  const std::vector<uint32_t> rows = {29, 3, 3, 0, 17, 8, 22, 1};
  PointSet picked;
  for (uint32_t r : rows) picked.push_back(pts[r]);
  const Dataset want = Dataset::FromPoints(picked);
  for (bool with_points : {true, false}) {
    SCOPED_TRACE(with_points ? "with points" : "columnar only");
    Dataset got = Dataset::FromPoints(MixedPoints(5, 7, /*seed=*/9));
    got.AssignGather(src, rows, with_points);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.dim(), want.dim());
    EXPECT_EQ(got.points().size(), with_points ? rows.size() : 0u);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (with_points) {
        EXPECT_EQ(got.point(i), want.point(i));
      }
      ASSERT_EQ(got.row_is_sparse(i), want.row_is_sparse(i));
      const kernels::VecView a = got.row(i);
      const kernels::VecView b = want.row(i);
      ASSERT_EQ(a.nnz, b.nnz);
      EXPECT_EQ(a.norm, b.norm);
      for (size_t j = 0; j < a.nnz; ++j) {
        EXPECT_EQ(a.values[j], b.values[j]);
        if (a.sparse) {
          EXPECT_EQ(a.indices[j], b.indices[j]);
        }
      }
    }
    EXPECT_EQ(got.sparse_stats().rows, want.sparse_stats().rows);
    EXPECT_EQ(got.sparse_stats().total_nnz, want.sparse_stats().total_nnz);
    EXPECT_EQ(got.sparse_stats().max_nnz, want.sparse_stats().max_nnz);
    EXPECT_EQ(got.screen_stats().min_positive_norm,
              want.screen_stats().min_positive_norm);
    EXPECT_EQ(got.screen_stats().max_norm, want.screen_stats().max_norm);
  }
}

// TryFromPoints is the fallible builder: mixed dimensions come back as a
// Status naming the first offending record, and uniform input builds the same
// dataset the constructor does.
TEST(DatasetTest, TryFromPointsRejectsMixedDimensionsWithStatus) {
  const PointSet mixed = {Point::Dense2(0.0f, 0.0f), Point::Dense2(1.0f, 1.0f),
                          Point::Dense3(1.0f, 2.0f, 3.0f),
                          Point::Dense({4.0f})};
  StatusOr<Dataset> bad = Dataset::TryFromPoints(mixed);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(),
            "record 2 has dim 3, but record 0 has dim 2");

  const PointSet pts = MixedPoints(12, 5, /*seed=*/11);
  StatusOr<Dataset> good = Dataset::TryFromPoints(pts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->size(), pts.size());
  EXPECT_EQ(good->dim(), 5u);
  for (size_t i = 0; i < pts.size(); ++i) EXPECT_TRUE(good->point(i) == pts[i]);
  EXPECT_TRUE(Dataset::TryFromPoints({}).ok());
}

TEST(DatasetDeathTest, RejectsMismatchedDimensions) {
  Dataset data;
  data.Append(Point::Dense2(1.0f, 2.0f));
  EXPECT_DEATH(data.Append(Point::Dense3(1.0f, 2.0f, 3.0f)), "CHECK failed");
}

}  // namespace
}  // namespace diverse
