// Test helpers over the fallible front doors: run TrySolve or a
// MapReduceDiversity::TryRun* driver on a PointSet (copied into a Dataset
// once) and fail the current test on a non-OK status. On failure they return
// an empty result, so the caller's own assertions fail too.

#ifndef DIVERSE_TESTS_SOLVE_HELPERS_H_
#define DIVERSE_TESTS_SOLVE_HELPERS_H_

#include <cstddef>
#include <utility>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/dataset.h"
#include "core/metric.h"
#include "core/point.h"
#include "mapreduce/mr_diversity.h"
#include "util/status.h"

namespace diverse {

template <typename T>
T ValueOrEmpty(StatusOr<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : T{};
}

inline SolveResult SolveOk(const PointSet& points, const Metric& metric,
                           const SolveOptions& options) {
  return ValueOrEmpty(TrySolve(Dataset::FromPoints(points), metric, options));
}

inline MrResult RunOk(const MapReduceDiversity& mr, const PointSet& points) {
  return ValueOrEmpty(mr.TryRun(Dataset::FromPoints(points)));
}

inline MrResult RunGeneralizedOk(const MapReduceDiversity& mr,
                                 const PointSet& points) {
  return ValueOrEmpty(mr.TryRunGeneralized(Dataset::FromPoints(points)));
}

inline MrResult RunRecursiveOk(const MapReduceDiversity& mr,
                               const PointSet& points, size_t budget) {
  return ValueOrEmpty(
      mr.TryRunRecursive(Dataset::FromPoints(points), budget));
}

}  // namespace diverse

#endif  // DIVERSE_TESTS_SOLVE_HELPERS_H_
