// Input partitioning strategies for the MapReduce algorithms.
//
// Theorems 4-6 hold for *arbitrary* partitions (that is the point of
// composable core-sets), but Section 7.2 of the paper studies how the
// partition affects practical quality: a random shuffle is the default, and
// an "adversarial" partition that confines each reducer to a region of
// small volume worsens the ratio by up to ~10%. We provide all three
// strategies used there.

#ifndef DIVERSE_MAPREDUCE_PARTITIONER_H_
#define DIVERSE_MAPREDUCE_PARTITIONER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// How the input is split among reducers.
enum class PartitionStrategy : uint8_t {
  /// Contiguous equal-size blocks in input order.
  kChunked,
  /// Random shuffle, then equal-size blocks (the paper's default).
  kRandom,
  /// Sorted so that each block covers a small-volume region: dense points
  /// are sorted lexicographically by coordinates; other points by distance
  /// to the first point (thin metric shells). This is the obfuscating
  /// partition of Section 7.2.
  kAdversarial,
};

/// Short name, e.g. "random".
std::string PartitionStrategyName(PartitionStrategy strategy);

/// Splits the rows of `points` into `num_parts` blocks of (near-)equal size
/// according to `strategy`, returning each block as the row indices it
/// holds (block p is the p-th entry, rows in block order). This is the
/// logical assignment round 1 of the MapReduce algorithms needs: the
/// drivers hand each reducer a row view of the input and the reducer
/// gathers its rows itself, so no point is copied on the driver's serial
/// path. `metric` is needed only for kAdversarial on sparse points; it may
/// be null otherwise. Requires num_parts >= 1 and fewer than 2^32 points.
/// When num_parts exceeds points.size() (including an empty input),
/// exactly num_parts blocks are still returned: the first points.size()
/// hold one row each and the tail blocks are empty — reducers tolerate
/// empty inputs, so a fixed fleet size never crashes on a small round.
std::vector<std::vector<uint32_t>> PartitionRows(
    std::span<const Point> points, size_t num_parts, PartitionStrategy strategy,
    uint64_t seed, const Metric* metric = nullptr);

/// PartitionRows with each block gathered into its own PointSet: the same
/// blocks, in the same order, as value-typed copies. For callers that need
/// owned partitions (the AFZ baseline, tests, benchmarks); the CPPU drivers
/// work on the row blocks.
std::vector<PointSet> PartitionPoints(std::span<const Point> points,
                                      size_t num_parts,
                                      PartitionStrategy strategy,
                                      uint64_t seed,
                                      const Metric* metric = nullptr);

}  // namespace diverse

#endif  // DIVERSE_MAPREDUCE_PARTITIONER_H_
