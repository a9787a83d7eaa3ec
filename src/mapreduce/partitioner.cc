#include "mapreduce/partitioner.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace diverse {

std::string PartitionStrategyName(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kChunked:
      return "chunked";
    case PartitionStrategy::kRandom:
      return "random";
    case PartitionStrategy::kAdversarial:
      return "adversarial";
  }
  return "unknown";
}

namespace {

// Compares dense points lexicographically by coordinates.
bool LexLess(const Point& a, const Point& b) {
  const auto& va = a.dense_values();
  const auto& vb = b.dense_values();
  return std::lexicographical_compare(va.begin(), va.end(), vb.begin(),
                                      vb.end());
}

}  // namespace

std::vector<std::vector<uint32_t>> PartitionRows(std::span<const Point> points,
                                                 size_t num_parts,
                                                 PartitionStrategy strategy,
                                                 uint64_t seed,
                                                 const Metric* metric) {
  size_t n = points.size();
  DIVERSE_CHECK_GE(num_parts, 1u);
  DIVERSE_CHECK_LE(n, size_t{UINT32_MAX});
  // num_parts may exceed n (including n == 0): the first n blocks receive
  // one row each and the tail blocks stay empty. Callers distributing work
  // to a fixed reducer fleet rely on always getting num_parts blocks back.

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});

  switch (strategy) {
    case PartitionStrategy::kChunked:
      break;
    case PartitionStrategy::kRandom: {
      Rng rng(seed);
      for (size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      break;
    }
    case PartitionStrategy::kAdversarial: {
      if (points.empty()) break;  // nothing to sort; no pivot to read
      if (!points[0].is_sparse()) {
        std::sort(order.begin(), order.end(),
                  [&points](uint32_t a, uint32_t b) {
                    return LexLess(points[a], points[b]);
                  });
      } else {
        DIVERSE_CHECK(metric != nullptr);
        // Scalar pivot-distance sweep: a one-shot columnar re-layout would
        // cost more (n point copies) than the n virtual calls it saves.
        const Point& pivot = points[0];
        std::vector<double> key(n);
        for (size_t i = 0; i < n; ++i) {
          key[i] = metric->Distance(points[i], pivot);
        }
        std::sort(order.begin(), order.end(),
                  [&key](uint32_t a, uint32_t b) { return key[a] < key[b]; });
      }
      break;
    }
  }

  // Split `order` into num_parts blocks whose sizes differ by at most one.
  std::vector<std::vector<uint32_t>> blocks(num_parts);
  size_t base = n / num_parts;
  size_t extra = n % num_parts;
  auto pos = order.begin();
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t len = base + (p < extra ? 1 : 0);
    blocks[p].assign(pos, pos + static_cast<std::ptrdiff_t>(len));
    pos += static_cast<std::ptrdiff_t>(len);
  }
  DIVERSE_CHECK(pos == order.end());
  return blocks;
}

std::vector<PointSet> PartitionPoints(std::span<const Point> points,
                                      size_t num_parts,
                                      PartitionStrategy strategy,
                                      uint64_t seed, const Metric* metric) {
  const std::vector<std::vector<uint32_t>> blocks =
      PartitionRows(points, num_parts, strategy, seed, metric);
  std::vector<PointSet> parts(blocks.size());
  for (size_t p = 0; p < blocks.size(); ++p) {
    parts[p].reserve(blocks[p].size());
    for (uint32_t row : blocks[p]) parts[p].push_back(points[row]);
  }
  return parts;
}

}  // namespace diverse
