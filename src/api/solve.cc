#include "api/solve.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/cover_tree.h"
#include "core/screen.h"
#include "core/sequential.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/streaming_diversity.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

std::string BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSequential:
      return "sequential";
    case Backend::kStreaming:
      return "streaming";
    case Backend::kStreamingTwoPass:
      return "streaming-2pass";
    case Backend::kMapReduce:
      return "mapreduce";
    case Backend::kMapReduceRandomized:
      return "mapreduce-randomized";
    case Backend::kMapReduceGeneralized:
      return "mapreduce-generalized";
    case Backend::kMapReduceRecursive:
      return "mapreduce-recursive";
  }
  return "unknown";
}

Backend ParseBackend(const std::string& name, bool* ok) {
  for (Backend b :
       {Backend::kSequential, Backend::kStreaming, Backend::kStreamingTwoPass,
        Backend::kMapReduce, Backend::kMapReduceRandomized,
        Backend::kMapReduceGeneralized, Backend::kMapReduceRecursive}) {
    if (BackendName(b) == name) {
      if (ok != nullptr) *ok = true;
      return b;
    }
  }
  if (ok != nullptr) *ok = false;
  return Backend::kSequential;
}

namespace {

// Applies the "auto" rules documented on SolveOptions.
SolveOptions Normalize(const SolveOptions& in) {
  SolveOptions o = in;
  if (o.k_prime == 0) o.k_prime = 4 * o.k;
  o.k_prime = std::max(o.k_prime, o.k);
  // num_partitions is intentionally NOT clamped to n: a fleet larger than
  // the input simply runs reducers on empty partitions (the partitioner
  // returns empty tails), matching how a fixed cluster behaves on a small
  // round.
  if (o.num_partitions == 0) o.num_partitions = 8;
  if (o.num_workers == 0) o.num_workers = o.num_partitions;
  if (o.local_memory_budget == 0) {
    o.local_memory_budget = std::max<size_t>(4 * o.k_prime * o.k, 1024);
  }
  return o;
}

SolveResult FromStreaming(const StreamingResult& r) {
  SolveResult out;
  out.solution = r.solution;
  out.diversity = r.diversity;
  out.coreset_size = r.coreset_size;
  return out;
}

SolveResult FromMr(const MrResult& r) {
  SolveResult out;
  out.solution = r.solution;
  out.diversity = r.diversity;
  out.coreset_size = r.coreset_size;
  out.rounds_or_passes = r.rounds;
  out.degraded = r.degraded;
  return out;
}

bool PointIsFinite(const Point& p) {
  const std::vector<float>& vals =
      p.is_sparse() ? p.sparse_values() : p.dense_values();
  for (float v : vals) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// The strict-contract checks of TrySolve (Solve keeps its historical
// clamping behavior and skips these).
Status ValidateSolveInput(const PointSet& points, const SolveOptions& o) {
  if (o.k == 0) {
    return InvalidArgumentError("k must be at least 1");
  }
  if (o.k > points.size()) {
    return InvalidArgumentError("k (" + std::to_string(o.k) +
                                ") exceeds the input size (" +
                                std::to_string(points.size()) + ")");
  }
  if (o.k_prime != 0 && o.k_prime < o.k) {
    return InvalidArgumentError("k_prime (" + std::to_string(o.k_prime) +
                                ") must be 0 (auto) or at least k (" +
                                std::to_string(o.k) + ")");
  }
  if ((o.backend == Backend::kStreamingTwoPass ||
       o.backend == Backend::kMapReduceGeneralized) &&
      !RequiresInjectiveProxies(o.problem)) {
    return InvalidArgumentError(
        "backend '" + BackendName(o.backend) +
        "' uses generalized core-sets, which the paper defines only for "
        "injective-proxy problems; '" +
        ProblemName(o.problem) + "' is not one");
  }
  for (size_t i = 0; i < points.size(); ++i) {
    if (!PointIsFinite(points[i])) {
      return InvalidArgumentError("input point " + std::to_string(i) +
                                  " has a non-finite (NaN/inf) coordinate");
    }
  }
  return OkStatus();
}

}  // namespace

namespace {

// The streaming backends consume the retained value-typed points (the
// stream engines copy what they keep); the MapReduce drivers take the
// Dataset itself and hand each reducer a row view of it.
StatusOr<SolveResult> TrySolveStreamingOrMr(const Dataset& data,
                                            const Metric& metric,
                                            const SolveOptions& o) {
  const PointSet& points = data.points();
  SolveResult result;
  switch (o.backend) {
    case Backend::kSequential:
      DIVERSE_CHECK(false);  // handled by the Solve overloads
      break;
    case Backend::kStreaming: {
      StreamingDiversity sd(&metric, o.problem, o.k, o.k_prime);
      for (const Point& p : points) sd.Update(p);
      result = FromStreaming(sd.Finalize());
      result.rounds_or_passes = 1;
      break;
    }
    case Backend::kStreamingTwoPass: {
      TwoPassStreamingDiversity sd(&metric, o.problem, o.k, o.k_prime);
      for (const Point& p : points) sd.UpdateFirstPass(p);
      sd.EndFirstPass();
      for (const Point& p : points) sd.UpdateSecondPass(p);
      result = FromStreaming(sd.Finalize());
      result.rounds_or_passes = 2;
      break;
    }
    case Backend::kMapReduce:
    case Backend::kMapReduceRandomized:
    case Backend::kMapReduceGeneralized:
    case Backend::kMapReduceRecursive: {
      MrOptions mr;
      mr.k = o.k;
      mr.k_prime = o.k_prime;
      mr.num_partitions = o.num_partitions;
      mr.num_workers = o.num_workers;
      mr.seed = o.seed;
      mr.randomized_delegate_cap =
          (o.backend == Backend::kMapReduceRandomized);
      mr.max_retries = o.max_retries;
      mr.task_timeout_ms = o.task_timeout_ms;
      mr.allow_degraded = o.allow_degraded;
      mr.faults = o.faults;
      mr.engine = o.engine;
      mr.tree_reduce = o.tree_reduce;
      MapReduceDiversity driver(&metric, o.problem, mr);
      StatusOr<MrResult> run =
          o.backend == Backend::kMapReduceGeneralized
              ? driver.TryRunGeneralized(data)
              : o.backend == Backend::kMapReduceRecursive
                    ? driver.TryRunRecursive(data, o.local_memory_budget)
                    : driver.TryRun(data);
      if (!run.ok()) return run.status();
      result = FromMr(*run);
      break;
    }
  }
  return result;
}

SolveResult SolveStreamingOrMr(const Dataset& data, const Metric& metric,
                               const SolveOptions& o) {
  StatusOr<SolveResult> result = TrySolveStreamingOrMr(data, metric, o);
  if (!result.ok()) {
    std::fprintf(stderr, "Solve failed: %s\n",
                 result.status().ToString().c_str());
  }
  DIVERSE_CHECK(result.ok());
  return std::move(*result);
}

}  // namespace

SolveResult Solve(const Dataset& data, const Metric& metric,
                  const SolveOptions& options) {
  // Empty input: empty solution with zero diversity, on every backend (the
  // algorithms themselves require n >= 1; the API normalizes the vacuous
  // case so callers feeding live streams need no emptiness pre-check).
  if (data.empty()) return {};
  SolveOptions o = Normalize(options);
  // The flag can only disable screening for this call; when true the
  // process-global default (on unless SetScreeningEnabled(false)) applies.
  ScopedScreening screening_guard(o.screening && ScreeningEnabled());
  ScopedIndexing indexing_guard(o.indexing && IndexingEnabled());
  Timer timer;
  SolveResult result;
  if (o.backend == Backend::kSequential) {
    size_t k = std::min(o.k, data.size());
    std::vector<size_t> picked = SolveSequential(o.problem, data, metric, k);
    for (size_t idx : picked) result.solution.push_back(data.point(idx));
    // Evaluate straight off the dataset rows (tiled restricted matrix);
    // bit-identical to evaluating the copied solution PointSet.
    result.diversity = EvaluateDiversitySubset(o.problem, data, picked, metric);
  } else {
    result = SolveStreamingOrMr(data, metric, o);
  }
  result.seconds = timer.Seconds();
  return result;
}

SolveResult Solve(const PointSet& points, const Metric& metric,
                  const SolveOptions& options) {
  return Solve(Dataset::FromPoints(points), metric, options);
}

StatusOr<SolveResult> TrySolve(const Dataset& data, const Metric& metric,
                               const SolveOptions& options) {
  DIVERSE_RETURN_IF_ERROR(ValidateSolveInput(data.points(), options));
  SolveOptions o = Normalize(options);
  ScopedScreening screening_guard(o.screening && ScreeningEnabled());
  ScopedIndexing indexing_guard(o.indexing && IndexingEnabled());
  Timer timer;
  SolveResult result;
  if (o.backend == Backend::kSequential) {
    // k <= n is validated above, so no clamping happens here.
    std::vector<size_t> picked = SolveSequential(o.problem, data, metric, o.k);
    for (size_t idx : picked) result.solution.push_back(data.point(idx));
    result.diversity = EvaluateDiversitySubset(o.problem, data, picked, metric);
  } else {
    StatusOr<SolveResult> run = TrySolveStreamingOrMr(data, metric, o);
    if (!run.ok()) return run.status();
    result = std::move(*run);
  }
  result.seconds = timer.Seconds();
  return result;
}

StatusOr<SolveResult> TrySolve(const PointSet& points, const Metric& metric,
                               const SolveOptions& options) {
  return TrySolve(Dataset::FromPoints(points), metric, options);
}

}  // namespace diverse
