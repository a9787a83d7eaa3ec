#include "mapreduce/mr_diversity.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "comm/serialize.h"
#include "core/generalized_coreset.h"
#include "core/sequential.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

namespace {

bool PointIsFinite(const Point& p) {
  const std::vector<float>& vals =
      p.is_sparse() ? p.sparse_values() : p.dense_values();
  for (float v : vals) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// Deterministic single-coordinate corruption (NaN) used to simulate
// wrong-output and corrupted-partition faults. The validators below are the
// detection side of the same coin.
Point GarblePoint(const Point& p, uint64_t sub_seed) {
  const float bad = std::numeric_limits<float>::quiet_NaN();
  if (p.is_sparse()) {
    std::vector<uint32_t> idx = p.sparse_indices();
    std::vector<float> val = p.sparse_values();
    if (val.empty()) return p;
    val[sub_seed % val.size()] = bad;
    return Point::Sparse(std::move(idx), std::move(val), p.dim());
  }
  std::vector<float> val = p.dense_values();
  if (val.empty()) return p;
  val[sub_seed % val.size()] = bad;
  return Point::Dense(std::move(val));
}

void GarbleOne(PointSet* pts, uint64_t sub_seed) {
  if (pts->empty()) return;
  size_t t = sub_seed % pts->size();
  (*pts)[t] = GarblePoint((*pts)[t], sub_seed);
}

Status ValidateFinitePoints(const char* what, const std::string& round,
                            size_t task, const PointSet& pts) {
  for (size_t j = 0; j < pts.size(); ++j) {
    if (!PointIsFinite(pts[j])) {
      return DataLossError(std::string(what) +
                           " contains a non-finite coordinate (round '" +
                           round + "', task " + std::to_string(task) +
                           ", point " + std::to_string(j) + ")");
    }
  }
  return OkStatus();
}

// The finiteness check of a row-view partition, over the rows' columnar
// values in place (no gather).
Status ValidateFiniteRows(const char* what, const std::string& round,
                          size_t task, const PartitionRef& part) {
  for (size_t j = 0; j < part.size(); ++j) {
    const kernels::VecView v = part.data.row(part.rows[j]);
    for (uint32_t c = 0; c < v.nnz; ++c) {
      if (!std::isfinite(v.values[c])) {
        return DataLossError(std::string(what) +
                             " contains a non-finite coordinate (round '" +
                             round + "', task " + std::to_string(task) +
                             ", point " + std::to_string(j) + ")");
      }
    }
  }
  return OkStatus();
}

// The input check of one reducer attempt over its partition. A
// corrupted-partition fault garbles an in-task gathered copy and validates
// that copy — the input the attempt would compute on — while the pristine
// rows stay untouched, so the retry re-reads them and recovers bit-
// identically. (Should the garble find no coordinate to corrupt, the copy
// equals the rows and the attempt proceeds on them.)
Status ValidateTaskInput(const std::string& round, const MrTaskContext& ctx,
                         const PartitionRef& part) {
  if (ctx.fault == FaultKind::kCorruptPartition && !part.empty()) {
    PointSet corrupted = part.Gather();
    GarbleOne(&corrupted, ctx.fault_param);
    return ValidateFinitePoints("input partition", round, ctx.task, corrupted);
  }
  return ValidateFiniteRows("input partition", round, ctx.task, part);
}

// A core-set of a non-empty partition is non-empty and every coordinate is
// finite. (No upper size bound: GMM-EXT may emit repeated entries when the
// partition holds duplicate points, so the core-set can exceed the
// partition's point count.) Violations mean the attempt's output cannot be
// trusted and the task must re-execute.
Status ValidateCoresetOutput(const std::string& round, size_t task,
                             const PointSet& coreset, size_t part_size) {
  if (coreset.empty() != (part_size == 0)) {
    return DataLossError("core-set output size " +
                         std::to_string(coreset.size()) +
                         " inconsistent with partition size " +
                         std::to_string(part_size) + " (round '" + round +
                         "', task " + std::to_string(task) + ")");
  }
  return ValidateFinitePoints("core-set output", round, task, coreset);
}

Status ValidateGenEntries(const char* what, const std::string& round,
                          size_t task, const GeneralizedCoreset& gen) {
  for (size_t e = 0; e < gen.entries().size(); ++e) {
    const WeightedPoint& wp = gen.entries()[e];
    if (wp.multiplicity == 0) {
      return DataLossError(std::string(what) +
                           " has a zero multiplicity (round '" + round +
                           "', task " + std::to_string(task) + ", entry " +
                           std::to_string(e) + ")");
    }
    if (!PointIsFinite(wp.point)) {
      return DataLossError(std::string(what) +
                           " contains a non-finite coordinate (round '" +
                           round + "', task " + std::to_string(task) +
                           ", entry " + std::to_string(e) + ")");
    }
  }
  return OkStatus();
}

GeneralizedCoreset GarbleGen(const GeneralizedCoreset& gen,
                             uint64_t sub_seed) {
  GeneralizedCoreset out;
  if (gen.size() == 0) return out;
  size_t target = sub_seed % gen.size();
  for (size_t e = 0; e < gen.entries().size(); ++e) {
    const WeightedPoint& wp = gen.entries()[e];
    out.Add(e == target ? GarblePoint(wp.point, sub_seed) : wp.point,
            wp.multiplicity);
  }
  return out;
}

// The engine-call identity of one reducer attempt. Transport faults ride
// along so the engine (not the executor) inflicts them — the executor
// already counted the probe; data faults stay in the reducer body.
// `cache_key` is the partition's round-level content stamp (0 = unkeyed).
TaskEnvelope MakeEnvelope(const std::string& round, const MrTaskContext& ctx,
                          uint64_t cache_key = 0) {
  TaskEnvelope env;
  env.round = round;
  env.task = ctx.task;
  env.attempt = ctx.attempt;
  env.cache_key = cache_key;
  if (IsTransportFault(ctx.fault)) {
    env.fault = ctx.fault;
    env.fault_param = ctx.fault_param;
  }
  return env;
}

// Per-partition content stamps, computed ONCE per driver run rather than
// per attempt: every retry and speculative re-launch of a task reuses the
// same key, so a re-ship after a crash (or a second solve over the same
// corpus) hits the worker's partition cache instead of re-fingerprinting
// and re-serializing. Each key is read off the input's retained points
// (FingerprintRows), equal to the stamp of the gathered partition the
// worker verifies. Empty when the engine has no cache to feed — loopback
// runs pay nothing for the machinery.
std::vector<uint64_t> PartitionCacheKeys(
    const CommunicationEngine& engine, const Dataset& data,
    const std::vector<std::vector<uint32_t>>& blocks) {
  if (!engine.WantsPartitionCacheKeys()) return {};
  std::vector<uint64_t> keys(blocks.size(), 0);
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (!blocks[i].empty()) keys[i] = FingerprintRows(data, blocks[i]);
  }
  return keys;
}

Status AnnotateRoundFailure(const std::string& round_name,
                            const Status& error) {
  return Status(error.code(), "round '" + round_name +
                                  "' permanently failed: " + error.message());
}

// Folds the permanently-failed tasks of a partition-level round into the
// run's degradation certificate: the failed partitions are dropped and the
// certificate records how much of the input the remaining guarantee still
// covers. Returns the round error when degradation is disallowed or no
// input point survives.
Status ApplyRoundDegradation(const std::string& round_name,
                             const std::vector<std::vector<uint32_t>>& blocks,
                             const RoundOutcome& outcome, bool allow_degraded,
                             std::optional<DegradedResult>* degraded) {
  if (outcome.ok()) return OkStatus();
  if (!allow_degraded) {
    return Status(outcome.first_error.code(),
                  "round '" + round_name + "' permanently failed " +
                      std::to_string(outcome.failed_tasks.size()) +
                      " task(s) and degradation is disabled: " +
                      outcome.first_error.message());
  }
  size_t total = 0;
  size_t lost = 0;
  for (const std::vector<uint32_t>& b : blocks) total += b.size();
  for (size_t f : outcome.failed_tasks) lost += blocks[f].size();
  if (total > 0 && lost >= total) {
    return DataLossError("round '" + round_name +
                         "': every input point was in a permanently failed "
                         "partition; last error: " +
                         outcome.first_error.message());
  }
  if (!degraded->has_value()) degraded->emplace();
  DegradedResult& d = **degraded;
  for (size_t f : outcome.failed_tasks) d.failed_partitions.push_back(f);
  d.total_points += total;
  d.surviving_points += total - lost;
  if (total > 0) {
    d.surviving_fraction *= static_cast<double>(total - lost) /
                            static_cast<double>(total);
  }
  return OkStatus();
}

}  // namespace

MapReduceDiversity::MapReduceDiversity(const Metric* metric,
                                       DiversityProblem problem,
                                       const MrOptions& options)
    : metric_(metric), problem_(problem), options_(options) {
  DIVERSE_CHECK(metric != nullptr);
  DIVERSE_CHECK_GE(options.k, 1u);
  DIVERSE_CHECK_GE(options.k_prime, options.k);
  DIVERSE_CHECK_GE(options.num_partitions, 1u);
  DIVERSE_CHECK_GE(options.num_workers, 1u);
}

void AccumulateRoundStats(const MapReduceSimulator& sim, MrResult* result) {
  result->rounds = sim.num_rounds();
  for (const RoundStats& r : sim.rounds()) {
    result->round_seconds.push_back(r.wall_seconds);
    result->max_local_memory_points =
        std::max(result->max_local_memory_points, r.MaxInputPoints());
    result->shuffle_points += r.TotalOutputPoints();
    result->task_attempts += r.attempts;
    result->task_retries += r.retries;
    result->task_timeouts += r.timeouts;
    result->faults_injected += r.faults_injected;
  }
}

CoresetSpec MapReduceDiversity::MakeCoresetSpec(size_t part_size,
                                                size_t input_size) const {
  CoresetSpec spec;
  spec.k_prime = std::min(options_.k_prime, std::max<size_t>(part_size, 1));
  spec.extended = RequiresInjectiveProxies(problem_);
  if (!spec.extended) return spec;
  spec.delegates = options_.k - 1;
  if (options_.randomized_delegate_cap) {
    // Theorem 7: with a random partition, no part holds more than
    // Theta(max(log n, k/l)) points of any optimal solution w.h.p., so that
    // many delegates per cluster suffice. The deterministic k-1 is always
    // enough, so the cap never exceeds it.
    size_t log_n = static_cast<size_t>(
        std::ceil(std::log2(static_cast<double>(std::max<size_t>(input_size, 2)))));
    size_t k_over_l =
        (options_.k + options_.num_partitions - 1) / options_.num_partitions;
    spec.delegates = std::min(options_.k - 1, std::max(log_n, k_over_l));
  }
  return spec;
}

std::vector<std::vector<uint32_t>> MapReduceDiversity::PartitionInput(
    const Dataset& data, size_t num_parts, uint64_t seed) const {
  // Reducers read the rows' retained points (PartitionRef).
  DIVERSE_CHECK_EQ(data.points().size(), data.size());
  return PartitionRows(data.points(), num_parts, options_.partition, seed,
                       metric_);
}

FallibleRoundOptions MapReduceDiversity::ExecPolicy() const {
  FallibleRoundOptions exec;
  exec.max_attempts = options_.max_retries + 1;
  exec.task_timeout_ms = options_.task_timeout_ms;
  exec.faults = options_.faults;
  exec.clock = options_.clock;
  return exec;
}

Status MapReduceDiversity::CoresetRound(
    MapReduceSimulator* sim, CommunicationEngine* engine,
    const std::string& round_name, const Dataset& data,
    const std::vector<std::vector<uint32_t>>& blocks, size_t input_size,
    std::vector<PointSet>* coresets,
    std::optional<DegradedResult>* degraded) const {
  coresets->assign(blocks.size(), PointSet{});
  const std::vector<uint64_t> part_keys =
      PartitionCacheKeys(*engine, data, blocks);
  RoundOutcome outcome = sim->RunFallibleRound(
      round_name, blocks.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        const PartitionRef part{data, blocks[i]};
        DIVERSE_RETURN_IF_ERROR(ValidateTaskInput(round_name, ctx, part));
        StatusOr<PointSet> cs_or = engine->Coreset(
            MakeEnvelope(round_name, ctx,
                         part_keys.empty() ? 0 : part_keys[i]),
            part, MakeCoresetSpec(part.size(), input_size));
        if (!cs_or.ok()) return cs_or.status();
        PointSet cs = std::move(*cs_or);
        if (ctx.fault == FaultKind::kEmptyOutput) cs.clear();
        if (ctx.fault == FaultKind::kWrongOutput) GarbleOne(&cs, ctx.fault_param);
        DIVERSE_RETURN_IF_ERROR(
            ValidateCoresetOutput(round_name, i, cs, part.size()));
        *commit = [coresets, i, out = std::move(cs)]() mutable {
          (*coresets)[i] = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t i) { return blocks[i].size(); },
      [&](size_t i) { return (*coresets)[i].size(); });
  return ApplyRoundDegradation(round_name, blocks, outcome,
                               options_.allow_degraded, degraded);
}

Status MapReduceDiversity::TreeReduce(MapReduceSimulator* sim,
                                      CommunicationEngine* engine,
                                      std::vector<PointSet>* coresets) const {
  std::vector<PointSet> layer = std::move(*coresets);
  int level = 0;
  while (layer.size() > 1) {
    const size_t pairs = layer.size() / 2;
    std::vector<PointSet> next((layer.size() + 1) / 2);
    if (layer.size() % 2 == 1) next.back() = std::move(layer.back());
    const std::string round_name = "reduce-l" + std::to_string(level);
    RoundOutcome outcome = sim->RunFallibleRound(
        round_name, pairs,
        [&](const MrTaskContext& ctx,
            std::function<void()>* commit) -> Status {
          const size_t i = ctx.task;
          StatusOr<PointSet> merged = engine->MergeCoresets(
              MakeEnvelope(round_name, ctx), layer[2 * i], layer[2 * i + 1]);
          if (!merged.ok()) return merged.status();
          PointSet out = std::move(*merged);
          if (ctx.fault == FaultKind::kEmptyOutput) out.clear();
          // A merge holds no pristine partition to corrupt, so both data
          // faults garble the output; validation catches either.
          if (ctx.fault == FaultKind::kWrongOutput ||
              ctx.fault == FaultKind::kCorruptPartition) {
            GarbleOne(&out, ctx.fault_param);
          }
          const size_t want = layer[2 * i].size() + layer[2 * i + 1].size();
          if (out.size() != want) {
            return DataLossError(
                "merge produced " + std::to_string(out.size()) + " of " +
                std::to_string(want) + " points (round '" + round_name +
                "', task " + std::to_string(i) + ")");
          }
          DIVERSE_RETURN_IF_ERROR(
              ValidateFinitePoints("merged core-set", round_name, i, out));
          *commit = [&next, i, o = std::move(out)]() mutable {
            next[i] = std::move(o);
          };
          return OkStatus();
        },
        ExecPolicy(),
        [&](size_t i) { return layer[2 * i].size() + layer[2 * i + 1].size(); },
        [&](size_t i) { return next[i].size(); });
    if (!outcome.ok()) {
      return AnnotateRoundFailure(round_name, outcome.first_error);
    }
    layer = std::move(next);
    ++level;
  }
  *coresets = std::move(layer);
  return OkStatus();
}

StatusOr<MrResult> MapReduceDiversity::TryRun(const Dataset& input) const {
  Timer total;
  MrResult result;
  MapReduceSimulator sim(options_.num_workers);
  LoopbackEngine fallback(metric_, problem_);
  CommunicationEngine* engine =
      options_.engine != nullptr ? options_.engine : &fallback;

  const std::vector<std::vector<uint32_t>> blocks =
      PartitionInput(input, options_.num_partitions, options_.seed);

  // Round 1: one reducer per partition computes its composable core-set.
  // Permanently failed partitions are dropped here (their core-set slot
  // stays empty) and accounted in `degraded`.
  std::vector<PointSet> coresets;
  std::optional<DegradedResult> degraded;
  DIVERSE_RETURN_IF_ERROR(CoresetRound(&sim, engine, "coreset", input, blocks,
                                       input.size(), &coresets, &degraded));

  // Optional reduce rounds: collapse the core-set list through a binary
  // merge tree. Order-preserving concatenation is associative, so the lone
  // survivor equals the inline union below and the solve is unchanged.
  if (options_.tree_reduce) {
    DIVERSE_RETURN_IF_ERROR(TreeReduce(&sim, engine, &coresets));
  }

  // Final round: a single reducer aggregates T = union of (surviving)
  // core-sets and runs the sequential approximation on it. With one reducer
  // there is nothing to degrade to: permanent failure is fatal.
  size_t agg_input = 0;
  for (const PointSet& c : coresets) agg_input += c.size();
  size_t coreset_size = 0;
  PointSet solution;
  RoundOutcome solve = sim.RunFallibleRound(
      "solve", 1,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        PointSet united;
        united.reserve(agg_input);
        for (const PointSet& c : coresets) {
          united.insert(united.end(), c.begin(), c.end());
        }
        if (ctx.fault == FaultKind::kCorruptPartition) {
          GarbleOne(&united, ctx.fault_param);
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("aggregated core-set", "solve", 0, united));
        const size_t k = std::min(options_.k, united.size());
        const size_t agg_size = united.size();
        StatusOr<PointSet> sol_or =
            engine->Solve(MakeEnvelope("solve", ctx), united, options_.k);
        if (!sol_or.ok()) return sol_or.status();
        PointSet sol = std::move(*sol_or);
        if (ctx.fault == FaultKind::kEmptyOutput) sol.clear();
        if (ctx.fault == FaultKind::kWrongOutput) GarbleOne(&sol, ctx.fault_param);
        if (sol.size() != k) {
          return DataLossError("solve produced " + std::to_string(sol.size()) +
                               " of " + std::to_string(k) +
                               " requested points");
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("solution", "solve", 0, sol));
        *commit = [&, agg_size, out = std::move(sol)]() mutable {
          coreset_size = agg_size;
          solution = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t) { return agg_input; },
      [&](size_t) { return solution.size(); });
  if (!solve.ok()) return AnnotateRoundFailure("solve", solve.first_error);

  result.solution = std::move(solution);
  result.diversity = EvaluateDiversity(problem_, result.solution, *metric_);
  result.coreset_size = coreset_size;
  if (degraded.has_value()) {
    degraded->approx_factor = 2.0 * SequentialAlpha(problem_);
    result.degraded = std::move(degraded);
  }
  AccumulateRoundStats(sim, &result);
  result.total_seconds = total.Seconds();
  return result;
}

StatusOr<MrResult> MapReduceDiversity::TryRunGeneralized(
    const Dataset& input) const {
  DIVERSE_CHECK(RequiresInjectiveProxies(problem_));
  Timer total;
  MrResult result;
  MapReduceSimulator sim(options_.num_workers);
  LoopbackEngine fallback(metric_, problem_);
  CommunicationEngine* engine =
      options_.engine != nullptr ? options_.engine : &fallback;

  const std::vector<std::vector<uint32_t>> blocks =
      PartitionInput(input, options_.num_partitions, options_.seed);

  // Round 1: GMM-GEN per partition; keep each kernel's range so the
  // instantiation radius r_T = max_i r_{T_i} is known. Failed partitions are
  // dropped (empty generalized core-set, range 0) and excluded from round 3.
  // One fingerprint pass serves both partition-shipping rounds (1 and 3):
  // the instantiate round's by-ref requests hit the partitions the
  // gen-coreset round already shipped into the worker caches.
  const std::vector<uint64_t> part_keys =
      PartitionCacheKeys(*engine, input, blocks);
  std::vector<GeneralizedCoreset> gens(blocks.size());
  std::vector<double> ranges(blocks.size(), 0.0);
  RoundOutcome gen_round = sim.RunFallibleRound(
      "gen-coreset", blocks.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        const PartitionRef part{input, blocks[i]};
        if (part.empty()) {
          *commit = [] {};  // empty core-set, range stays 0
          return OkStatus();
        }
        DIVERSE_RETURN_IF_ERROR(ValidateTaskInput("gen-coreset", ctx, part));
        size_t k_prime = std::min(options_.k_prime, part.size());
        StatusOr<GenCoresetResult> gen_or = engine->GenCoreset(
            MakeEnvelope("gen-coreset", ctx,
                         part_keys.empty() ? 0 : part_keys[i]),
            part, options_.k, k_prime);
        if (!gen_or.ok()) return gen_or.status();
        GeneralizedCoreset gen = std::move(gen_or->gen);
        double range = gen_or->range;
        if (ctx.fault == FaultKind::kEmptyOutput) {
          gen = GeneralizedCoreset();
          range = 0.0;
        }
        if (ctx.fault == FaultKind::kWrongOutput) {
          gen = GarbleGen(gen, ctx.fault_param);
        }
        if (gen.size() == 0) {
          return DataLossError(
              "generalized core-set is empty for a non-empty partition "
              "(round 'gen-coreset', task " +
              std::to_string(i) + ")");
        }
        if (!std::isfinite(range) || range < 0.0) {
          return DataLossError("non-finite kernel range (round 'gen-coreset', "
                               "task " +
                               std::to_string(i) + ")");
        }
        DIVERSE_RETURN_IF_ERROR(ValidateGenEntries(
            "generalized core-set output", "gen-coreset", i, gen));
        *commit = [&gens, &ranges, i, out = std::move(gen), range]() mutable {
          gens[i] = std::move(out);
          ranges[i] = range;
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t i) { return blocks[i].size(); },
      [&](size_t i) { return gens[i].size(); });
  std::optional<DegradedResult> degraded;
  DIVERSE_RETURN_IF_ERROR(ApplyRoundDegradation(
      "gen-coreset", blocks, gen_round, options_.allow_degraded, &degraded));
  std::vector<bool> part_failed(blocks.size(), false);
  for (size_t f : gen_round.failed_tasks) part_failed[f] = true;
  double r_t = *std::max_element(ranges.begin(), ranges.end());

  // Round 2: one reducer merges the generalized core-sets and picks the
  // coherent subset T-hat of expanded size k (Fact 2). Single reducer:
  // permanent failure is fatal.
  GeneralizedCoreset selected;
  size_t merged_size = 0;
  for (const GeneralizedCoreset& g : gens) merged_size += g.size();
  RoundOutcome gsolve = sim.RunFallibleRound(
      "gen-solve", 1,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        GeneralizedCoreset merged = GeneralizedCoreset::Merge(gens);
        if (ctx.fault == FaultKind::kCorruptPartition) {
          merged = GarbleGen(merged, ctx.fault_param);
        }
        DIVERSE_RETURN_IF_ERROR(ValidateGenEntries(
            "merged generalized core-set", "gen-solve", 0, merged));
        const size_t k = std::min(options_.k, merged.ExpandedSize());
        StatusOr<GeneralizedCoreset> sel_or = engine->GenSolve(
            MakeEnvelope("gen-solve", ctx), merged, options_.k);
        if (!sel_or.ok()) return sel_or.status();
        GeneralizedCoreset sel = std::move(*sel_or);
        if (ctx.fault == FaultKind::kEmptyOutput) sel = GeneralizedCoreset();
        if (ctx.fault == FaultKind::kWrongOutput) {
          sel = GarbleGen(sel, ctx.fault_param);
        }
        if (sel.ExpandedSize() != k) {
          return DataLossError(
              "gen-solve selected expanded size " +
              std::to_string(sel.ExpandedSize()) + " of " + std::to_string(k) +
              " requested");
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateGenEntries("selected subset", "gen-solve", 0, sel));
        *commit = [&selected, out = std::move(sel)]() mutable {
          selected = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t) { return merged_size; },
      [&](size_t) { return selected.size(); });
  if (!gsolve.ok()) return AnnotateRoundFailure("gen-solve", gsolve.first_error);

  // Round 3: each surviving partition instantiates the selected pairs whose
  // kernel point it owns: m_p distinct delegates within r_T of p. Partitions
  // are disjoint, so per-partition instantiations are globally disjoint.
  // Every selected kernel point came from a surviving partition's core-set,
  // so skipping failed partitions still assigns every entry.
  std::vector<GeneralizedCoreset> per_part(blocks.size());
  {
    std::vector<bool> assigned(selected.size(), false);
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (part_failed[i]) continue;
      for (size_t e = 0; e < selected.size(); ++e) {
        if (assigned[e]) continue;
        const Point& p = selected.entries()[e].point;
        for (uint32_t row : blocks[i]) {
          if (input.point(row) == p) {
            per_part[i].Add(p, selected.entries()[e].multiplicity);
            assigned[e] = true;
            break;
          }
        }
      }
    }
    for (size_t e = 0; e < selected.size(); ++e) DIVERSE_CHECK(assigned[e]);
  }
  std::vector<PointSet> instantiated(blocks.size());
  RoundOutcome inst_round = sim.RunFallibleRound(
      "instantiate", blocks.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        if (per_part[i].size() == 0) {
          *commit = [] {};
          return OkStatus();
        }
        const PartitionRef part{input, blocks[i]};
        DIVERSE_RETURN_IF_ERROR(ValidateTaskInput("instantiate", ctx, part));
        StatusOr<PointSet> inst_or = engine->Instantiate(
            MakeEnvelope("instantiate", ctx,
                         part_keys.empty() ? 0 : part_keys[i]),
            per_part[i], part.Gather(), r_t);
        if (!inst_or.ok()) return inst_or.status();
        PointSet inst = std::move(*inst_or);
        if (ctx.fault == FaultKind::kEmptyOutput) inst.clear();
        if (ctx.fault == FaultKind::kWrongOutput) {
          GarbleOne(&inst, ctx.fault_param);
        }
        if (inst.size() != per_part[i].ExpandedSize()) {
          return DataLossError(
              "instantiation produced " + std::to_string(inst.size()) +
              " of " + std::to_string(per_part[i].ExpandedSize()) +
              " delegates (round 'instantiate', task " + std::to_string(i) +
              ")");
        }
        DIVERSE_RETURN_IF_ERROR(ValidateFinitePoints(
            "instantiated delegates", "instantiate", i, inst));
        *commit = [&instantiated, i, out = std::move(inst)]() mutable {
          instantiated[i] = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t i) { return blocks[i].size(); },
      [&](size_t i) { return instantiated[i].size(); });
  // Losing an instantiation loses selected solution points outright — the
  // result would silently be smaller than k, so this round never degrades.
  if (!inst_round.ok()) {
    return AnnotateRoundFailure("instantiate", inst_round.first_error);
  }

  for (PointSet& inst : instantiated) {
    result.solution.insert(result.solution.end(), inst.begin(), inst.end());
  }
  result.diversity = EvaluateDiversity(problem_, result.solution, *metric_);
  result.coreset_size = merged_size;
  if (degraded.has_value()) {
    degraded->approx_factor = 2.0 * SequentialAlpha(problem_);
    result.degraded = std::move(degraded);
  }
  AccumulateRoundStats(sim, &result);
  result.total_seconds = total.Seconds();
  return result;
}

StatusOr<MrResult> MapReduceDiversity::TryRunRecursive(
    const Dataset& input, size_t local_memory_budget) const {
  DIVERSE_CHECK_GE(local_memory_budget, options_.k_prime);
  Timer total;
  MrResult result;
  MapReduceSimulator sim(options_.num_workers);
  LoopbackEngine fallback(metric_, problem_);
  CommunicationEngine* engine =
      options_.engine != nullptr ? options_.engine : &fallback;

  // Level 0 partitions the input itself; every later level partitions the
  // previous level's aggregated core-sets, laid out in `aggregate`.
  const Dataset* current = &input;
  Dataset aggregate;
  std::optional<DegradedResult> degraded;
  int level = 0;
  // Compress through core-set rounds until one reducer can hold everything.
  // Degradation applies at every level; the certificate's survival fraction
  // is the product over levels.
  while (current->size() > local_memory_budget) {
    size_t parts_needed =
        (current->size() + local_memory_budget - 1) / local_memory_budget;
    const std::vector<std::vector<uint32_t>> blocks = PartitionInput(
        *current, parts_needed, options_.seed + static_cast<uint64_t>(level));
    std::vector<PointSet> coresets;
    DIVERSE_RETURN_IF_ERROR(CoresetRound(
        &sim, engine, "coreset-l" + std::to_string(level), *current, blocks,
        input.size(), &coresets, &degraded));
    PointSet next;
    for (PointSet& c : coresets) {
      next.insert(next.end(), c.begin(), c.end());
    }
    // Guard against non-progress (budget too tight for k' per part).
    if (next.size() >= current->size()) {
      return FailedPreconditionError(
          "recursive compression made no progress at level " +
          std::to_string(level) + " (" + std::to_string(next.size()) + " of " +
          std::to_string(current->size()) +
          " points remain); raise the local memory budget");
    }
    aggregate = Dataset(std::move(next));
    current = &aggregate;
    ++level;
  }

  PointSet solution;
  RoundOutcome solve = sim.RunFallibleRound(
      "solve", 1,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        PointSet local = current->points();
        if (ctx.fault == FaultKind::kCorruptPartition) {
          GarbleOne(&local, ctx.fault_param);
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("aggregated core-set", "solve", 0, local));
        const size_t k = std::min(options_.k, local.size());
        StatusOr<PointSet> sol_or =
            engine->Solve(MakeEnvelope("solve", ctx), local, options_.k);
        if (!sol_or.ok()) return sol_or.status();
        PointSet sol = std::move(*sol_or);
        if (ctx.fault == FaultKind::kEmptyOutput) sol.clear();
        if (ctx.fault == FaultKind::kWrongOutput) GarbleOne(&sol, ctx.fault_param);
        if (sol.size() != k) {
          return DataLossError("solve produced " + std::to_string(sol.size()) +
                               " of " + std::to_string(k) +
                               " requested points");
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("solution", "solve", 0, sol));
        *commit = [&solution, out = std::move(sol)]() mutable {
          solution = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t) { return current->size(); },
      [&](size_t) { return solution.size(); });
  if (!solve.ok()) return AnnotateRoundFailure("solve", solve.first_error);

  result.solution = std::move(solution);
  result.diversity = EvaluateDiversity(problem_, result.solution, *metric_);
  result.coreset_size = current->size();
  if (degraded.has_value()) {
    degraded->approx_factor = 2.0 * SequentialAlpha(problem_);
    result.degraded = std::move(degraded);
  }
  AccumulateRoundStats(sim, &result);
  result.total_seconds = total.Seconds();
  return result;
}

namespace {

MrResult UnwrapOrDie(StatusOr<MrResult> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "MapReduce run failed: %s\n",
                 result.status().ToString().c_str());
  }
  DIVERSE_CHECK(result.ok());
  return std::move(*result);
}

}  // namespace

StatusOr<MrResult> MapReduceDiversity::TryRun(const PointSet& input) const {
  return TryRun(Dataset::FromPoints(input));
}

StatusOr<MrResult> MapReduceDiversity::TryRunGeneralized(
    const PointSet& input) const {
  return TryRunGeneralized(Dataset::FromPoints(input));
}

StatusOr<MrResult> MapReduceDiversity::TryRunRecursive(
    const PointSet& input, size_t local_memory_budget) const {
  return TryRunRecursive(Dataset::FromPoints(input), local_memory_budget);
}

MrResult MapReduceDiversity::Run(const PointSet& input) const {
  return UnwrapOrDie(TryRun(input));
}

MrResult MapReduceDiversity::RunGeneralized(const PointSet& input) const {
  return UnwrapOrDie(TryRunGeneralized(input));
}

MrResult MapReduceDiversity::RunRecursive(const PointSet& input,
                                          size_t local_memory_budget) const {
  return UnwrapOrDie(TryRunRecursive(input, local_memory_budget));
}

}  // namespace diverse
