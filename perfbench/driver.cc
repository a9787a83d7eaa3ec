// End-to-end benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-dir <dir>] [--git-sha <sha>] [--src-digest <hex>]
//
// One caller runs a closed loop of TrySolve calls on one prebuilt Dataset:
// the next solve starts when the previous one returns. The workload's
// inputs are generated from --seed; set-up (generate, encode, parse,
// Dataset build, reference solve, worker spawn, warm-up solve) runs
// several times and reports its median. The timed loop then runs for
// --seconds, and at least long enough that the tail order statistic has
// ten samples beyond it and sits above the median. Every solve is checked:
// k points, a diversity equal to EvaluateDiversity recomputed on the
// solution, and a solution bit-identical to the warm-up solve of the same
// seed (on mr-socket the warm-up itself must match the loopback answer).
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the separate traced
// run: it alternates untraced and traced solves (the overhead of tracing is
// their ratio), then calls the partitioner, the wire codec, a streaming pass
// and the engine the workload does not use directly on the workload's
// inputs, prints the per-layer metrics and writes every span to
// <trace-dir>/<workload>-seed<n>.json.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every solve and check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/solve.h"
#include "comm/serialize.h"
#include "comm/socket_engine.h"
#include "core/cover_tree.h"
#include "core/dataset.h"
#include "core/diversity.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "core/vector_kernels.h"
#include "data/io.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "mapreduce/partitioner.h"
#include "measure.h"
#include "streaming/streaming_diversity.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace diverse;  // NOLINT(google-build-using-namespace)

constexpr DiversityProblem kProblem = DiversityProblem::kRemoteEdge;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 3;
// solve_tail_s is the highest order statistic with this many samples
// beyond it.
constexpr size_t kTailBeyond = 10;
// Enough timed solves that the tail statistic lies strictly above the
// median: with n samples the tail index n-11 exceeds the median index
// (n-1)/2 once n >= 22.
constexpr size_t kMinTimedSolves = 2 * kTailBeyond + 2;
// Untraced and traced solves each, in the traced run.
constexpr size_t kMinTracedSolves = 11;
// Repetitions of each standalone layer probe; per-layer values are medians.
constexpr size_t kProbeReps = 3;
// Worker processes of every SocketEngine the benchmark starts: as many as
// the workloads' simulator threads, so both engines run the same number of
// tasks at a time.
constexpr size_t kSocketWorkers = 4;

enum class Corpus { kSphere, kText };

// Every workload solves remote-edge with the 2-round MapReduce algorithm
// (Theorem 6) on `partitions` random partitions run by `sim_workers`
// simulator threads, over the in-process engine or a SocketEngine.
struct Workload {
  const char* name;
  Corpus corpus;
  size_t n;
  // Dimension of the sphere corpus, vocabulary of the text corpus.
  size_t dim;
  const char* metric;
  bool socket;
  size_t k;
  size_t k_prime;
  size_t partitions;
  size_t sim_workers;
};

// perfbench/README.md records why each workload was chosen.
const Workload kWorkloads[] = {
    {"mr-loopback", Corpus::kSphere, 500000, 16, "euclidean", false, 32, 128,
     8, 4},
    {"mr-socket", Corpus::kSphere, 500000, 16, "euclidean", true, 32, 128, 8,
     4},
    {"mr-sparse", Corpus::kText, 100000, 5000, "cosine", false, 16, 64, 8, 4},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--src-digest") {
      args->src_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// ---- Checks ----------------------------------------------------------

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SameBits(const PointSet& a, const PointSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Point& p = a[i];
    const Point& q = b[i];
    if (p.is_sparse() != q.is_sparse() || p.dim() != q.dim()) return false;
    if (p.is_sparse() ? !(p.sparse_indices() == q.sparse_indices() &&
                          SameBits(p.sparse_values(), q.sparse_values()))
                      : !SameBits(p.dense_values(), q.dense_values())) {
      return false;
    }
  }
  return true;
}

// "" when `r` holds k points whose diversity is exactly EvaluateDiversity
// recomputed on them and, when `expected` is given, the very same points;
// otherwise what is wrong.
std::string CheckSolve(const StatusOr<SolveResult>& r, size_t k,
                       const Metric& metric, const PointSet* expected) {
  if (!r.ok()) return "solve failed: " + r.status().ToString();
  if (r->solution.size() != k) {
    return "solution has " + std::to_string(r->solution.size()) +
           " points, want " + std::to_string(k);
  }
  const double recomputed = EvaluateDiversity(kProblem, r->solution, metric);
  if (std::memcmp(&recomputed, &r->diversity, sizeof(double)) != 0) {
    return "reported diversity " + JsonNumber(r->diversity) +
           " != recomputed " + JsonNumber(recomputed);
  }
  if (expected != nullptr && !SameBits(r->solution, *expected)) {
    return "solution differs from the reference solution of this seed";
  }
  return "";
}

// ---- Workload instance ------------------------------------------------

SolveOptions MakeOptions(const Workload& w, uint64_t seed,
                         CommunicationEngine* engine) {
  SolveOptions o;
  o.problem = kProblem;
  o.backend = Backend::kMapReduce;
  o.k = w.k;
  o.k_prime = w.k_prime;
  o.num_partitions = w.partitions;
  o.num_workers = w.sim_workers;
  o.seed = seed;
  o.engine = engine;
  return o;
}

SocketEngineOptions SocketOptions(const Workload& w) {
  SocketEngineOptions o;
  o.num_workers = kSocketWorkers;
  o.metric = w.metric;
  o.problem = kProblem;
  // Cache off: every solve ships every partition (see README.md).
  o.worker_cache_bytes = 0;
  return o;
}

PointSet Generate(const Workload& w, uint64_t seed) {
  if (w.corpus == Corpus::kSphere) {
    SphereDatasetOptions o;
    o.n = w.n;
    o.k = w.k;
    o.dim = w.dim;
    o.seed = seed;
    return GenerateSphereDataset(o);
  }
  SparseTextOptions o;
  o.n = w.n;
  o.vocab_size = static_cast<uint32_t>(w.dim);
  o.seed = seed;
  return GenerateSparseTextDataset(o);
}

// Everything the timed loop needs, built by one set-up.
struct Instance {
  std::unique_ptr<Metric> metric;
  Dataset data;
  double input_mb = 0.0;
  // div(SolveSequential) on the whole input: the diversity_ratio base.
  double reference_div = 0.0;
  std::unique_ptr<SocketEngine> socket;
  // The warm-up solution every later solve of this seed must reproduce.
  PointSet expected;

  CommunicationEngine* engine() const { return socket.get(); }
};

StatusOr<std::unique_ptr<Instance>> BuildInstance(const Workload& w,
                                                  uint64_t seed, Tracer* tr) {
  auto inst = std::make_unique<Instance>();
  ScopedSpan root(tr, "setup");
  inst->metric = MakeMetricByName(w.metric);
  PointSet parsed;
  {
    std::string bytes;
    {
      PointSet generated;
      {
        ScopedSpan s(tr, "data.generate", root.id());
        generated = Generate(w, seed);
      }
      ScopedSpan s(tr, "data.encode", root.id());
      bytes = EncodePointsBinary(generated);
    }
    inst->input_mb = static_cast<double>(bytes.size()) / 1e6;
    ScopedSpan s(tr, "data.parse", root.id());
    StatusOr<PointSet> p = TryParsePointsBinary(bytes, "<generated>");
    if (!p.ok()) return p.status();
    parsed = std::move(*p);
  }
  {
    ScopedSpan s(tr, "data.dataset_build", root.id());
    inst->data = Dataset(std::move(parsed));
  }
  {
    ScopedSpan s(tr, "core.reference_solve", root.id());
    const std::vector<size_t> picked =
        SolveSequential(kProblem, inst->data, *inst->metric, w.k);
    inst->reference_div =
        EvaluateDiversitySubset(kProblem, inst->data, picked, *inst->metric);
  }
  PointSet loopback_answer;
  if (w.socket) {
    {
      ScopedSpan s(tr, "comm.spawn", root.id());
      inst->socket = std::make_unique<SocketEngine>(SocketOptions(w));
      Status healthy = inst->socket->Healthy();
      if (!healthy.ok()) return healthy;
    }
    ScopedSpan s(tr, "setup.loopback_reference", root.id());
    StatusOr<SolveResult> r = TrySolve(
        inst->data, *inst->metric, MakeOptions(w, seed, nullptr));
    const std::string err = CheckSolve(r, w.k, *inst->metric, nullptr);
    if (!err.empty()) return InternalError("loopback reference: " + err);
    loopback_answer = std::move(r->solution);
  }
  ScopedSpan s(tr, "api.warmup_solve", root.id());
  StatusOr<SolveResult> r =
      TrySolve(inst->data, *inst->metric,
               MakeOptions(w, seed, inst->engine()));
  const std::string err = CheckSolve(
      r, w.k, *inst->metric, inst->socket ? &loopback_answer : nullptr);
  if (!err.empty()) return InternalError("warm-up solve: " + err);
  inst->expected = std::move(r->solution);
  return inst;
}

double WorkersCpuSeconds(const SocketEngine* engine) {
  double total = 0.0;
  for (size_t i = 0; engine != nullptr && i < kSocketWorkers; ++i) {
    total += ProcessCpuSeconds(engine->WorkerPidForTest(i));
  }
  return total;
}

double WorkersPeakRssMb(const SocketEngine* engine) {
  double peak = 0.0;
  for (size_t i = 0; engine != nullptr && i < kSocketWorkers; ++i) {
    peak = std::max(peak, ProcessPeakRssMb(engine->WorkerPidForTest(i)));
  }
  return peak;
}

// ---- Traced solves ----------------------------------------------------

// What one traced solve measured.
struct Observation {
  double api_s = 0.0;
  // CountingMetric totals; meaningful only on loopback, where the compute
  // runs in this process (socket workers resolve the metric by name).
  double exact_evals = 0.0;
  double screened_evals = 0.0;
  // From the engine-call spans.
  double engine_s = 0.0;
  double driver_self_s = 0.0;
  double coreset_round_s = 0.0;
  double coreset_task_p50_s = 0.0;
  double coreset_task_max_s = 0.0;
  double aggregate_solve_s = 0.0;
  double task_calls = 0.0;
  double task_failures = 0.0;
  double coreset_points = 0.0;
  // SocketEngine::stats() deltas and worker CPU (socket only).
  double ship_s = 0.0;
  double reply_s = 0.0;
  double request_mb = 0.0;
  double chunks = 0.0;
  double rpc_errors = 0.0;
  double respawns = 0.0;
  double worker_cpu_s = 0.0;
};

// Runs one solve with every instrument attached: a root "api.solve" span,
// a TracingEngine around the engine, a CountingMetric under the loopback
// engine (`socket` null), or socket stats and worker-CPU deltas. Returns
// the CheckSolve verdict against `expected`.
std::string TracedSolve(const Workload& w, uint64_t seed, const Instance& inst,
                        SocketEngine* socket, const PointSet& expected,
                        Tracer* tr, int64_t solve_id, Observation* obs) {
  CountingMetric counting(inst.metric.get());
  const Metric& metric =
      socket != nullptr ? *inst.metric : static_cast<const Metric&>(counting);
  // A fresh loopback engine per solve, as the driver builds when the
  // options name none.
  std::unique_ptr<LoopbackEngine> loopback;
  if (socket == nullptr) {
    loopback = std::make_unique<LoopbackEngine>(&counting, kProblem);
  }
  TracingEngine traced(socket != nullptr
                           ? static_cast<CommunicationEngine*>(socket)
                           : loopback.get(),
                       tr);
  const SocketEngineStats before =
      socket != nullptr ? socket->stats() : SocketEngineStats{};
  const double cpu_before = WorkersCpuSeconds(socket);

  const int64_t root = tr->Begin("api.solve", -1, solve_id);
  tr->SetCurrentSolve(root, solve_id);
  StatusOr<SolveResult> r = TrySolve(
      inst.data, metric, MakeOptions(w, seed, &traced));
  tr->SetCurrentSolve(-1, -1);
  tr->End(root, r.ok());

  *obs = Observation{};
  obs->exact_evals = static_cast<double>(counting.exact_evals());
  obs->screened_evals = static_cast<double>(counting.screened_evals());
  if (socket != nullptr) {
    const SocketEngineStats after = socket->stats();
    obs->ship_s = after.ship_seconds - before.ship_seconds;
    obs->reply_s = after.reply_seconds - before.reply_seconds;
    obs->request_mb = static_cast<double>(after.request_bytes_sent -
                                          before.request_bytes_sent) /
                      1e6;
    obs->chunks = static_cast<double>(after.chunks_sent - before.chunks_sent);
    obs->rpc_errors = static_cast<double>(after.rpc_errors - before.rpc_errors);
    obs->respawns = static_cast<double>(after.respawns - before.respawns);
    obs->worker_cpu_s = WorkersCpuSeconds(socket) - cpu_before;
  }
  if (r.ok()) obs->coreset_points = static_cast<double>(r->coreset_size);

  const std::vector<Span> spans = tr->Spans();
  obs->api_s = spans[static_cast<size_t>(root)].end -
               spans[static_cast<size_t>(root)].start;
  std::vector<std::pair<double, double>> engine_calls;
  std::vector<double> coreset_tasks;
  double round_start = 1e300;
  double round_end = -1e300;
  for (const Span& s : spans) {
    if (s.solve != solve_id || s.name.rfind("engine.", 0) != 0) continue;
    engine_calls.emplace_back(s.start, s.end);
    obs->task_calls += 1;
    if (!s.ok) obs->task_failures += 1;
    if (s.name == "engine.coreset") {
      coreset_tasks.push_back(s.end - s.start);
      round_start = std::min(round_start, s.start);
      round_end = std::max(round_end, s.end);
    } else if (s.name == "engine.solve") {
      obs->aggregate_solve_s += s.end - s.start;
    }
  }
  obs->engine_s = UnionLength(engine_calls);
  obs->driver_self_s = obs->api_s - obs->engine_s;
  if (!coreset_tasks.empty()) {
    obs->coreset_round_s = round_end - round_start;
    obs->coreset_task_p50_s = Median(coreset_tasks);
    obs->coreset_task_max_s =
        *std::max_element(coreset_tasks.begin(), coreset_tasks.end());
  }
  return CheckSolve(r, w.k, *inst.metric, &expected);
}

// Median of one Observation field over `obs`.
double MedianOf(const std::vector<Observation>& obs,
                double Observation::*field) {
  std::vector<double> v;
  for (const Observation& o : obs) v.push_back(o.*field);
  return Median(v);
}

// Durations of every span named `name`.
std::vector<double> SpanDurations(const Tracer& tr, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : tr.Spans()) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

// ---- Output -----------------------------------------------------------

struct Reading {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Reading>& metrics) {
  JsonObject m;
  for (const Reading& x : metrics) {
    m.Raw(x.name, JsonObject().Num("value", x.value).Str("unit", x.unit).Render());
  }
  JsonObject out;
  out.Bool("correct", correct)
      .Raw("attempted", std::to_string(attempted))
      .Raw("failed", std::to_string(failed))
      .Raw("metrics", m.Render());
  std::printf("%s\n", out.Render().c_str());
}

void PrintTable(const std::vector<Reading>& metrics) {
  for (const Reading& x : metrics) {
    std::printf("  %-34s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

// Failure bookkeeping shared by the timed loop, the traced run and probes.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  // Counts one checked operation; `err` is its CheckSolve-style verdict.
  void Check(const std::string& what, const std::string& err) {
    ++attempted;
    if (err.empty()) return;
    ++failed;
    std::fprintf(stderr, "%s: %s\n", what.c_str(), err.c_str());
  }
};

// The untraced closed loop: end-to-end metrics.
std::vector<Reading> TimedLoop(const Workload& w, const Args& args,
                               const Instance& inst,
                               const std::vector<double>& setup_times,
                               JsonObject* meta, Tally* tally) {
  std::vector<double> times;
  double ratio = 0.0;
  const auto [steal0, ticks0] = StealAndTotalTicks();
  const double cpu0 = SelfCpuSeconds() + WorkersCpuSeconds(inst.socket.get());
  Timer loop;
  while (loop.Seconds() < args.seconds || tally->attempted < kMinTimedSolves) {
    Timer t;
    StatusOr<SolveResult> r = TrySolve(
        inst.data, *inst.metric, MakeOptions(w, args.seed, inst.engine()));
    const double dt = t.Seconds();
    const std::string err = CheckSolve(r, w.k, *inst.metric, &inst.expected);
    tally->Check("solve " + std::to_string(tally->attempted + 1), err);
    if (!err.empty()) continue;
    times.push_back(dt);
    ratio = r->diversity / inst.reference_div;
  }
  const double cpu =
      SelfCpuSeconds() + WorkersCpuSeconds(inst.socket.get()) - cpu0;
  const auto [steal1, ticks1] = StealAndTotalTicks();
  meta->Num("steal_frac", ticks1 > ticks0
                              ? (steal1 - steal0) / (ticks1 - ticks0)
                              : 0.0);
  if (times.size() <= kTailBeyond) {
    tally->Check("timed loop", "too few successful solves for a tail");
    times.assign(kTailBeyond + 1, 0.0);
  }
  double total = 0.0;
  for (double t : times) total += t;
  const size_t rank = times.size() - kTailBeyond;
  std::printf("solves=%zu solve_tail_s=order statistic %zu of %zu (%zu "
              "samples beyond it, p%.1f)\n",
              times.size(), rank, times.size(), kTailBeyond,
              100.0 * static_cast<double>(rank) /
                  static_cast<double>(times.size()));
  const double attempted = static_cast<double>(tally->attempted);
  return {
      {"points_per_s",
       static_cast<double>(w.n) * static_cast<double>(times.size()) / total,
       "pts/s"},
      {"solve_p50_s", Median(times), "s"},
      {"solve_tail_s", TailValue(times, kTailBeyond), "s"},
      {"cpu_s_per_solve", cpu / attempted, "s"},
      {"setup_s", Median(setup_times), "s"},
      {"peak_rss_mb", SelfPeakRssMb(), "MB"},
      {"diversity_ratio", ratio, "ratio"},
      {"ok_ops_frac",
       (attempted - static_cast<double>(tally->failed)) / attempted, "ratio"},
  };
}

// The traced run: alternating untraced/traced solves, then one probe of
// every layer on this workload's input. Per-layer metrics.
std::vector<Reading> TracedRun(const Workload& w, const Args& args,
                               const Instance& inst, Tracer* tr,
                               JsonObject* meta, Tally* tally) {
  const Metric& metric = *inst.metric;
  std::vector<double> untraced;
  std::vector<Observation> own;
  int64_t next_solve = 0;
  Timer loop;
  while (loop.Seconds() < args.seconds || untraced.size() < kMinTracedSolves ||
         own.size() < kMinTracedSolves) {
    if (untraced.size() <= own.size()) {
      Timer t;
      StatusOr<SolveResult> r = TrySolve(
          inst.data, metric, MakeOptions(w, args.seed, inst.engine()));
      untraced.push_back(t.Seconds());
      tally->Check("untraced solve",
                   CheckSolve(r, w.k, metric, &inst.expected));
    } else {
      own.emplace_back();
      tally->Check("traced solve",
                   TracedSolve(w, args.seed, inst, inst.socket.get(),
                               inst.expected, tr, next_solve++, &own.back()));
    }
    if (tally->failed > 0 && loop.Seconds() > args.seconds) break;
  }

  // Standalone calls into the data-path layers, on this input.
  StreamingResult stream;
  PointSet part0;
  for (size_t rep = 0; rep < kProbeReps; ++rep) {
    std::vector<PointSet> parts;
    {
      ScopedSpan s(tr, "mapreduce.partition");
      parts = PartitionPoints(inst.data.points(), w.partitions,
                              PartitionStrategy::kRandom, args.seed, &metric);
    }
    WireRequest req;
    req.type = WireTaskType::kCoreset;
    req.metric = w.metric;
    req.problem = kProblem;
    req.round = "coreset";
    req.k_prime = std::min(w.k_prime, parts[0].size());
    std::string payload;
    {
      ScopedSpan s(tr, "comm.encode_partition");
      payload = EncodeWireRequest(req, &parts[0]);
    }
    const StatusOr<WireRequest> decoded = [&] {
      ScopedSpan s(tr, "comm.decode_partition");
      return TryDecodeWireRequest(payload);
    }();
    tally->Check("wire codec probe",
                 decoded.ok() && SameBits(decoded->points, parts[0])
                     ? ""
                     : "decoded partition differs from the encoded one");
    StreamingDiversity sd(&metric, kProblem, w.k, w.k_prime);
    {
      ScopedSpan s(tr, "streaming.update");
      for (const Point& p : inst.data.points()) sd.Update(p);
    }
    {
      ScopedSpan s(tr, "streaming.finalize");
      stream = sd.Finalize();
    }
    const double recomputed =
        EvaluateDiversity(kProblem, stream.solution, metric);
    tally->Check("streaming probe",
                 stream.solution.size() == w.k && recomputed == stream.diversity
                     ? ""
                     : "streaming pass returned an inconsistent solution");
    part0 = std::move(parts[0]);
  }
  const Dataset part0_data(std::move(part0));
  meta->Bool("index_gate_partition",
             UseIndexing(metric) &&
                 IndexProfitable(part0_data, metric, w.k_prime))
      .Bool("index_gate_full",
            UseIndexing(metric) && IndexProfitable(inst.data, metric, w.k));

  // The engine this workload does not use, once, on the same input: its
  // answer must be bit-identical. A socket workload takes its eval counts
  // from the loopback probe; a loopback workload its comm metrics from the
  // socket probe (the first call warms the fresh workers, the second is
  // measured).
  std::vector<Observation> probe(1);
  std::unique_ptr<SocketEngine> probe_engine;
  if (w.socket) {
    tally->Check("loopback probe",
                 TracedSolve(w, args.seed, inst, nullptr, inst.expected, tr,
                             next_solve++, &probe[0]));
  } else {
    {
      ScopedSpan s(tr, "comm.spawn");
      probe_engine = std::make_unique<SocketEngine>(SocketOptions(w));
    }
    Status healthy = probe_engine->Healthy();
    tally->Check("socket probe", healthy.ok() ? "" : healthy.ToString());
    for (int i = 0; healthy.ok() && i < 2; ++i) {
      tally->Check("socket probe",
                   TracedSolve(w, args.seed, inst, probe_engine.get(),
                               inst.expected, tr, next_solve++, &probe[0]));
    }
  }
  const std::vector<Observation>& counted = w.socket ? probe : own;
  const std::vector<Observation>& sock = w.socket ? own : probe;
  const double worker_peak_rss = WorkersPeakRssMb(
      w.socket ? inst.socket.get() : probe_engine.get());

  auto span_median = [&](const char* name) {
    return Median(SpanDurations(*tr, name));
  };
  const double exact = MedianOf(counted, &Observation::exact_evals);
  const double screened = MedianOf(counted, &Observation::screened_evals);
  const double api = MedianOf(own, &Observation::api_s);
  using O = Observation;
  return {
      {"data.generate_s", span_median("data.generate"), "s"},
      {"data.encode_s", span_median("data.encode"), "s"},
      {"data.parse_s", span_median("data.parse"), "s"},
      {"data.dataset_build_s", span_median("data.dataset_build"), "s"},
      {"data.input_mb", inst.input_mb, "MB"},
      {"core.reference_solve_s", span_median("core.reference_solve"), "s"},
      {"core.exact_evals", exact, "count"},
      {"core.screened_evals", screened, "count"},
      {"core.rescue_frac", screened > 0 ? exact / screened : 0.0, "ratio"},
      {"mapreduce.partition_s", span_median("mapreduce.partition"), "s"},
      {"mapreduce.driver_self_s", MedianOf(own, &O::driver_self_s), "s"},
      {"mapreduce.engine_s", MedianOf(own, &O::engine_s), "s"},
      {"mapreduce.coreset_round_s", MedianOf(own, &O::coreset_round_s), "s"},
      {"mapreduce.coreset_task_p50_s", MedianOf(own, &O::coreset_task_p50_s),
       "s"},
      {"mapreduce.coreset_task_max_s", MedianOf(own, &O::coreset_task_max_s),
       "s"},
      {"mapreduce.aggregate_solve_s", MedianOf(own, &O::aggregate_solve_s),
       "s"},
      {"mapreduce.coreset_points", MedianOf(own, &O::coreset_points), "count"},
      {"mapreduce.task_calls", MedianOf(own, &O::task_calls), "count"},
      {"mapreduce.task_failures", MedianOf(own, &O::task_failures), "count"},
      {"comm.spawn_s", span_median("comm.spawn"), "s"},
      {"comm.ship_s", MedianOf(sock, &O::ship_s), "s"},
      {"comm.reply_s", MedianOf(sock, &O::reply_s), "s"},
      {"comm.request_mb", MedianOf(sock, &O::request_mb), "MB"},
      {"comm.chunks", MedianOf(sock, &O::chunks), "count"},
      {"comm.encode_partition_s", span_median("comm.encode_partition"), "s"},
      {"comm.decode_partition_s", span_median("comm.decode_partition"), "s"},
      {"comm.worker_cpu_s_per_solve", MedianOf(sock, &O::worker_cpu_s), "s"},
      {"comm.worker_peak_rss_mb", worker_peak_rss, "MB"},
      {"comm.rpc_errors", MedianOf(sock, &O::rpc_errors), "count"},
      {"comm.respawns", MedianOf(sock, &O::respawns), "count"},
      {"streaming.update_s", span_median("streaming.update"), "s"},
      {"streaming.finalize_s", span_median("streaming.finalize"), "s"},
      {"streaming.phases", static_cast<double>(stream.phases), "count"},
      {"streaming.peak_memory_points",
       static_cast<double>(stream.peak_memory_points), "count"},
      {"streaming.coreset_size", static_cast<double>(stream.coreset_size),
       "count"},
      {"api.solve_s", api, "s"},
      {"api.warmup_solve_s", span_median("api.warmup_solve"), "s"},
      {"trace.overhead_frac", api / Median(untraced) - 1.0, "ratio"},
  };
}

int Run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  // Thread/process budget: every runnable compute thread gets a core.
  // Loopback solves (every set-up has one) run sim_workers reducers at
  // once, socket solves kSocketWorkers worker processes; each of them runs
  // kernels on a pool of kernel_threads. The engines never run at the same
  // time; the traced run starts the socket engine on every workload.
  const size_t nproc = AvailableCpus();
  const size_t kernel_threads = GlobalThreadPool().num_threads();
  const bool starts_workers = w.socket || args.trace;
  const size_t compute_threads =
      std::max(w.sim_workers, starts_workers ? kSocketWorkers : 0) *
      kernel_threads;
  const char* threads_env = std::getenv("DIVERSE_THREADS");
  JsonObject meta;
  meta.Str("workload", w.name)
      .Raw("seed", std::to_string(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Raw("nproc", std::to_string(nproc))
      .Str("DIVERSE_THREADS", threads_env != nullptr ? threads_env : "")
      .Raw("kernel_threads", std::to_string(kernel_threads))
      .Raw("sim_workers", std::to_string(w.sim_workers))
      .Raw("worker_processes",
           std::to_string(starts_workers ? kSocketWorkers : 0))
      .Raw("compute_threads", std::to_string(compute_threads))
      .Str("git_sha", args.git_sha)
      .Str("src_digest", args.src_digest)
      .Bool("avx2_kernels_compiled", DIVERSE_HAVE_AVX2_KERNELS != 0)
      .Bool("cpu_has_avx2", __builtin_cpu_supports("avx2"))
      .Raw("n", std::to_string(w.n))
      .Raw("k", std::to_string(w.k))
      .Raw("k_prime", std::to_string(w.k_prime))
      .Raw("partitions", std::to_string(w.partitions))
      .Raw("setup_reps", std::to_string(kSetupReps));
  if (compute_threads > nproc) {
    std::fprintf(stderr,
                 "refusing to run: %zu runnable compute threads (%zu kernel "
                 "threads each) exceed the %zu available CPUs\n",
                 compute_threads, kernel_threads, nproc);
    return 3;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Tracer tracer(args.trace);
  std::vector<double> setup_times;
  std::unique_ptr<Instance> inst;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    inst.reset();
    Timer timer;
    StatusOr<std::unique_ptr<Instance>> built =
        BuildInstance(w, args.seed, &tracer);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup_times.push_back(timer.Seconds());
    inst = std::move(*built);
  }

  Tally tally;
  std::vector<Reading> out;
  if (!args.trace) {
    out = TimedLoop(w, args, *inst, setup_times, &meta, &tally);
  } else {
    out = TracedRun(w, args, *inst, &tracer, &meta, &tally);
    const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.WriteJson(path, meta.Render())) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
    }
  }
  std::printf("meta %s\n", meta.Render().c_str());
  PrintTable(out);
  const bool correct = tally.failed == 0;
  PrintResult(correct, tally.attempted, tally.failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Kernel threads per process, inherited by socket workers; must be set
  // before the first kernel touches the global pool.
  setenv("DIVERSE_THREADS", "1", /*overwrite=*/0);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>] "
                 "[--git-sha <sha>] [--src-digest <hex>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
