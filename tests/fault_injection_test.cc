// Recovery-path tests for the fault-tolerant MapReduce executor: every
// scripted failure mode (crash, straggler, data corruption) must either be
// recovered bit-identically — deterministic re-execution — or degrade into
// a certified DegradedResult. Faults are deterministic (FaultInjector), so
// each scenario here is a reproducible unit test, not a flake.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "comm/socket_engine.h"
#include "core/dataset.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "mapreduce/fault_injector.h"
#include "mapreduce/mr_diversity.h"

namespace diverse {
namespace {

bool SameSolutions(const PointSet& a, const PointSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

MrOptions FaultyOptions(size_t k, size_t k_prime, size_t parts) {
  MrOptions o;
  o.k = k;
  o.k_prime = k_prime;
  o.num_partitions = parts;
  o.num_workers = 8;
  o.seed = 7;
  return o;
}

// ---------------------------------------------------------------------------
// FaultInjector unit tests.

TEST(FaultInjectorTest, EmptyInjectorNeverFires) {
  FaultInjector fi;
  EXPECT_TRUE(fi.empty());
  EXPECT_EQ(fi.Probe("coreset", 0, 0).kind, FaultKind::kNone);
}

TEST(FaultInjectorTest, ExplicitSpecFiresExactlyOnItsProbe) {
  FaultInjector fi;
  fi.Add({"coreset", 3, 1, FaultKind::kCrash, 0});
  EXPECT_FALSE(fi.empty());
  EXPECT_EQ(fi.Probe("coreset", 3, 1).kind, FaultKind::kCrash);
  // Any coordinate off by one misses.
  EXPECT_EQ(fi.Probe("coreset", 3, 0).kind, FaultKind::kNone);
  EXPECT_EQ(fi.Probe("coreset", 2, 1).kind, FaultKind::kNone);
  EXPECT_EQ(fi.Probe("solve", 3, 1).kind, FaultKind::kNone);
}

TEST(FaultInjectorTest, SeededDrawsAreDeterministicAndOrderIndependent) {
  FaultRates rates;
  rates.crash = 0.5;
  FaultInjector a = FaultInjector::Seeded(11, rates);
  FaultInjector b = FaultInjector::Seeded(11, rates);
  // Same (seed, probe) => same draw, in whatever order probes happen.
  std::vector<FaultKind> forward, backward;
  for (size_t t = 0; t < 32; ++t) forward.push_back(a.Probe("r", t, 0).kind);
  for (size_t t = 32; t-- > 0;) backward.push_back(b.Probe("r", t, 0).kind);
  for (size_t t = 0; t < 32; ++t) {
    EXPECT_EQ(forward[t], backward[31 - t]) << "task " << t;
  }
  // A 50% crash rate over 32 probes fires at least once.
  size_t fired = 0;
  for (FaultKind k : forward) fired += (k == FaultKind::kCrash);
  EXPECT_GT(fired, 0u);
  // A different seed gives a different (with overwhelming probability)
  // fault pattern.
  FaultInjector c = FaultInjector::Seeded(12, rates);
  size_t diffs = 0;
  for (size_t t = 0; t < 32; ++t) {
    diffs += (c.Probe("r", t, 0).kind != forward[t]);
  }
  EXPECT_GT(diffs, 0u);
}

TEST(FaultInjectorTest, ParseRoundTrip) {
  StatusOr<FaultInjector> fi = FaultInjector::Parse(
      "coreset:2:0:crash,coreset:5:0:straggler:100,solve:0:1:wrong-output");
  ASSERT_TRUE(fi.ok()) << fi.status().ToString();
  EXPECT_EQ(fi->num_specs(), 3u);
  EXPECT_EQ(fi->Probe("coreset", 2, 0).kind, FaultKind::kCrash);
  InjectedFault straggler = fi->Probe("coreset", 5, 0);
  EXPECT_EQ(straggler.kind, FaultKind::kStraggler);
  EXPECT_EQ(straggler.param, 100u);
  EXPECT_EQ(fi->Probe("solve", 0, 1).kind, FaultKind::kWrongOutput);
}

TEST(FaultInjectorTest, ParseRejectsMalformedSpecs) {
  for (const char* bad : {
           "coreset:2:0",              // too few fields
           "coreset:2:0:crash:1:2",    // too many fields
           "coreset:x:0:crash",        // non-numeric task
           "coreset:2:y:crash",        // non-numeric attempt
           "coreset:2:0:explode",      // unknown kind
           ":2:0:crash",               // empty round name
           "coreset:2:0:straggler:ms"  // non-numeric param
       }) {
    StatusOr<FaultInjector> fi = FaultInjector::Parse(bad);
    EXPECT_FALSE(fi.ok()) << bad;
    EXPECT_EQ(fi.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FaultInjectorTest, KindNamesRoundTripThroughParse) {
  for (FaultKind k : {FaultKind::kCrash, FaultKind::kEmptyOutput,
                      FaultKind::kWrongOutput, FaultKind::kCorruptPartition,
                      FaultKind::kStraggler}) {
    std::string spec = std::string("r:0:0:") + FaultKindName(k);
    StatusOr<FaultInjector> fi = FaultInjector::Parse(spec);
    ASSERT_TRUE(fi.ok()) << spec;
    EXPECT_EQ(fi->Probe("r", 0, 0).kind, k);
  }
}

TEST(FaultInjectorTest, TransportKindsParseAndClassify) {
  // The four transport kinds of the socket runtime parse through the same
  // round:task:attempt:kind[:param] grammar as the data faults, accept '_'
  // wherever '-' appears, and classify as IsTransportFault.
  struct Case {
    const char* name;
    const char* underscored;
    FaultKind kind;
  };
  const Case cases[] = {
      {"worker-crash", "worker_crash", FaultKind::kWorkerCrash},
      {"conn-drop", "conn_drop", FaultKind::kConnDrop},
      {"frame-corrupt", "frame_corrupt", FaultKind::kFrameCorrupt},
      {"reply-delay", "reply_delay", FaultKind::kReplyDelay},
  };
  for (const Case& c : cases) {
    for (const char* spelling : {c.name, c.underscored}) {
      std::string spec = std::string("coreset:3:1:") + spelling;
      StatusOr<FaultInjector> fi = FaultInjector::Parse(spec);
      ASSERT_TRUE(fi.ok()) << spec;
      EXPECT_EQ(fi->Probe("coreset", 3, 1).kind, c.kind) << spec;
      EXPECT_TRUE(IsTransportFault(c.kind)) << spec;
    }
    EXPECT_STREQ(FaultKindName(c.kind), c.name);
  }
  for (FaultKind data :
       {FaultKind::kNone, FaultKind::kCrash, FaultKind::kEmptyOutput,
        FaultKind::kWrongOutput, FaultKind::kCorruptPartition,
        FaultKind::kStraggler}) {
    EXPECT_FALSE(IsTransportFault(data));
  }
}

TEST(FaultInjectorTest, ReplyDelayParamParses) {
  StatusOr<FaultInjector> fi =
      FaultInjector::Parse("solve:0:0:reply-delay:75");
  ASSERT_TRUE(fi.ok());
  InjectedFault f = fi->Probe("solve", 0, 0);
  EXPECT_EQ(f.kind, FaultKind::kReplyDelay);
  EXPECT_EQ(f.param, 75u);
  // No param: 0 on the probe; the transport substitutes its default.
  StatusOr<FaultInjector> bare = FaultInjector::Parse("solve:0:0:reply-delay");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->Probe("solve", 0, 0).param, 0u);
}

TEST(FaultInjectorTest, ScheduleTextOrderIsIrrelevant) {
  // A schedule is a set keyed by (round, task, attempt): listing the specs
  // in any order yields an injector with identical probes everywhere.
  const char* fwd =
      "coreset:0:0:worker-crash,coreset:1:0:conn-drop,"
      "solve:0:1:reply-delay:40,coreset:2:1:frame-corrupt";
  const char* rev =
      "coreset:2:1:frame-corrupt,solve:0:1:reply-delay:40,"
      "coreset:1:0:conn-drop,coreset:0:0:worker-crash";
  StatusOr<FaultInjector> a = FaultInjector::Parse(fwd);
  StatusOr<FaultInjector> b = FaultInjector::Parse(rev);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const std::string& round : {std::string("coreset"), std::string("solve"),
                                   std::string("other")}) {
    for (size_t task = 0; task < 4; ++task) {
      for (size_t attempt = 0; attempt < 3; ++attempt) {
        InjectedFault fa = a->Probe(round, task, attempt);
        InjectedFault fb = b->Probe(round, task, attempt);
        EXPECT_EQ(fa.kind, fb.kind)
            << round << ":" << task << ":" << attempt;
        EXPECT_EQ(fa.param, fb.param)
            << round << ":" << task << ":" << attempt;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Executor recovery: transient faults are retried and the final solution is
// bit-identical to the fault-free run.

// The ISSUE acceptance scenario: a 16-partition run where a seeded schedule
// crashes three reducers' first attempts and delays a fourth past the
// straggler timeout must recover and match the fault-free solution bit for
// bit, with the recovery visible in the counters.
TEST(FaultInjectionTest, CrashesAndStragglerRecoverBitIdentical) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(800, 3, /*seed=*/21);
  MrOptions clean = FaultyOptions(6, 12, 16);
  MapReduceDiversity baseline(&m, DiversityProblem::kRemoteEdge, clean);
  StatusOr<MrResult> want = baseline.TryRun(pts);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "coreset:2:0:crash,coreset:7:0:crash,coreset:11:0:crash,"
      "coreset:5:0:straggler:400");
  ASSERT_TRUE(faults.ok());
  MrOptions faulty = clean;
  faulty.faults = &*faults;
  faulty.task_timeout_ms = 40;  // well under the 400ms straggler delay
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, faulty);
  StatusOr<MrResult> got = mr.TryRun(pts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_TRUE(SameSolutions(got->solution, want->solution));
  EXPECT_EQ(got->diversity, want->diversity);
  EXPECT_FALSE(got->degraded.has_value());
  // 3 crash retries + >= 1 speculative straggler duplicate.
  EXPECT_EQ(got->faults_injected, 4u);
  EXPECT_GE(got->task_retries, 4u);
  EXPECT_GE(got->task_timeouts, 1u);
  // Every attempt beyond the 17 per-task firsts (16 core-set + 1 solve) is
  // a retry or a speculative duplicate.
  EXPECT_EQ(got->task_attempts, 17u + got->task_retries);
}

TEST(FaultInjectionTest, DataFaultsAreCaughtByValidationAndRetried) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/22);
  MrOptions clean = FaultyOptions(5, 10, 8);
  MapReduceDiversity baseline(&m, DiversityProblem::kRemoteClique, clean);
  StatusOr<MrResult> want = baseline.TryRun(pts);
  ASSERT_TRUE(want.ok());

  // One of each data fault, on distinct round-1 tasks plus the round-2
  // aggregator. Validation must reject each and the retry (pristine input,
  // no fault on attempt 1) must restore bit-identical output.
  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "coreset:1:0:empty-output,coreset:4:0:wrong-output:99,"
      "coreset:6:0:corrupt-partition:7,solve:0:0:wrong-output:3");
  ASSERT_TRUE(faults.ok());
  MrOptions faulty = clean;
  faulty.faults = &*faults;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, faulty);
  StatusOr<MrResult> got = mr.TryRun(pts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameSolutions(got->solution, want->solution));
  EXPECT_EQ(got->diversity, want->diversity);
  EXPECT_EQ(got->faults_injected, 4u);
  EXPECT_EQ(got->task_retries, 4u);
  EXPECT_FALSE(got->degraded.has_value());
}

TEST(FaultInjectionTest, GeneralizedDriverRecoversAcrossAllThreeRounds) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(500, 2, /*seed=*/23);
  MrOptions clean = FaultyOptions(4, 8, 8);
  MapReduceDiversity baseline(&m, DiversityProblem::kRemoteClique, clean);
  StatusOr<MrResult> want = baseline.TryRunGeneralized(pts);
  ASSERT_TRUE(want.ok());

  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "gen-coreset:3:0:crash,gen-solve:0:0:wrong-output:5,"
      "instantiate:2:0:crash");
  ASSERT_TRUE(faults.ok());
  MrOptions faulty = clean;
  faulty.faults = &*faults;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, faulty);
  StatusOr<MrResult> got = mr.TryRunGeneralized(pts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameSolutions(got->solution, want->solution));
  EXPECT_EQ(got->faults_injected, 3u);
  EXPECT_FALSE(got->degraded.has_value());
}

TEST(FaultInjectionTest, RecursiveDriverRecoversPerLevel) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(1200, 2, /*seed=*/24);
  MrOptions clean = FaultyOptions(4, 8, 16);
  MapReduceDiversity baseline(&m, DiversityProblem::kRemoteEdge, clean);
  StatusOr<MrResult> want = baseline.TryRunRecursive(pts, /*budget=*/64);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->rounds, 2u);  // actually recursed

  StatusOr<FaultInjector> faults =
      FaultInjector::Parse("coreset-l0:1:0:crash,coreset-l1:0:0:crash");
  ASSERT_TRUE(faults.ok());
  MrOptions faulty = clean;
  faulty.faults = &*faults;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, faulty);
  StatusOr<MrResult> got = mr.TryRunRecursive(pts, /*budget=*/64);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameSolutions(got->solution, want->solution));
  EXPECT_EQ(got->faults_injected, 2u);
}

// ---------------------------------------------------------------------------
// Degradation: permanent round-1 failures drop partitions with a
// certificate; fatal rounds and disallowed degradation return errors.

// Crash every attempt of one partition (max_retries=2 => attempts 0..2).
constexpr char kKillPartition3[] =
    "coreset:3:0:crash,coreset:3:1:crash,coreset:3:2:crash";

TEST(FaultInjectionTest, PermanentPartitionFailureDegrades) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(640, 2, /*seed=*/25);
  StatusOr<FaultInjector> faults = FaultInjector::Parse(kKillPartition3);
  ASSERT_TRUE(faults.ok());
  MrOptions o = FaultyOptions(5, 10, 8);
  o.faults = &*faults;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> got = mr.TryRun(pts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->solution.size(), 5u);
  ASSERT_TRUE(got->degraded.has_value());
  const DegradedResult& d = *got->degraded;
  EXPECT_EQ(d.failed_partitions, std::vector<size_t>{3});
  EXPECT_EQ(d.total_points, 640u);
  EXPECT_EQ(d.surviving_points, 640u - 80u);  // random split: n/l = 80 each
  EXPECT_NEAR(d.surviving_fraction, 7.0 / 8.0, 1e-12);
  EXPECT_EQ(d.approx_factor,
            2.0 * SequentialAlpha(DiversityProblem::kRemoteEdge));
  // The degraded run equals the fault-free run over the surviving
  // partitions: determinism extends to the degraded path.
  StatusOr<MrResult> again = mr.TryRun(pts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(SameSolutions(got->solution, again->solution));
}

TEST(FaultInjectionTest, DegradationDisallowedFailsTheRun) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(320, 2, /*seed=*/26);
  StatusOr<FaultInjector> faults = FaultInjector::Parse(kKillPartition3);
  ASSERT_TRUE(faults.ok());
  MrOptions o = FaultyOptions(4, 8, 8);
  o.faults = &*faults;
  o.allow_degraded = false;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> got = mr.TryRun(pts);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kAborted)
      << got.status().ToString();
}

TEST(FaultInjectionTest, AllPartitionsLostIsAnError) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(64, 2, /*seed=*/27);
  FaultInjector faults;
  for (size_t task = 0; task < 2; ++task) {
    for (size_t attempt = 0; attempt < 3; ++attempt) {
      faults.Add({"coreset", task, attempt, FaultKind::kCrash, 0});
    }
  }
  MrOptions o = FaultyOptions(4, 8, 2);
  o.faults = &faults;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> got = mr.TryRun(pts);
  EXPECT_FALSE(got.ok());
}

TEST(FaultInjectionTest, AggregatorFailureIsFatal) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(200, 2, /*seed=*/28);
  FaultInjector faults;
  for (size_t attempt = 0; attempt < 3; ++attempt) {
    faults.Add({"solve", 0, attempt, FaultKind::kWrongOutput, attempt + 1});
  }
  MrOptions o = FaultyOptions(4, 8, 4);
  o.faults = &faults;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> got = mr.TryRun(pts);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
      << got.status().ToString();
}

TEST(FaultInjectionTest, RetryBudgetZeroMeansSingleAttempt) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(160, 2, /*seed=*/29);
  FaultInjector faults;
  faults.Add({"coreset", 1, 0, FaultKind::kCrash, 0});
  MrOptions o = FaultyOptions(4, 8, 4);
  o.faults = &faults;
  o.max_retries = 0;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> got = mr.TryRun(pts);
  // No retries: the single crash is already permanent -> degraded.
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->degraded.has_value());
  EXPECT_EQ(got->degraded->failed_partitions, std::vector<size_t>{1});
  EXPECT_EQ(got->task_retries, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end through the public TrySolve API.

TEST(FaultInjectionTest, TrySolveSurfacesDegradedCertificate) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/30);
  StatusOr<FaultInjector> faults = FaultInjector::Parse(kKillPartition3);
  ASSERT_TRUE(faults.ok());
  SolveOptions o;
  o.backend = Backend::kMapReduce;
  o.k = 4;
  o.k_prime = 8;
  o.num_partitions = 8;
  o.faults = &*faults;
  StatusOr<SolveResult> got = TrySolve(pts, m, o);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->degraded.has_value());
  EXPECT_EQ(got->degraded->failed_partitions, std::vector<size_t>{3});
  EXPECT_GT(got->degraded->approx_factor, 0.0);

  o.allow_degraded = false;
  StatusOr<SolveResult> strict = TrySolve(pts, m, o);
  EXPECT_FALSE(strict.ok());
}

// The data faults of the existing cases, through TrySolve(Dataset) — the
// row-view path where a reducer gathers its own rows — on loopback and on
// the socket transport. A corrupted partition garbles only the attempt's
// in-task copy, so the retry re-reads pristine rows; garbled core-sets,
// generalized core-sets and solutions are caught by output validation.
// Every run must recover to the fault-free loopback answer bit for bit.
TEST(FaultInjectionTest, TrySolveDatasetRecoversDataFaultsOnEveryEngine) {
  EuclideanMetric m;
  const Dataset data(GenerateUniformCube(600, 3, /*seed=*/31));
  SocketEngineOptions so;
  so.num_workers = 2;
  so.metric = "euclidean";
  so.problem = DiversityProblem::kRemoteClique;
  so.rpc_deadline_ms = 20000;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok()) << socket.Healthy().ToString();

  struct Case {
    Backend backend;
    const char* spec;
  };
  for (const Case& c :
       {Case{Backend::kMapReduce,
             "coreset:1:0:corrupt-partition:7,coreset:3:0:wrong-output:11,"
             "coreset:4:0:corrupt-partition:2,solve:0:0:wrong-output:3"},
        Case{Backend::kMapReduceGeneralized,
             "gen-coreset:2:0:corrupt-partition:5,"
             "gen-coreset:5:0:wrong-output:8,gen-solve:0:0:wrong-output:1"}}) {
    SCOPED_TRACE(BackendName(c.backend));
    SolveOptions o;
    o.problem = DiversityProblem::kRemoteClique;
    o.backend = c.backend;
    o.k = 5;
    o.k_prime = 10;
    o.num_partitions = 6;
    o.seed = 4;
    StatusOr<SolveResult> want = TrySolve(data, m, o);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    StatusOr<FaultInjector> faults = FaultInjector::Parse(c.spec);
    ASSERT_TRUE(faults.ok()) << faults.status().ToString();
    for (CommunicationEngine* engine :
         {static_cast<CommunicationEngine*>(nullptr),
          static_cast<CommunicationEngine*>(&socket)}) {
      SCOPED_TRACE(engine == nullptr ? "loopback" : "socket");
      SolveOptions faulty = o;
      faulty.faults = &*faults;
      faulty.engine = engine;
      StatusOr<SolveResult> got = TrySolve(data, m, faulty);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameSolutions(got->solution, want->solution));
      EXPECT_EQ(got->diversity, want->diversity);
      EXPECT_FALSE(got->degraded.has_value());
    }
  }
}

}  // namespace
}  // namespace diverse
