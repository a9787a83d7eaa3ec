// Spans for the benchmark's traced run, and the engine decorator that
// records one span per CommunicationEngine call.
//
// Every span comes from the benchmark's own files: it surrounds a call into
// a layer's public functions (TrySolve, an engine call, PartitionPoints, a
// wire codec, ...). Spans are kept in memory and written out once, when
// the run ends. A disabled tracer records nothing, so the untraced run pays
// one branch per span site.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/comm.h"

namespace perfbench {

/// One recorded interval. Times are seconds since the tracer was created.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Id (index) of the enclosing span; -1 for a root.
  int64_t parent = -1;
  /// Solve the span belongs to; -1 outside any solve (set-up, probes).
  int64_t solve = -1;
  /// False when the traced call returned an error Status.
  bool ok = true;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span and returns its id (-1 when disabled). Thread-safe.
  int64_t Begin(std::string name, int64_t parent = -1, int64_t solve = -1);
  /// Closes span `id`. Thread-safe; ignores -1.
  void End(int64_t id, bool ok = true);

  /// The solve root that engine-call spans attach to while a traced solve
  /// runs (-1 between solves).
  void SetCurrentSolve(int64_t root, int64_t solve);
  int64_t current_root() const { return root_.load(); }
  int64_t current_solve() const { return solve_.load(); }

  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

  /// Writes {"meta": <meta_json>, "spans": [...]} to `path`.
  bool WriteJson(const std::string& path, const std::string& meta_json) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::atomic<int64_t> root_{-1};
  std::atomic<int64_t> solve_{-1};
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent = -1,
             int64_t solve = -1)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), parent, solve)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Forwards every call to `inner` and records an "engine.<call>" span under
/// the tracer's current solve root. Changes nothing else: the inner
/// engine's results and errors pass through untouched.
class TracingEngine final : public diverse::CommunicationEngine {
 public:
  /// `inner` and `tracer` must outlive this engine.
  TracingEngine(diverse::CommunicationEngine* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string BackendName() const override { return inner_->BackendName(); }
  bool WantsPartitionCacheKeys() const override {
    return inner_->WantsPartitionCacheKeys();
  }

  diverse::StatusOr<diverse::PointSet> Coreset(
      const diverse::TaskEnvelope& env, const diverse::PointSet& part,
      const diverse::CoresetSpec& spec) override {
    return Timed("engine.coreset",
                 [&] { return inner_->Coreset(env, part, spec); });
  }
  diverse::StatusOr<diverse::GenCoresetResult> GenCoreset(
      const diverse::TaskEnvelope& env, const diverse::PointSet& part,
      size_t k, size_t k_prime) override {
    return Timed("engine.gen_coreset",
                 [&] { return inner_->GenCoreset(env, part, k, k_prime); });
  }
  diverse::StatusOr<diverse::PointSet> MergeCoresets(
      const diverse::TaskEnvelope& env, const diverse::PointSet& a,
      const diverse::PointSet& b) override {
    return Timed("engine.merge",
                 [&] { return inner_->MergeCoresets(env, a, b); });
  }
  diverse::StatusOr<diverse::PointSet> Solve(
      const diverse::TaskEnvelope& env, const diverse::PointSet& aggregate,
      size_t k) override {
    return Timed("engine.solve",
                 [&] { return inner_->Solve(env, aggregate, k); });
  }
  diverse::StatusOr<diverse::GeneralizedCoreset> GenSolve(
      const diverse::TaskEnvelope& env,
      const diverse::GeneralizedCoreset& merged, size_t k) override {
    return Timed("engine.gen_solve",
                 [&] { return inner_->GenSolve(env, merged, k); });
  }
  diverse::StatusOr<diverse::PointSet> Instantiate(
      const diverse::TaskEnvelope& env,
      const diverse::GeneralizedCoreset& selected,
      const diverse::PointSet& part, double range) override {
    return Timed("engine.instantiate", [&] {
      return inner_->Instantiate(env, selected, part, range);
    });
  }

 private:
  template <typename Call>
  std::invoke_result_t<Call> Timed(const char* name, Call&& call) {
    const int64_t id = tracer_->Begin(name, tracer_->current_root(),
                                      tracer_->current_solve());
    auto out = call();
    tracer_->End(id, out.ok());
    return out;
  }

  diverse::CommunicationEngine* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
