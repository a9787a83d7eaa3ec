#include "trace.h"

#include <cstdio>

#include "measure.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t solve) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, solve, true});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id, bool ok) {
  if (id < 0) return;
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
  spans_[static_cast<size_t>(id)].ok = ok;
}

void Tracer::SetCurrentSolve(int64_t root, int64_t solve) {
  root_.store(root);
  solve_.store(solve);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"meta\": %s,\n \"spans\": [", meta_json.c_str());
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": %s, \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"solve\": %lld, "
                 "\"ok\": %s}",
                 i == 0 ? "" : ",", i, JsonString(s.name).c_str(), s.start,
                 s.end, static_cast<long long>(s.parent),
                 static_cast<long long>(s.solve), s.ok ? "true" : "false");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
