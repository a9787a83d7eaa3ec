// Sample statistics, process accounting and JSON text for the benchmark.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);

/// The highest order statistic with at least `beyond` samples above it:
/// sorted(v)[n - beyond - 1]. Requires v.size() > beyond.
double TailValue(std::vector<double> v, size_t beyond);

/// Total length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals);

/// User+system CPU seconds of this process (all threads, live and joined).
double SelfCpuSeconds();

/// User+system CPU seconds of a live process from /proc; 0 when unreadable.
double ProcessCpuSeconds(pid_t pid);

/// Resident-set high-water mark of this process, MB (2^20 bytes).
double SelfPeakRssMb();

/// Resident-set high-water mark (VmHWM) of a live process, MB; 0 when
/// unreadable.
double ProcessPeakRssMb(pid_t pid);

/// Machine-wide CPU ticks from /proc/stat: {steal, total}. The steal share
/// of a measured interval shows how much of it the hypervisor gave to
/// other guests.
std::pair<double, double> StealAndTotalTicks();

/// CPUs this process may run on (what `nproc` prints).
size_t AvailableCpus();

/// `s` as a quoted, escaped JSON string.
std::string JsonString(const std::string& s);

/// `x` with all its digits (%.17g); non-finite values become null.
std::string JsonNumber(double x);

/// An insertion-ordered JSON object built from pre-rendered values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  JsonObject& Num(const std::string& key, double x) {
    return Raw(key, JsonNumber(x));
  }
  JsonObject& Str(const std::string& key, const std::string& s) {
    return Raw(key, JsonString(s));
  }
  JsonObject& Bool(const std::string& key, bool b) {
    return Raw(key, b ? "true" : "false");
  }
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
