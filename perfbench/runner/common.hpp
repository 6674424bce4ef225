// Shared pieces of the benchmark runner: clocks, order statistics,
// operation accounting, and the metric table that becomes the result line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// Harrell-Davis estimate of the `q` quantile, q in (0, 1): a weighted
/// mean of all order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.
/// Unlike a single order statistic it does not jump between the modes of
/// a multi-modal sample, such as cold-job latencies where one trace is a
/// tenth of the jobs and by far the slowest. 0 when empty.
double quantile_hd(std::vector<double> values, double q);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Failure reasons collected while checking one operation: a kernel run,
/// a replay, a served job, a fuzz case or a trace recording.
struct Op {
  std::vector<std::string> failures;
  void expect(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }
};

/// Attempted/failed operation counts for the result line. Every failure
/// is printed to stderr with its operation's name; none is dropped.
class Checks {
 public:
  void record(const std::string& op_name, const Op& op);
  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;  // guarded by mu_
  uint64_t failed_ = 0;     // guarded by mu_
};

/// The workload's operations in measured passes: each operation's latency,
/// and each pass's operation count over the time its operations took.
/// The runner turns recording on only for measured untraced passes; a
/// pass's client threads record concurrently.
class OpLog {
 public:
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  void op(double ms);
  void pass(size_t ops, double seconds);
  std::vector<double> latencies_ms() const;
  std::vector<double> ops_per_s() const;

 private:
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  std::vector<double> latencies_ms_;  // guarded by mu_
  std::vector<double> ops_per_s_;     // guarded by mu_
};

/// A double with every significant digit, as the result line requires.
std::string json_number(double value);

/// Value of `"key": <unsigned>` in a flat JSON object such as
/// Server::stats_json(); false when the key is absent.
bool json_u64_field(const std::string& json, const std::string& key, uint64_t& out);

}  // namespace perfbench
