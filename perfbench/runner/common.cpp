#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    double term = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + term * d);
    c = guard(1.0 + term / c);
    h *= d * c;
    term = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + term * d);
    c = guard(1.0 + term / c);
    h *= d * c;
    if (std::fabs(d * c - 1.0) < kEps) break;
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile_hd(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

void Checks::record(const std::string& op_name, const Op& op) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (op.failures.empty()) return;
  ++failed_;
  for (const std::string& what : op.failures)
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", op_name.c_str(), what.c_str());
}

uint64_t Checks::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void OpLog::op(double ms) {
  if (!recording_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  latencies_ms_.push_back(ms);
}

void OpLog::pass(size_t ops, double seconds) {
  if (!recording_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ops_per_s_.push_back(static_cast<double>(ops) / seconds);
}

std::vector<double> OpLog::latencies_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_ms_;
}

std::vector<double> OpLog::ops_per_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_per_s_;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool json_u64_field(const std::string& json, const std::string& key, uint64_t& out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const unsigned long long value = std::strtoull(begin, &end, 10);
  if (end == begin) return false;
  out = value;
  return true;
}

}  // namespace perfbench
