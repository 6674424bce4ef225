// perfbench: the repo's benchmark runner. One invocation runs one workload
// for a fixed time and prints, as its last stdout line, the result object
// README.md describes. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out DIR [--chrome-trace FILE] [--commit ID] [--smoke]
//   perfbench --sentinel
//
// The runner touches the system only through public calls (sim::Gpu,
// kernels registry, trace replay, serve::Server via serve::Client, and
// fuzz::run_case) and times them from outside. An untraced run measures
// the workload's operations; a traced run measures the layers of every
// product.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common.hpp"
#include "products.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr const char* kWorkloads[] = {"live-suite", "replay", "serve-cold", "serve-memo",
                                      "fuzz-campaign"};
// The per-layer metrics cover every layer, so a traced run measures all
// four products, whatever --workload names.
constexpr const char* kTracedProducts[] = {"live-suite", "replay", "serve", "fuzz-campaign"};

constexpr uint32_t kSetupReps = 5;
constexpr uint32_t kMinTracedPairs = 3;
// A run stops starting passes after this long, whatever --seconds says,
// so it always ends within three minutes.
constexpr double kHardStopSeconds = 120.0;
// Set-up repetitions get pass ids of their own so they never mix with
// the measured passes.
constexpr uint32_t kSetupPassBase = 1u << 20;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool sentinel = false;
  std::string out_dir;
  std::string chrome_trace;
  std::string commit = "unknown";
};

int usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload live-suite|replay|serve-cold|serve-memo|fuzz-campaign\n"
               "                 --seed N --seconds S --trace 0|1 --out DIR\n"
               "                 [--chrome-trace FILE] [--commit ID] [--smoke]\n"
               "       perfbench --sentinel\n",
               error.c_str());
  return 2;
}

bool parse_uint(const std::string& text, uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  errno = 0;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--sentinel") {
      args.sentinel = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_uint(value, number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_uint(value, number) && number >= 1 && number <= 120) {
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--chrome-trace") {
      args.chrome_trace = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      error = "bad flag or value: " + flag + " " + value;
      return false;
    }
  }
  if (args.sentinel) return true;
  if (!have_workload || !have_seed || !have_seconds || !have_trace || args.out_dir.empty()) {
    error = "--workload, --seed, --seconds, --trace and --out are required";
    return false;
  }
  for (const char* name : kWorkloads)
    if (args.workload == name) return true;
  error = "unknown workload " + args.workload;
  return false;
}

/// Host drift sentinel: first touch of 64 MiB (page faults and zeroing),
/// then a fixed loop of 16M random reads over it. Provenance, not a
/// metric: it lets a slow run be blamed on the host's memory system.
/// run.py runs it in a process of its own before and after the measured
/// run, so its 64 MiB never shows in the run's peak RSS.
int run_sentinel() {
  constexpr size_t kWords = (size_t{64} << 20) / sizeof(uint32_t);
  constexpr size_t kReads = size_t{1} << 24;
  const auto fill_start = Clock::now();
  std::vector<uint32_t> data(kWords);
  for (size_t i = 0; i < kWords; ++i) data[i] = static_cast<uint32_t>(i * 2654435761u);
  const auto start = Clock::now();
  uint64_t state = 0x9e3779b97f4a7c15ull;
  uint64_t checksum = 0;
  for (size_t i = 0; i < kReads; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    checksum += data[(state >> 33) & (kWords - 1)];
  }
  const auto end = Clock::now();
  std::printf("{\"fill_ms\": %s, \"read_ms\": %s, \"checksum\": %llu}\n",
              json_number(ms_between(fill_start, start)).c_str(),
              json_number(ms_between(start, end)).c_str(), static_cast<unsigned long long>(checksum));
  return 0;
}

std::unique_ptr<Product> make_product(const std::string& name, RunContext& ctx) {
  if (name == "live-suite") return make_live_suite(ctx);
  if (name == "replay") return make_replay(ctx);
  if (name == "serve-cold") return make_serve(ctx, ServeMode::kCold);
  if (name == "serve-memo") return make_serve(ctx, ServeMode::kMemo);
  if (name == "serve") return make_serve(ctx, ServeMode::kBoth);
  return make_fuzz_campaign(ctx);
}

struct Session {
  std::vector<double> setup_ms;
  std::vector<double> untraced_ms;  ///< measured pass times, in order
  std::vector<double> traced_ms;
};

/// Set-up `setup_reps` times, one warm-up pass, then measured passes
/// until `budget_s` has passed and at least `min_measured` ran. A traced
/// session alternates untraced and traced passes, re-issues the product's
/// layers after each traced one, and logs no operations.
Session measure(Product& product, RunContext& ctx, bool traced_session, uint32_t setup_reps,
                uint32_t min_measured, double budget_s, Clock::time_point hard_stop) {
  Session out;
  const std::string name = product.name();
  ctx.tracer.set_enabled(traced_session);
  for (uint32_t rep = 0; rep < setup_reps; ++rep) {
    ctx.tracer.set_pass(kSetupPassBase + rep);
    const auto start = Clock::now();
    {
      Tracer::Scope span(ctx.tracer, (name + ".setup").c_str());
      product.setup(rep);
    }
    out.setup_ms.push_back(ms_between(start, Clock::now()));
  }

  // Pass 0 warms up: its outputs become the reference, its times are not used.
  const uint32_t floor = traced_session ? 2 : 1;
  const auto measure_start = Clock::now();
  for (uint32_t passes = 0;; ++passes) {
    const double elapsed = ms_between(measure_start, Clock::now()) / 1e3;
    if (passes > min_measured && elapsed >= budget_s) break;
    if (passes > floor && Clock::now() >= hard_stop) break;
    const bool warmup = passes == 0;
    const bool traced = traced_session && passes % 2 == 1;
    ctx.tracer.set_enabled(traced);
    ctx.tracer.set_pass(passes);
    ctx.ops.set_recording(!warmup && !traced_session);
    const auto start = Clock::now();
    {
      Tracer::Scope span(ctx.tracer, name.c_str());
      product.pass();
    }
    if (!warmup) (traced ? out.traced_ms : out.untraced_ms).push_back(ms_between(start, Clock::now()));
    if (traced) {
      Tracer::Scope span(ctx.tracer, (name + ".layers").c_str());
      product.layers();
    }
    // Hand freed heap back to the OS between passes, as a fresh process
    // would start: otherwise peak RSS and page-fault counts follow what
    // earlier passes' threads left cached in their malloc arenas.
    malloc_trim(0);
  }
  ctx.tracer.set_enabled(false);
  ctx.ops.set_recording(false);
  return out;
}

std::string ms_list(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + std::to_string(static_cast<long>(std::lround(values[i])));
  return out + "]";
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

int run(const Args& args) {
  if (mkdir(args.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out_dir.c_str());
    return 3;
  }
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.out_dir = args.out_dir;
  const auto hard_stop = Clock::now() + std::chrono::seconds(static_cast<int>(kHardStopSeconds));

  Metrics metrics;
  uint32_t threads = 0;
  std::string sessions;  // provenance, one object per product measured
  auto note = [&](const Product& product, const Session& session, const std::string& extra) {
    threads = std::max(threads, product.threads_used());
    sessions += std::string(sessions.empty() ? "" : ", ") + "{\"product\": \"" + product.name() +
                "\", \"setup_reps\": " + std::to_string(session.setup_ms.size()) + extra +
                ", \"pass_ms\": " + ms_list(session.untraced_ms) +
                ", \"traced_pass_ms\": " + ms_list(session.traced_ms) + ", \"model\": {" +
                product.exact_json() + "}}";
  };

  if (!args.trace) {
    const std::unique_ptr<Product> product = make_product(args.workload, ctx);
    const Session session =
        measure(*product, ctx, false, args.smoke ? 2 : kSetupReps, args.smoke ? 1 : product->min_passes(),
                args.smoke ? 0.0 : args.seconds, hard_stop);
    const std::vector<double> latencies = ctx.ops.latencies_ms();
    note(*product, session, ", \"op_samples\": " + std::to_string(latencies.size()));
    metrics["ops_per_s"] = {median(ctx.ops.ops_per_s()), "1/s"};
    metrics["op_p50_ms"] = {quantile_hd(latencies, 0.5), "ms"};
    metrics["op_p90_ms"] = {quantile_hd(latencies, 0.9), "ms"};
    metrics["setup_s"] = {median(session.setup_ms) / 1e3, "s"};
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};
  } else {
    // The per-layer metrics span every product, so a traced run measures
    // each of them in turn, splitting --seconds between them.
    const double budget_s = args.smoke ? 0.0 : args.seconds / std::size(kTracedProducts);
    for (const char* name : kTracedProducts) {
      const std::unique_ptr<Product> product = make_product(name, ctx);
      const Session session = measure(*product, ctx, true, 1, args.smoke ? 2 : 2 * kMinTracedPairs,
                                      budget_s, hard_stop);
      note(*product, session, "");
      const LayerView view(ctx.tracer.spans(), name);
      product->per_layer(view, metrics);
      metrics[std::string(name) + ".uncovered_ms"] = {median(view.pass_self_ms()), "ms"};
      const double overhead = median(session.traced_ms) - median(session.untraced_ms);
      metrics[std::string(name) + ".trace_overhead_ms"] = {overhead, "ms"};
      view.print_table();
      std::printf("%s: tracing overhead: traced pass %.3f ms - untraced pass %.3f ms = %.3f ms\n",
                  name, median(session.traced_ms), median(session.untraced_ms), overhead);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["proc.user_s"] = {seconds_of(usage.ru_utime), "s"};
    metrics["proc.sys_s"] = {seconds_of(usage.ru_stime), "s"};
    metrics["proc.minflt"] = {static_cast<double>(usage.ru_minflt), "count"};
    if (!args.chrome_trace.empty() && !ctx.tracer.write_chrome_trace(args.chrome_trace))
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.chrome_trace.c_str());
  }

  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"traced\": %s, \"build_type\": \"%s\", \"commit\": \"%s\", \"host_cpus\": %ld, %s, "
              "\"sessions\": [%s]}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              json_number(args.seconds).c_str(), args.trace ? "true" : "false", PERFBENCH_BUILD_TYPE,
              args.commit.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              haccrg::bench::host_concurrency_json(threads).c_str(), sessions.c_str());

  std::string line = "{\"correct\": ";
  line += ctx.checks.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ctx.checks.attempted());
  line += ", \"failed\": " + std::to_string(ctx.checks.failed());
  line += ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, metric] : metrics) {
    line += (comma ? ", \"" : "\"") + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    comma = true;
  }
  line += "}}";
  // A failed check is reported in the result line, not by the exit code.
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error)) return perfbench::usage(error);
  if (args.sentinel) return perfbench::run_sentinel();
  return perfbench::run(args);
}
