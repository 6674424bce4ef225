// live-suite: the Fig. 7 experiment. Each paper kernel at experiment scale
// 4 runs once with detection off and once with combined detection, one
// engine thread, on a fresh Gpu: construct, prepare, launch, verify,
// destroy — the four steps every user run pays for. One such kernel run
// is the workload's operation. Two client threads run them, one all the
// off runs and one all the combined runs, so each kernel's pair runs side
// by side.
#include <array>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "kernels/common.hpp"
#include "products.hpp"
#include "sim/gpu.hpp"
#include "trace/replay.hpp"

namespace perfbench {

namespace {

using namespace haccrg;

constexpr std::array<const char*, 4> kEnginePhases = {"sm_cycle", "commit", "partition",
                                                      "response"};

// Counters of the modelled hardware, summed over the combined runs.
constexpr std::array<const char*, 4> kHardwareCounters = {
    "shared_rdu.checks", "global_rdu.checks", "global_rdu.shadow_writes",
    "partition.shadow_packets"};

class LiveSuite final : public Product {
 public:
  explicit LiveSuite(RunContext& ctx) : ctx_(ctx) {
    opts_.scale = bench::kExperimentScale;
    opts_.seed = static_cast<u32>(ctx.seed);
  }

  const char* name() const override { return "live-suite"; }
  uint32_t threads_used() const override { return 2; }
  uint32_t min_passes() const override { return passes_for_min_ops(2 * kernels::all_benchmarks().size()); }

  // Input generation: every kernel prepared once on a fresh Gpu, which
  // also lets the allocator and lazily built statics settle before timing.
  void setup(uint32_t) override {
    for (const kernels::BenchmarkInfo& info : kernels::all_benchmarks()) {
      sim::Gpu gpu(bench::experiment_gpu(), bench::detection_combined(), sim::SimConfig{});
      const kernels::PreparedKernel prep = info.prepare(gpu, opts_);
      Op op;
      op.expect(static_cast<bool>(prep.verify), "prepare gave no verifier");
      ctx_.checks.record("prepare " + info.name, op);
    }
  }

  void pass() override {
    const std::vector<kernels::BenchmarkInfo>& infos = kernels::all_benchmarks();
    const bool traced = ctx_.tracer.enabled();
    const bool first = reference_.empty();
    if (first) reference_.resize(2 * infos.size());
    // Run 2k is kernel k with detection off, run 2k + 1 with it on.
    std::vector<sim::SimResult> results(2 * infos.size());
    const int32_t parent = Tracer::current();
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (int on = 0; on < 2; ++on)
      clients.emplace_back([this, &infos, &results, parent, first, on] {
        Tracer::Adopt adopt(parent);
        for (size_t k = 0; k < infos.size(); ++k)
          results[2 * k + on] = run_kernel(infos[k], on == 1, first, 2 * k + on);
      });
    for (std::thread& client : clients) client.join();
    ctx_.ops.pass(results.size(), ms_between(start, Clock::now()) / 1e3);

    u64 cycles[2] = {0, 0};
    std::array<double, kEnginePhases.size()> engine_ms{};
    for (size_t run = 0; run < results.size(); ++run) {
      const sim::SimResult& result = results[run];
      const bool on = run % 2 == 1;
      cycles[on] += result.cycles;
      if (traced)
        for (size_t p = 0; p < kEnginePhases.size(); ++p)
          engine_ms[p] +=
              static_cast<double>(result.stats.get(std::string("prof.") + kEnginePhases[p] + ".ns")) / 1e6;
      if (first && on) {
        for (const char* counter : kHardwareCounters) counters_.add(counter, result.stats.get(counter));
        for (const char* stat : {"l1.hits", "l1.accesses", "l2.hits", "l2.accesses"})
          counters_.add(stat, result.stats.get(stat));
        counters_.add("races.unique", result.races.unique());
      }
    }
    cycles_off_ = cycles[0];
    cycles_on_ = cycles[1];
    if (traced) {
      engine_ms_.push_back(engine_ms);
      pass_cycles_.push_back(static_cast<double>(cycles[0] + cycles[1]));
    }
  }

  std::string exact_json() const override {
    return "\"sim_cycles\": " + std::to_string(cycles_on_) +
           ", \"detect_overhead_pct\": " + json_number(detect_overhead_pct());
  }

  void per_layer(const LayerView& view, Metrics& out) const override {
    out["sim_cycles"] = {static_cast<double>(cycles_on_), "cycles"};
    out["detect_overhead_pct"] = {detect_overhead_pct(), "%"};
    for (const char* span : {"sim.gpu_ctor", "sim.gpu_dtor", "kernels.prepare", "kernels.verify",
                             "sim.launch_off", "sim.launch_on"})
      out[std::string(span) + "_ms"] = {view.median_ms(span), "ms"};
    const std::vector<double> off = view.per_pass_ms("sim.launch_off");
    const std::vector<double> on = view.per_pass_ms("sim.launch_on");
    std::vector<double> detect_ms;
    std::vector<double> ns_per_cycle;
    for (size_t r = 0; r < on.size() && r < pass_cycles_.size(); ++r) {
      detect_ms.push_back(on[r] - off[r]);
      ns_per_cycle.push_back((on[r] + off[r]) * 1e6 / pass_cycles_[r]);
    }
    out["haccrg.detect_host_ms"] = {median(detect_ms), "ms"};
    out["sim.host_ns_per_cycle"] = {median(ns_per_cycle), "ns/cycle"};
    for (size_t p = 0; p < kEnginePhases.size(); ++p) {
      std::vector<double> phase;
      for (const auto& pass : engine_ms_) phase.push_back(pass[p]);
      out[std::string("sim.engine.") + kEnginePhases[p] + "_ms"] = {median(phase), "ms"};
    }
    for (const char* counter : kHardwareCounters)
      out[counter] = {static_cast<double>(counters_.get(counter)), "count"};
    for (const char* cache : {"l1", "l2"}) {
      const double accesses = static_cast<double>(counters_.get(std::string(cache) + ".accesses"));
      const double hits = static_cast<double>(counters_.get(std::string(cache) + ".hits"));
      out[std::string(cache) + ".hit_ratio"] = {accesses > 0 ? hits / accesses : 0.0, "ratio"};
    }
    out["races.unique"] = {static_cast<double>(counters_.get("races.unique")), "count"};
  }

 private:
  struct Reference {
    Cycle cycles = 0;
    std::vector<std::string> races;
  };

  /// One operation: kernel `info` on a fresh Gpu, checked against the
  /// first pass's run number `run`.
  sim::SimResult run_kernel(const kernels::BenchmarkInfo& info, bool on, bool first, size_t run) {
    sim::SimConfig sc;
    sc.num_threads = 1;
    sc.profile = ctx_.tracer.enabled();
    const auto run_start = Clock::now();
    std::optional<sim::Gpu> gpu;
    {
      Tracer::Scope span(ctx_.tracer, "sim.gpu_ctor");
      gpu.emplace(bench::experiment_gpu(), on ? bench::detection_combined() : bench::detection_off(), sc);
    }
    kernels::PreparedKernel prep;
    {
      Tracer::Scope span(ctx_.tracer, "kernels.prepare");
      prep = info.prepare(*gpu, opts_);
    }
    sim::SimResult result;
    {
      Tracer::Scope span(ctx_.tracer, on ? "sim.launch_on" : "sim.launch_off");
      result = gpu->launch(prep.launch());
    }
    std::string message = "no verifier";
    bool verified = false;
    {
      Tracer::Scope span(ctx_.tracer, "kernels.verify");
      verified = prep.verify && prep.verify(gpu->memory(), &message);
    }
    {
      Tracer::Scope span(ctx_.tracer, "sim.gpu_dtor");
      gpu.reset();
    }
    ctx_.ops.op(ms_between(run_start, Clock::now()));

    Op op;
    op.expect(result.completed, "did not complete: " + result.error);
    op.expect(verified, "verify: " + message);
    std::vector<std::string> races = trace::race_set_lines(result.races);
    if (first) {
      reference_[run] = {result.cycles, std::move(races)};
    } else {
      op.expect(result.cycles == reference_[run].cycles, "cycles differ from the first pass");
      op.expect(races == reference_[run].races, "race set differs from the first pass");
    }
    ctx_.checks.record("live " + info.name + (on ? " combined" : " off"), op);
    return result;
  }

  /// Simulated-cycle overhead of combined detection over none, summed
  /// over the suite: the Fig. 7 quantity.
  double detect_overhead_pct() const {
    return 100.0 * (static_cast<double>(cycles_on_) - static_cast<double>(cycles_off_)) /
           static_cast<double>(cycles_off_);
  }

  RunContext& ctx_;
  kernels::BenchOptions opts_;
  std::vector<Reference> reference_;  ///< per run of the first pass
  u64 cycles_off_ = 0;
  u64 cycles_on_ = 0;
  StatSet counters_;  ///< combined runs of the first pass
  std::vector<std::array<double, kEnginePhases.size()>> engine_ms_;  ///< per traced pass
  std::vector<double> pass_cycles_;                                    ///< per traced pass
};

}  // namespace

std::unique_ptr<Product> make_live_suite(RunContext& ctx) { return std::make_unique<LiveSuite>(ctx); }

}  // namespace perfbench
