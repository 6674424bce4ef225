// fuzz-campaign: a fixed seeded batch through fuzz::run_case with the
// `haccrg-fuzz run` defaults — replay checks in a scratch directory,
// determinism reruns at 2 and 8 engine threads, a fault run on every 8th
// case. The only product that runs the parallel engine, `analysis`,
// `swrace`, and the fuzz generator and oracle. One case is an operation.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_race.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/spec.hpp"
#include "products.hpp"
#include "sim/gpu.hpp"
#include "swrace/grace.hpp"
#include "swrace/sw_haccrg.hpp"
#include "trace/replay.hpp"

namespace perfbench {

namespace {

using namespace haccrg;

// A lock-protected spec spins, and its cost grows with its geometry:
// about 25k simulated cycles at grid 2 x block 64, 47k at 4 x 64, 72k at
// 2 x 128 and 150k-180k at 4 x 128, each within a few percent. Lock-free
// specs cost about the same as each other. So that kernels/s follows the
// program rather than the geometries a seed happens to draw, the batch
// takes from the spec stream at the base seed the first kLockFree
// lock-free specs, then the first kLocked lock specs of grid 2 x block
// 128, the geometry nearest the mean lock-spec cost. Two of eight keeps
// the lock share near the campaign's (about a quarter of specs, most of
// its time).
constexpr u32 kLockFree = 6;
constexpr u32 kLocked = 2;
constexpr u64 kMaxSeedsWalked = 100000;

bool has_lock(const fuzz::KernelSpec& spec) {
  for (const fuzz::FragmentSpec& fragment : spec.fragments)
    if (fragment.kind == fuzz::FragmentKind::kLockedRmw ||
        fragment.kind == fuzz::FragmentKind::kRogueUnlocked)
      return true;
  return false;
}

std::vector<fuzz::KernelSpec> make_batch(u64 base_seed, u32 lock_free, u32 locked) {
  std::vector<fuzz::KernelSpec> free_specs;
  std::vector<fuzz::KernelSpec> lock_specs;
  for (u64 seed = base_seed;
       (free_specs.size() < lock_free || lock_specs.size() < locked) &&
       seed - base_seed < kMaxSeedsWalked;
       ++seed) {
    fuzz::KernelSpec spec = fuzz::spec_from_seed(seed);
    if (!has_lock(spec)) {
      if (free_specs.size() < lock_free) free_specs.push_back(std::move(spec));
    } else if (spec.grid_dim == 2 && spec.block_dim == 128 && lock_specs.size() < locked) {
      lock_specs.push_back(std::move(spec));
    }
  }
  for (fuzz::KernelSpec& spec : lock_specs) free_specs.push_back(std::move(spec));
  return free_specs;
}

// The campaign's simulated machine and detector (fuzz/campaign.cpp):
// 8 SMs, 32 MiB of device memory, word granularity in both spaces.
arch::GpuConfig fuzz_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

rd::HaccrgConfig word_detection(bool static_filter) {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 4;
  cfg.global_granularity = 4;
  cfg.static_filter = static_filter;
  return cfg;
}

class FuzzCampaign final : public Product {
 public:
  explicit FuzzCampaign(RunContext& ctx) : ctx_(ctx) {
    config_.scratch_dir = ctx.out_dir + "/fuzz-scratch";
  }

  const char* name() const override { return "fuzz-campaign"; }
  // The determinism rerun's engine threads.
  uint32_t threads_used() const override { return 8; }
  // A case takes 0.2-1.5 s, so 100 cases would take minutes: a run's p90
  // rests on about 24 cases (the provenance line gives the count).
  uint32_t min_passes() const override { return 3; }

  // Input generation: draw the batch, then build each spec's program and
  // oracle and load it on a fresh Gpu of the campaign's machine.
  void setup(uint32_t) override {
    Op op;
    op.expect(mkdir(config_.scratch_dir.c_str(), 0755) == 0 || errno == EEXIST,
              "cannot create " + config_.scratch_dir);
    batch_ = make_batch(ctx_.seed, kLockFree, kLocked);
    op.expect(batch_.size() == kLockFree + kLocked, "spec stream did not fill the batch");
    ctx_.checks.record("fuzz batch", op);
    for (const fuzz::KernelSpec& spec : batch_) {
      Op input;
      const Status valid = spec.validate();
      input.expect(valid.ok(), "invalid spec: " + valid.message());
      if (valid.ok()) {
        sim::Gpu gpu(fuzz_gpu(), word_detection(false), sim::SimConfig{});
        fuzz::prepare_generated(gpu, fuzz::generate(spec));
      }
      ctx_.checks.record("fuzz input " + spec.name, input);
    }
  }

  void pass() override {
    const bool first = reference_.empty();
    const auto start = Clock::now();
    for (u32 i = 0; i < batch_.size(); ++i) {
      const auto t0 = Clock::now();
      fuzz::CaseResult result;
      {
        Tracer::Scope span(ctx_.tracer, "fuzz.run_case");
        result = fuzz::run_case(batch_[i], config_, i);
      }
      ctx_.ops.op(ms_between(t0, Clock::now()));
      Op op;
      // A violation is the program's own oracle failing on this spec; the
      // spec's name is fuzz-<stream seed>, which reproduces it alone.
      for (const std::string& violation : result.violations)
        op.expect(false, "run_case violation: " + violation);
      op.expect(result.ok(), "reproduce with: haccrg-fuzz run --seed " +
                                 result.name.substr(result.name.find('-') + 1) + " --count 1");
      if (first) {
        reference_.push_back({result.cycles, result.hw_races});
      } else {
        op.expect(result.cycles == reference_[i].cycles, "cycles differ from the first pass");
        op.expect(result.hw_races == reference_[i].hw_races, "hw races differ from the first pass");
      }
      ctx_.checks.record("fuzz case " + result.name, op);
    }
    ctx_.ops.pass(batch_.size(), ms_between(start, Clock::now()) / 1e3);
  }

  void layers() override {
    for (size_t i = 0; i < batch_.size(); ++i) {
      const fuzz::KernelSpec& spec = batch_[i];
      std::optional<fuzz::GeneratedKernel> kernel;
      {
        Tracer::Scope span(ctx_.tracer, "fuzz.generate");
        kernel.emplace(fuzz::generate(spec));
      }
      std::shared_ptr<analysis::StaticRaceReport> report;
      {
        Tracer::Scope span(ctx_.tracer, "analysis.analyze");
        report = std::make_shared<analysis::StaticRaceReport>(analysis::analyze(
            kernel->program,
            analysis::options_for(word_detection(false), kernel->block_dim, kernel->grid_dim)));
      }
      const sim::SimResult t1 = hw_run("fuzz.hw_t1", *kernel, 1, false, nullptr, "");
      const sim::SimResult t2 = hw_run("fuzz.hw_t2", *kernel, 2, false, nullptr, "");
      const sim::SimResult t8 = hw_run("fuzz.hw_t8", *kernel, 8, false, nullptr, "");
      const sim::SimResult filtered = hw_run("fuzz.hw_filtered", *kernel, 1, true, report, "");
      const std::string path = config_.scratch_dir + "/" + spec.name + ".layers.trc";
      const sim::SimResult recorded = hw_run("fuzz.hw_record", *kernel, 1, false, nullptr, path);
      trace::ReplayResult replay;
      {
        Tracer::Scope span(ctx_.tracer, "trace.replay_emulators");
        trace::ReplayOptions opts;
        opts.sw_haccrg = true;
        opts.grace = true;
        replay = trace::replay_trace(path, opts);
      }
      std::remove(path.c_str());
      const bool sw_ok = instrumented_run("swrace.sw_haccrg", *kernel, false);
      const bool grace_ok = instrumented_run("swrace.grace", *kernel, true);

      Op op;
      const std::vector<std::string> races = trace::race_set_lines(t1.races);
      for (const sim::SimResult* run : {&t1, &t2, &t8, &filtered, &recorded})
        op.expect(run->completed, "hw run did not complete: " + run->error);
      // The re-issued runs must be the ones run_case made: a change to its
      // machine or detector shows here instead of timing something else.
      for (const sim::SimResult* run : {&t1, &recorded})
        op.expect(run->cycles == reference_[i].cycles && run->races.unique() == reference_[i].hw_races,
                  "re-issued 1-thread run differs from run_case's");
      op.expect(trace::race_set_lines(t2.races) == races && t2.cycles == t1.cycles,
                "2-thread run differs from 1 thread");
      op.expect(trace::race_set_lines(t8.races) == races && t8.cycles == t1.cycles,
                "8-thread run differs from 1 thread");
      op.expect(replay.ok && replay.race_set() == trace::race_identity_set(recorded.races),
                "emulator replay differs from the recording run");
      op.expect(sw_ok && grace_ok, "instrumented run did not complete");
      ctx_.checks.record("fuzz layers " + spec.name, op);
    }
  }

  std::string exact_json() const override {
    u64 cycles = 0;
    for (const Reference& ref : reference_) cycles += ref.cycles;
    return "\"sim_cycles\": " + std::to_string(cycles);
  }

  void per_layer(const LayerView& view, Metrics& out) const override {
    for (const char* span : {"fuzz.generate", "analysis.analyze", "fuzz.hw_filtered",
                             "trace.replay_emulators", "swrace.sw_haccrg", "swrace.grace",
                             "fuzz.hw_t1", "fuzz.hw_t2", "fuzz.hw_t8", "fuzz.hw_record"})
      out[std::string(span) + "_ms"] = {view.median_ms(span), "ms"};
    const std::vector<double> cases = view.per_pass_ms("fuzz.run_case");
    const std::vector<double> t1 = view.per_pass_ms("fuzz.hw_t1");
    const std::vector<double> t2 = view.per_pass_ms("fuzz.hw_t2");
    const std::vector<double> t8 = view.per_pass_ms("fuzz.hw_t8");
    std::vector<double> share, speedup2, speedup8;
    for (size_t r = 0; r < cases.size(); ++r) {
      share.push_back((t2[r] + t8[r]) / cases[r]);
      speedup2.push_back(t1[r] / t2[r]);
      speedup8.push_back(t1[r] / t8[r]);
    }
    out["fuzz.determinism_share"] = {median(share), "ratio"};
    out["sim.engine_t2_speedup"] = {median(speedup2), "x"};
    out["sim.engine_t8_speedup"] = {median(speedup8), "x"};
  }

 private:
  struct Reference {
    u64 cycles = 0;
    u64 hw_races = 0;
  };

  /// One live hardware-detector run as run_case issues it.
  sim::SimResult hw_run(const char* span_name, const fuzz::GeneratedKernel& kernel, u32 threads,
                        bool static_filter, const std::shared_ptr<analysis::StaticRaceReport>& report,
                        const std::string& trace_path) {
    Tracer::Scope span(ctx_.tracer, span_name);
    sim::SimConfig sc;
    sc.num_threads = threads;
    sc.trace_path = trace_path;
    std::optional<sim::Gpu> gpu;
    {
      Tracer::Scope ctor(ctx_.tracer, "sim.gpu_ctor");
      gpu.emplace(fuzz_gpu(), word_detection(static_filter), sc);
    }
    gpu->set_max_cycles(config_.max_cycles);
    gpu->set_trace_label("FUZZ");
    kernels::PreparedKernel prep = fuzz::prepare_generated(*gpu, kernel);
    if (static_filter) prep.static_report = report;
    sim::SimResult result = gpu->launch(prep.launch());
    if (!trace_path.empty() && (gpu->trace_writer() == nullptr || !gpu->trace_writer()->finish())) {
      result.completed = false;
      result.error = "trace write failed";
    }
    Tracer::Scope dtor(ctx_.tracer, "sim.gpu_dtor");
    gpu.reset();
    return result;
  }

  /// sw-HAccRG or GRace-add instrumented live run, as run_case issues it.
  bool instrumented_run(const char* span_name, const fuzz::GeneratedKernel& kernel, bool grace) {
    Tracer::Scope span(ctx_.tracer, span_name);
    sim::SimConfig sc;
    sc.num_threads = 1;
    sim::Gpu gpu(fuzz_gpu(), rd::HaccrgConfig{}, sc);
    gpu.set_max_cycles(config_.max_cycles);
    kernels::PreparedKernel prep = fuzz::prepare_generated(gpu, kernel);
    const bool fits = grace ? swrace::grace_fits(prep.program) : swrace::sw_haccrg_fits(prep.program);
    if (!fits) return true;  // run_case reports the packing bug; nothing to time
    swrace::InstrumentOptions opts;
    opts.static_prune = false;
    if (grace)
      swrace::attach_grace(gpu, prep, opts);
    else
      swrace::attach_sw_haccrg(gpu, prep, opts);
    return gpu.launch(prep.launch()).completed;
  }

  RunContext& ctx_;
  fuzz::CampaignConfig config_;  ///< `haccrg-fuzz run` defaults plus a scratch dir
  std::vector<fuzz::KernelSpec> batch_;
  std::vector<Reference> reference_;  ///< per case, from the first pass
};

}  // namespace

std::unique_ptr<Product> make_fuzz_campaign(RunContext& ctx) {
  return std::make_unique<FuzzCampaign>(ctx);
}

}  // namespace perfbench
