#include "fuzz/campaign.hpp"

#include <cstdio>
#include <memory>

#include "analysis/static_race.hpp"
#include "swrace/grace.hpp"
#include "swrace/sw_haccrg.hpp"
#include "trace/replay.hpp"

namespace haccrg::fuzz {

namespace {

/// Same geometry as test_hw_sw_differential: grids of <= 4 blocks land
/// one block per SM, so cross-block fragments are also cross-SM.
arch::GpuConfig fuzz_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

/// Word granularity in both spaces — the configuration whose envelope
/// the differential tests pin.
rd::HaccrgConfig detection_word(bool static_filter) {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 4;
  cfg.global_granularity = 4;
  cfg.static_filter = static_filter;
  return cfg;
}

struct HwRun {
  bool completed = false;
  std::string error;
  rd::RaceLog races;
  StatSet stats;
  u64 cycles = 0;
};

HwRun run_hw(const GeneratedKernel& kernel, const rd::HaccrgConfig& det, u32 num_threads,
             u64 max_cycles, const std::string& trace_path, const fault::FaultPlan* faults,
             bool with_static_report) {
  sim::SimConfig sc;
  sc.num_threads = num_threads;
  sc.trace_path = trace_path;
  if (faults) sc.faults = *faults;
  sim::Gpu gpu(fuzz_gpu(), det, sc);
  gpu.set_max_cycles(max_cycles);
  gpu.set_trace_label("FUZZ");
  kernels::PreparedKernel prep = prepare_generated(gpu, kernel);
  if (with_static_report) {
    const analysis::AnalyzeOptions aopts =
        analysis::options_for(det, prep.block_dim, prep.grid_dim);
    prep.static_report = std::make_shared<analysis::StaticRaceReport>(
        analysis::analyze(prep.program, aopts));
  }
  sim::SimResult r = gpu.launch(prep.launch());
  HwRun run;
  run.completed = r.completed;
  run.error = r.error;
  run.races = r.races;
  run.stats = r.stats;
  run.cycles = r.cycles;
  return run;
}

struct SwRun {
  bool completed = false;
  bool fits = false;
  u64 races = 0;
  std::string error;
};

SwRun run_instrumented(const GeneratedKernel& kernel, u64 max_cycles, bool grace) {
  SwRun run;
  sim::SimConfig sc;
  sc.num_threads = 1;
  sim::Gpu gpu(fuzz_gpu(), rd::HaccrgConfig{}, sc);
  gpu.set_max_cycles(max_cycles);
  kernels::PreparedKernel prep = prepare_generated(gpu, kernel);
  run.fits = grace ? swrace::grace_fits(prep.program) : swrace::sw_haccrg_fits(prep.program);
  if (!run.fits) return run;
  swrace::InstrumentOptions opts;
  opts.static_prune = false;  // instrument everything: the envelope is exact
  if (grace)
    swrace::attach_grace(gpu, prep, opts);
  else
    swrace::attach_sw_haccrg(gpu, prep, opts);
  sim::SimResult r = gpu.launch(prep.launch());
  run.completed = r.completed;
  run.error = r.error;
  run.races = grace ? swrace::grace_race_count(gpu, prep) : swrace::sw_haccrg_race_count(gpu, prep);
  return run;
}

fault::FaultPlan armed_plan(u32 case_index) {
  fault::FaultPlan plan;
  const Status parsed = fault::FaultPlan::parse(
      "seed=" + std::to_string(1000 + case_index) +
          ",shared_flip=5000,global_flip=5000,racereg_drop=2000",
      plan);
  (void)parsed;  // the literal is well-formed by construction
  return plan;
}

}  // namespace

SpecPredicate violation_predicate(const CampaignConfig& config) {
  return [config](const KernelSpec& spec) { return !run_case(spec, config).ok(); };
}

SpecPredicate detects_class_predicate(OracleClass cls) {
  return [cls](const KernelSpec& spec) {
    const GeneratedKernel kernel = generate(spec);
    const HwRun run =
        run_hw(kernel, detection_word(false), 1, 20'000'000, "", nullptr, false);
    if (!run.completed) return false;
    for (const rd::RaceRecord& race : run.races.races()) {
      // Both epoch classes surface as kBarrier; the memory space is what
      // distinguishes a shared-epoch witness from a global-epoch one.
      if (cls == OracleClass::kSharedEpoch && race.space != rd::MemSpace::kShared) continue;
      if (cls == OracleClass::kGlobalEpoch && race.space != rd::MemSpace::kGlobal) continue;
      if (mechanism_matches(cls, race.mechanism)) return true;
    }
    return false;
  };
}

CaseResult run_case(const KernelSpec& spec, const CampaignConfig& config, u32 case_index) {
  CaseResult result;
  result.name = spec.name;

  const Status valid = spec.validate();
  if (!valid.ok()) {
    result.violations.push_back("invalid spec: " + valid.message());
    return result;
  }

  const GeneratedKernel kernel = generate(spec);
  for (const OraclePair& pair : kernel.oracle.pairs)
    ++result.class_pairs[static_cast<u32>(pair.cls)];

  auto fail = [&](const std::string& what) { result.violations.push_back(what); };

  // --- Hardware live, determinism sweep, trace recording --------------------
  const std::string trace_path =
      (config.check_replay && !config.scratch_dir.empty())
          ? config.scratch_dir + "/" + spec.name + ".trc"
          : "";
  const HwRun base =
      run_hw(kernel, detection_word(false), 1, config.max_cycles, trace_path, nullptr, false);
  if (!base.completed) {
    fail("hw run (1 thread) did not complete: " + base.error);
    return result;
  }
  result.hw_races = base.races.unique();
  result.cycles = base.cycles;
  const std::vector<std::string> base_lines = trace::race_set_lines(base.races);

  if (config.check_determinism) {
    for (u32 threads : {2u, 8u}) {
      const HwRun run =
          run_hw(kernel, detection_word(false), threads, config.max_cycles, "", nullptr, false);
      if (!run.completed) {
        fail("hw run (" + std::to_string(threads) + " threads) did not complete: " + run.error);
        continue;
      }
      if (trace::race_set_lines(run.races) != base_lines)
        fail("determinism: race set differs between 1 and " + std::to_string(threads) +
             " engine threads");
      if (run.cycles != base.cycles)
        fail("determinism: cycle count differs between 1 and " + std::to_string(threads) +
             " engine threads");
    }
  }

  // --- Oracle completeness + precision ---------------------------------------
  const std::vector<std::string> missed = kernel.oracle.check_hw_complete(base.races);
  for (const std::string& v : missed) fail(v);
  for (const std::string& v : kernel.oracle.check_hw_precise(base.races)) fail(v);
  if (!missed.empty()) {
    // Dump what the detector did report: the shrunk repro plus this list
    // is usually enough to localize an oracle/schedule disagreement.
    for (const std::string& line : base_lines) fail("  hw saw: " + line);
    if (base_lines.empty()) fail("  hw saw: (no races)");
  }

  // --- Static verifier: soundness + filter ablation --------------------------
  if (config.check_static) {
    const analysis::AnalyzeOptions aopts =
        analysis::options_for(detection_word(false), kernel.block_dim, kernel.grid_dim);
    const analysis::StaticRaceReport report = analysis::analyze(kernel.program, aopts);
    for (const OraclePair& pair : kernel.oracle.pairs) {
      if (pair.cls == OracleClass::kAtomicBlind) continue;  // atomics-as-sync, by design
      for (u32 pc : pair.pcs)
        if (report.is_safe(pc))
          fail("static soundness: oracle-racy pc " + std::to_string(pc) +
               " classified provably safe (" + pair.note + ")");
    }
    const HwRun filtered =
        run_hw(kernel, detection_word(true), 1, config.max_cycles, "", nullptr, true);
    if (!filtered.completed)
      fail("hw run (static filter) did not complete: " + filtered.error);
    else if (rd::race_locations(filtered.races) != rd::race_locations(base.races))
      fail("static filter ablation changed the racy location set");
  }

  // --- Trace replay: hw identity + software emulators ------------------------
  bool have_emulators = false;
  bool sw_emulator_verdict = false;
  bool grace_emulator_verdict = false;
  if (!trace_path.empty()) {
    trace::ReplayOptions ropts;
    ropts.hw = true;
    ropts.sw_haccrg = true;
    ropts.grace = true;
    const trace::ReplayResult replay = trace::replay_trace(trace_path, ropts);
    if (!replay.ok) {
      fail("trace replay failed: " + replay.error);
    } else if (replay.kernels.size() != 1) {
      fail("trace replay: expected 1 kernel, got " + std::to_string(replay.kernels.size()));
    } else {
      const trace::KernelReplay& rep = replay.kernels[0];
      if (trace::race_identity_set(rep.races) != trace::race_identity_set(base.races))
        fail("trace replay race set differs from the live run");
      have_emulators = true;
      sw_emulator_verdict = rep.sw_haccrg_races > 0;
      grace_emulator_verdict = rep.grace_races > 0;
    }
    std::remove(trace_path.c_str());
  }

  // --- Software detectors live ------------------------------------------------
  if (config.check_sw) {
    const SwRun sw = run_instrumented(kernel, config.max_cycles, /*grace=*/false);
    if (!sw.fits) {
      fail("sw-HAccRG instrumentation does not fit (packing budget bug)");
    } else if (!sw.completed) {
      fail("sw-HAccRG instrumented run did not complete: " + sw.error);
    } else {
      result.sw_races = sw.races;
      if ((sw.races > 0) != kernel.oracle.sw_expected)
        fail(std::string("sw-HAccRG envelope: expected ") +
             (kernel.oracle.sw_expected ? "races" : "silence") + ", counter = " +
             std::to_string(sw.races));
      if (have_emulators && sw_emulator_verdict != (sw.races > 0))
        fail("sw-HAccRG emulator verdict differs from the instrumented run");
    }
  }
  if (config.check_grace) {
    const SwRun grace = run_instrumented(kernel, config.max_cycles, /*grace=*/true);
    if (!grace.fits) {
      fail("GRace instrumentation does not fit (packing budget bug)");
    } else if (!grace.completed) {
      fail("GRace instrumented run did not complete: " + grace.error);
    } else {
      result.grace_races = grace.races;
      if ((grace.races > 0) != kernel.oracle.grace_expected)
        fail(std::string("GRace envelope: expected ") +
             (kernel.oracle.grace_expected ? "races" : "silence") + ", counter = " +
             std::to_string(grace.races));
      if (have_emulators && grace_emulator_verdict != (grace.races > 0))
        fail("GRace emulator verdict differs from the instrumented run");
    }
  }

  // --- Fault-injection feed (sampled) ----------------------------------------
  if (config.fault_every != 0 && case_index % config.fault_every == 0) {
    fault::FaultPlan zero;
    zero.seed = 7;  // armed seed, all rates zero: must be a no-op
    const HwRun quiet =
        run_hw(kernel, detection_word(false), 1, config.max_cycles, "", &zero, false);
    if (!quiet.completed)
      fail("zero-rate fault run did not complete: " + quiet.error);
    else if (trace::race_set_lines(quiet.races) != base_lines || quiet.cycles != base.cycles)
      fail("zero-rate fault plan perturbed the baseline");

    const fault::FaultPlan plan = armed_plan(case_index);
    const HwRun faulty =
        run_hw(kernel, detection_word(false), 1, config.max_cycles, "", &plan, false);
    if (!faulty.completed) {
      fail("armed fault run did not complete: " + faulty.error);
    } else {
      const u64 lost = faulty.stats.has("rd.coverage_lost") ? faulty.stats.get("rd.coverage_lost")
                                                            : 0;
      if (!kernel.oracle.check_hw_complete(faulty.races).empty() && lost == 0)
        fail("fault run missed an oracle race without reporting rd.coverage_lost");
      const u64 state_faults = faulty.stats.get("fault.shared_flip") +
                               faulty.stats.get("fault.global_flip") +
                               faulty.stats.get("fault.racereg_drop");
      if (lost < state_faults)
        fail("fault accounting: rd.coverage_lost below the state-site injection count");
    }
  }

  return result;
}

CampaignSummary run_campaign(u64 base_seed, u32 count, const FuzzConfig& fuzz_config,
                             const CampaignConfig& config, u32 progress_every) {
  CampaignSummary summary;
  for (u32 i = 0; i < count; ++i) {
    const KernelSpec spec = spec_from_seed(base_seed + i, fuzz_config);
    const CaseResult result = run_case(spec, config, i);
    ++summary.cases;
    for (u32 c = 0; c < kNumOracleClasses; ++c) summary.class_pairs[c] += result.class_pairs[c];
    if (!result.ok()) {
      ++summary.failures;
      FailedCase failed;
      failed.spec = spec;
      failed.violations = result.violations;
      failed.shrunk = shrink(spec, violation_predicate(config)).spec;
      summary.failed.push_back(std::move(failed));
    }
    if (progress_every != 0 && (i + 1) % progress_every == 0)
      std::fprintf(stderr, "fuzz: %u/%u kernels, %u failing\n", i + 1, count, summary.failures);
  }
  return summary;
}

}  // namespace haccrg::fuzz
