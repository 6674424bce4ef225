// Fault-injection framework and graceful-degradation tests: FaultPlan
// parsing, per-site RNG stream independence, strict config validation
// (HaccrgConfig::validate / SimConfig::parse_env), the finite shadow
// table's eviction accounting, RaceLog saturation, the end-to-end
// coverage-accounting invariant — every lost detection opportunity shows
// up in rd.coverage_lost, never silently — and the order in which an
// ID-register fault meets a same-cycle fence commit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "fault/fault.hpp"
#include "haccrg/options.hpp"
#include "haccrg/race.hpp"
#include "isa/builder.hpp"
#include "kernels/common.hpp"
#include "sim/gpu.hpp"
#include "sim/sim_config.hpp"
#include "temp_path.hpp"
#include "trace/reader.hpp"

namespace haccrg {
namespace {

using fault::FaultPlan;
using fault::FaultSite;
using fault::FaultStream;

// --- FaultPlan parsing -------------------------------------------------------

TEST(FaultPlanParse, EmptyStringIsNoFaultPlan) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::parse("", plan).ok());
  EXPECT_FALSE(plan.any());
  EXPECT_EQ(plan.seed, 0u);
}

TEST(FaultPlanParse, FullPlanRoundTrips) {
  FaultPlan plan;
  const std::string text =
      "seed=7,shared_flip=100,global_flip=200,bloom_flip=300,racereg_drop=400,"
      "icnt_drop=500,icnt_dup=600,icnt_delay=700,dram_flip=800,trace_corrupt=900,"
      "retry_timeout=32,max_retries=8";
  ASSERT_TRUE(FaultPlan::parse(text, plan).ok());
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.rate(FaultSite::kSharedShadowFlip), 100u);
  EXPECT_EQ(plan.rate(FaultSite::kGlobalShadowFlip), 200u);
  EXPECT_EQ(plan.rate(FaultSite::kBloomFlip), 300u);
  EXPECT_EQ(plan.rate(FaultSite::kRaceRegDrop), 400u);
  EXPECT_EQ(plan.rate(FaultSite::kIcntDrop), 500u);
  EXPECT_EQ(plan.rate(FaultSite::kIcntDup), 600u);
  EXPECT_EQ(plan.rate(FaultSite::kIcntDelay), 700u);
  EXPECT_EQ(plan.rate(FaultSite::kDramShadowFlip), 800u);
  EXPECT_EQ(plan.rate(FaultSite::kTraceCorrupt), 900u);
  EXPECT_EQ(plan.retry_timeout, 32u);
  EXPECT_EQ(plan.max_retries, 8u);
  EXPECT_TRUE(plan.any());

  // describe() re-parses to the same plan (the campaign-log contract).
  FaultPlan back;
  ASSERT_TRUE(FaultPlan::parse(plan.describe(), back).ok());
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.rate_ppm, plan.rate_ppm);
  EXPECT_EQ(back.retry_timeout, plan.retry_timeout);
  EXPECT_EQ(back.max_retries, plan.max_retries);
}

TEST(FaultPlanParse, TrailingAndDoubledCommasTolerated) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::parse("seed=3,,icnt_drop=10,", plan).ok());
  EXPECT_EQ(plan.seed, 3u);
  EXPECT_EQ(plan.rate(FaultSite::kIcntDrop), 10u);
}

TEST(FaultPlanParse, RejectionsLeavePlanUntouched) {
  const char* bad[] = {
      "bogus_key=1",          // unknown key
      "seed",                 // no '='
      "seed=abc",             // non-numeric
      "seed=",                // empty value
      "shared_flip=1000001",  // over 100% in ppm
      "retry_timeout=0",      // zero timeout would spin
      "retry_timeout=1000001",
      "max_retries=1025",
      "seed=99999999999999999999999",  // u64 overflow
  };
  for (const char* text : bad) {
    FaultPlan plan;
    plan.seed = 123;  // sentinel: must survive a failed parse
    const Status status = FaultPlan::parse(text, plan);
    EXPECT_FALSE(status.ok()) << text;
    EXPECT_FALSE(status.message().empty()) << text;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(plan.seed, 123u) << text << ": rejected parse clobbered the plan";
  }
}

// --- FaultStream discipline --------------------------------------------------

TEST(FaultStream, ZeroRateNeverAdvances) {
  // A disarmed site must not consume randomness: its stream position —
  // and thus every other draw made from an identically keyed stream —
  // is unchanged by any number of zero-rate rolls.
  FaultStream a(99, FaultSite::kIcntDrop, 0);
  FaultStream b(99, FaultSite::kIcntDrop, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(a.roll(0));
  EXPECT_EQ(a.injected(), 0u);
  EXPECT_EQ(a.draw(), b.draw());
}

TEST(FaultStream, FullRateAlwaysHits) {
  FaultStream s(1, FaultSite::kSharedShadowFlip, 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(s.roll(1'000'000));
  EXPECT_EQ(s.injected(), 100u);
}

TEST(FaultStream, DistinctSitesAndUnitsAreIndependent) {
  FaultStream site_a(5, FaultSite::kIcntDrop, 0);
  FaultStream site_b(5, FaultSite::kIcntDup, 0);
  FaultStream unit_b(5, FaultSite::kIcntDrop, 1);
  EXPECT_NE(site_a.draw(), site_b.draw());
  FaultStream site_a2(5, FaultSite::kIcntDrop, 0);
  EXPECT_NE(site_a2.draw(), unit_b.draw());
}

// --- HaccrgConfig::validate --------------------------------------------------

TEST(HaccrgConfigValidate, DefaultAndTypicalConfigsPass) {
  EXPECT_TRUE(rd::HaccrgConfig{}.validate().ok());
  rd::HaccrgConfig combined;
  combined.enable_shared = true;
  combined.enable_global = true;
  combined.shared_granularity = 16;
  combined.global_granularity = 4;
  EXPECT_TRUE(combined.validate().ok());
}

TEST(HaccrgConfigValidate, RejectsBadGranularity) {
  for (u32 bad : {0u, 3u, 5000u}) {
    rd::HaccrgConfig cfg;
    cfg.shared_granularity = bad;
    EXPECT_FALSE(cfg.validate().ok()) << "shared_granularity=" << bad;
    rd::HaccrgConfig cfg2;
    cfg2.global_granularity = bad;
    EXPECT_FALSE(cfg2.validate().ok()) << "global_granularity=" << bad;
  }
}

TEST(HaccrgConfigValidate, RejectsBadBloomGeometry) {
  rd::HaccrgConfig cfg;
  cfg.bloom_bits = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = rd::HaccrgConfig{};
  cfg.bloom_bits = 64;  // wider than a signature word
  EXPECT_FALSE(cfg.validate().ok());
  cfg = rd::HaccrgConfig{};
  cfg.bloom_bins = 3;  // 16 bits / 3 bins is not a power-of-two bin
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(HaccrgConfigValidate, RejectsBadRaceLogLimits) {
  rd::HaccrgConfig cfg;
  cfg.max_recorded_races = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = rd::HaccrgConfig{};
  cfg.max_unique_races = cfg.max_recorded_races - 1;  // cap below the log size
  EXPECT_FALSE(cfg.validate().ok());
  cfg = rd::HaccrgConfig{};
  cfg.max_unique_races = 0;  // 0 = unbounded is allowed
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(HaccrgConfigValidate, RejectsStaticFilterWithRegrouping) {
  rd::HaccrgConfig cfg;
  cfg.static_filter = true;
  cfg.warp_regrouping = true;
  const Status status = cfg.validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.to_string().find("static"), std::string::npos);
}

// --- SimConfig::parse_env ----------------------------------------------------

struct EnvGuard {
  // Restores both variables at scope exit so tests cannot leak state.
  ~EnvGuard() {
    unsetenv("HACCRG_THREADS");
    unsetenv("HACCRG_FAULTS");
  }
};

TEST(SimConfigParseEnv, AcceptsCleanEnvironment) {
  EnvGuard guard;
  unsetenv("HACCRG_THREADS");
  unsetenv("HACCRG_FAULTS");
  sim::SimConfig cfg;
  EXPECT_TRUE(sim::SimConfig::parse_env(cfg).ok());
  EXPECT_FALSE(cfg.faults.any());
}

TEST(SimConfigParseEnv, ParsesValidValues) {
  EnvGuard guard;
  setenv("HACCRG_THREADS", "4", 1);
  setenv("HACCRG_FAULTS", "seed=11,icnt_drop=250", 1);
  sim::SimConfig cfg;
  ASSERT_TRUE(sim::SimConfig::parse_env(cfg).ok());
  EXPECT_EQ(cfg.num_threads, 4u);
  EXPECT_EQ(cfg.faults.seed, 11u);
  EXPECT_EQ(cfg.faults.rate(FaultSite::kIcntDrop), 250u);
}

TEST(SimConfigParseEnv, RejectsBadThreads) {
  EnvGuard guard;
  for (const char* bad : {"", "zero", "-1", "0", "65", "4x"}) {
    setenv("HACCRG_THREADS", bad, 1);
    sim::SimConfig cfg;
    cfg.num_threads = 7;  // sentinel
    const Status status = sim::SimConfig::parse_env(cfg);
    EXPECT_FALSE(status.ok()) << "'" << bad << "'";
    EXPECT_NE(status.to_string().find("HACCRG_THREADS"), std::string::npos) << bad;
    EXPECT_EQ(cfg.num_threads, 7u) << bad << ": rejected parse clobbered the config";
  }
}

TEST(SimConfigParseEnv, RejectsBadFaults) {
  EnvGuard guard;
  setenv("HACCRG_FAULTS", "shared_flip=oops", 1);
  sim::SimConfig cfg;
  const Status status = sim::SimConfig::parse_env(cfg);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.to_string().find("HACCRG_FAULTS"), std::string::npos);
}

// --- RaceLog saturation ------------------------------------------------------

rd::RaceRecord sample_race(Addr granule) {
  rd::RaceRecord r;
  r.type = rd::RaceType::kWaw;
  r.mechanism = rd::RaceMechanism::kIntraWarpWaw;
  r.space = rd::MemSpace::kShared;
  r.granule_addr = granule;
  return r;
}

TEST(RaceLogSaturation, CapsUniqueRacesAndCounts) {
  rd::RaceLog log(64);
  log.set_max_unique(2);
  EXPECT_TRUE(log.record(sample_race(0x10)));
  EXPECT_TRUE(log.record(sample_race(0x20)));
  EXPECT_EQ(log.saturated(), 0u);
  // A third *distinct* race saturates; a repeat of a known race does not.
  EXPECT_FALSE(log.record(sample_race(0x30)));
  EXPECT_EQ(log.saturated(), 1u);
  log.record(sample_race(0x10));
  EXPECT_EQ(log.saturated(), 1u);
  EXPECT_EQ(log.unique(), 2u);
  log.clear();
  EXPECT_EQ(log.saturated(), 0u);
  EXPECT_TRUE(log.record(sample_race(0x30)));
}

// --- End-to-end degradation accounting ---------------------------------------

arch::GpuConfig test_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

sim::SimResult run_kernel(const std::string& name, const rd::HaccrgConfig& det,
                          const FaultPlan& faults = {}) {
  sim::SimConfig sim;
  sim.faults = faults;
  sim::Gpu gpu(test_gpu(), det, sim);
  kernels::PreparedKernel prep =
      kernels::find_benchmark(name)->prepare(gpu, kernels::BenchOptions{});
  sim::SimResult r = gpu.launch(prep.launch());
  EXPECT_TRUE(r.completed) << r.error;
  return r;
}

TEST(Degradation, InvalidConfigFailsLaunchWithStatusMessage) {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.shared_granularity = 3;  // not a power of two
  sim::Gpu gpu(test_gpu(), det, sim::SimConfig{});
  kernels::PreparedKernel prep =
      kernels::find_benchmark("REDUCE")->prepare(gpu, kernels::BenchOptions{});
  sim::SimResult r = gpu.launch(prep.launch());
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("invalid haccrg config"), std::string::npos) << r.error;
}

TEST(Degradation, FiniteShadowTableCountsEvictions) {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.shared_granularity = 4;
  det.shared_shadow_capacity = 8;  // far smaller than the working set
  const sim::SimResult r = run_kernel("HIST", det);
  EXPECT_GT(r.stats.get("rd.evictions"), 0u);
  // The coverage invariant: every eviction is counted as lost coverage.
  EXPECT_GE(r.stats.get("rd.coverage_lost"), r.stats.get("rd.evictions"));

  // A fully provisioned table records no evictions and no lost coverage.
  det.shared_shadow_capacity = 0;
  const sim::SimResult full = run_kernel("HIST", det);
  EXPECT_FALSE(full.stats.has("rd.evictions"));
  EXPECT_FALSE(full.stats.has("rd.coverage_lost"));
}

TEST(Degradation, DetectorFaultsAreCountedNeverSilent) {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.enable_global = true;
  det.shared_granularity = 16;
  det.global_granularity = 4;

  FaultPlan plan;
  plan.seed = 7;
  plan.set_rate(FaultSite::kSharedShadowFlip, 50'000);
  plan.set_rate(FaultSite::kGlobalShadowFlip, 50'000);
  plan.set_rate(FaultSite::kBloomFlip, 20'000);
  plan.set_rate(FaultSite::kRaceRegDrop, 20'000);
  plan.set_rate(FaultSite::kDramShadowFlip, 50'000);
  const sim::SimResult r = run_kernel("HIST", det, plan);

  const u64 state_faults =
      r.stats.get("fault.shared_flip") + r.stats.get("fault.global_flip") +
      r.stats.get("fault.bloom_flip") + r.stats.get("fault.racereg_drop") +
      r.stats.get("fault.dram_flip");
  EXPECT_GT(state_faults, 0u) << "campaign injected nothing; rates or wiring dead";
  // Every state injection is accounted as potentially lost coverage —
  // along with evictions and saturation (zero here).
  EXPECT_EQ(r.stats.get("rd.coverage_lost"),
            state_faults + r.stats.get("rd.evictions") +
                r.stats.get("rd.race_log_saturated"));
}

TEST(Degradation, IcntFaultsPerturbTimingNotResults) {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.enable_global = true;
  det.shared_granularity = 16;
  det.global_granularity = 4;

  const sim::SimResult clean = run_kernel("REDUCE", det);
  FaultPlan plan;
  plan.seed = 3;
  plan.set_rate(FaultSite::kIcntDrop, 100'000);
  plan.set_rate(FaultSite::kIcntDelay, 100'000);
  plan.retry_timeout = 16;
  const sim::SimResult faulty = run_kernel("REDUCE", det, plan);

  // Packets are data-less: drops/delays perturb timing (either way —
  // retry batching can even shorten a run) but the kernel still
  // completes with the same race verdict (REDUCE has none), and
  // timing-only faults do not claim lost coverage.
  EXPECT_NE(faulty.cycles, clean.cycles);
  EXPECT_GT(faulty.stats.get("icnt.fault_drops") + faulty.stats.get("icnt.fault_delays"), 0u);
  EXPECT_EQ(faulty.races.unique(), clean.races.unique());
  EXPECT_FALSE(faulty.stats.has("rd.coverage_lost"));
}

TEST(Degradation, MaxRetriesBoundsWorstCaseUnderFullDropRate) {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.enable_global = true;
  det.shared_granularity = 16;
  det.global_granularity = 4;

  FaultPlan plan;
  plan.seed = 1;
  plan.set_rate(FaultSite::kIcntDrop, 1'000'000);  // every packet, every time
  plan.retry_timeout = 8;
  plan.max_retries = 2;
  const sim::SimResult r = run_kernel("REDUCE", det, plan);
  // Every packet is eventually forced through — the run terminates and
  // says how often the bound fired.
  EXPECT_GT(r.stats.get("icnt.fault_forced"), 0u);
}

// --- ID-register faults meet fence commits in staged-event order ---------------

// Three one-warp blocks on two SMs. Block 0 (SM0, warp slot 0) stores a
// word per lane and fences; its fence commits when the store
// acknowledgement is delivered. Block 2 (SM0, warp slot 1) spins, then
// issues its own fence in that same cycle. Block 1 (SM1) spins, then
// reads block 0's words. The trip counts are the per-block spins.
isa::Program fence_meets_drop_kernel(u32 filler_trips, u32 reader_trips) {
  isa::KernelBuilder kb("fence_meets_drop");
  const isa::Reg tid = kb.special(isa::SpecialReg::kTid);
  const isa::Reg cta = kb.special(isa::SpecialReg::kCtaId);
  const isa::Reg buf = kb.param(0);
  const isa::Pred writer = kb.pred();
  const isa::Pred reader = kb.pred();
  kb.setp(writer, isa::CmpOp::kEq, cta, 0u);
  kb.setp(reader, isa::CmpOp::kEq, cta, 1u);
  const isa::Reg word = kb.reg();
  kb.shl(word, tid, 2u);
  kb.add(word, word, buf);
  const isa::Reg trips = kb.reg();
  kb.sel(trips, reader, kb.imm(reader_trips), kb.imm(filler_trips));
  kb.sel(trips, writer, kb.imm(0), trips);
  kb.if_(writer, [&] { kb.st_global(word, tid); });
  const isa::Reg i = kb.reg();
  kb.for_range(i, 0u, trips, 1u, [] {});
  kb.mov(i, tid);
  kb.if_(reader, [&] { kb.ld_global(i, word); });
  kb.memfence();
  kb.exit();
  return kb.build();
}

TEST(FaultOrdering, FenceCommitComesBeforeTheSameCycleFenceIdDrop) {
  // In one SM0 cycle, Sm::deliver commits warp 0's fence (the store ack)
  // and warp 1's fence issue rolls racereg_drop. The roll follows the
  // commit, so its effect must too: bump warp 0's fence ID, then drop it
  // to zero. The reader then finds the ID its write recorded and reports
  // the unfenced-looking read. Applied the other way round, the drop is
  // undone by the bump and the read looks fenced.
  const isa::Program program = fence_meets_drop_kernel(/*filler_trips=*/28, /*reader_trips=*/50);
  auto run = [&](const FaultPlan& plan, const std::string& path) {
    arch::GpuConfig gpu_cfg;
    gpu_cfg.num_sms = 2;
    gpu_cfg.max_threads_per_sm = 64;  // two warp slots: a drop picks warp 0 or 1
    gpu_cfg.simd_width = 32;          // one issue per cycle
    gpu_cfg.l2_latency = 19;          // lines the ack up with warp 1's fence
    gpu_cfg.fence_latency = 400;      // SM0 issues nothing while the reader reads
    gpu_cfg.device_mem_bytes = 4 * 1024 * 1024;
    rd::HaccrgConfig det;
    det.enable_global = true;
    det.global_granularity = 4;
    sim::SimConfig sim_cfg;
    sim_cfg.faults = plan;
    sim_cfg.trace_path = path;
    sim::Gpu gpu(gpu_cfg, det, sim_cfg);
    sim::LaunchConfig launch;
    launch.program = &program;
    launch.grid_dim = 3;
    launch.block_dim = 32;
    launch.params[0] = gpu.allocator().alloc(256, "buf");
    return gpu.launch(launch);
  };

  // Without faults the fence orders the write before the read.
  const std::string path = testing_util::temp_path("test_fault_fence_meets_drop.trc");
  const sim::SimResult clean = run(FaultPlan{}, path);
  ASSERT_TRUE(clean.completed) << clean.error;
  EXPECT_EQ(clean.races.unique(), 0u);

  // Every issued instruction drops an ID. With plan seed 2 the roll in
  // the commit cycle draws warp 0's fence ID (an even draw d with
  // (d >> 1) % 2 == 0); most seeds draw another register there.
  FaultPlan plan;
  plan.seed = 2;
  plan.set_rate(FaultSite::kRaceRegDrop, 1'000'000);
  const sim::SimResult faulty = run(plan, path);
  ASSERT_TRUE(faulty.completed) << faulty.error;

  // Precondition, from the run's trace: warp 0's fence commit and warp
  // 1's fence share a cycle, and SM1's read falls inside the fence
  // latency after it, before SM0 issues again. A timing change fails
  // here instead of leaving the check below testing nothing.
  Cycle commit0 = 0, commit1 = 0, read = 0;
  {
    trace::TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    trace::Event e;
    while (reader.next(e)) {
      if (e.kind == trace::EventKind::kFenceCommit && e.sm == 0)
        (e.warp_slot == 0 ? commit0 : commit1) = e.cycle;
      if (e.kind == trace::EventKind::kGlobalLoad) read = e.cycle;
    }
  }
  std::remove(path.c_str());
  ASSERT_NE(commit0, 0u);
  ASSERT_EQ(commit0, commit1);
  ASSERT_GT(read, commit0);
  ASSERT_LT(read, commit0 + 400);

  ASSERT_EQ(faulty.races.races().size(), 32u);
  for (const rd::RaceRecord& race : faulty.races.races()) {
    EXPECT_EQ(race.mechanism, rd::RaceMechanism::kFence);
    EXPECT_EQ(race.sm_id, 1u);
    EXPECT_EQ(race.cycle, read);
  }
}

}  // namespace
}  // namespace haccrg
