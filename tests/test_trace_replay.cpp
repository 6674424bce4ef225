// Replay-vs-live equivalence: for every registry kernel (and a sample of
// the injection campaign), recording a trace and replaying it through the
// detectors must reproduce the live run's race-location set exactly, and
// a binding max_recorded_races cap must keep the same records both ways.
// Also covers: recording is byte-identical across engine thread counts
// (the trace is written only in serial phases), a masked-off access
// records no event, the software-emulator replays agree with the
// instrumented live runs on the race verdict, and the checked-in golden
// trace still replays to its recorded race set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/static_race.hpp"
#include "isa/builder.hpp"
#include "kernels/common.hpp"
#include "sim/gpu.hpp"
#include "swrace/grace.hpp"
#include "swrace/sw_haccrg.hpp"
#include "temp_path.hpp"
#include "trace/replay.hpp"

namespace haccrg {
namespace {

using kernels::BenchOptions;
using kernels::PreparedKernel;
using kernels::find_benchmark;

arch::GpuConfig test_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

rd::HaccrgConfig detection_combined() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 16;
  cfg.global_granularity = 4;
  return cfg;
}

rd::HaccrgConfig detection_word() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 4;
  cfg.global_granularity = 4;
  return cfg;
}

std::string trace_file(const std::string& tag) {
  return testing_util::temp_path("test_trace_" + tag + ".trc");
}

/// Record `name` with tracing on; return the live result via `live_out`.
void record(const std::string& name, const rd::HaccrgConfig& det, const BenchOptions& opts,
            const std::string& path, sim::SimResult& live_out) {
  sim::SimConfig sim_cfg;
  sim_cfg.trace_path = path;
  sim::Gpu gpu(test_gpu(), det, sim_cfg);
  gpu.set_trace_label(name);
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, opts);
  live_out = gpu.launch(prep.launch());
  ASSERT_TRUE(live_out.completed) << name << ": " << live_out.error;
}

void expect_replay_matches(const std::string& name, const rd::HaccrgConfig& det,
                           const BenchOptions& opts, const std::string& tag) {
  const std::string path = trace_file(tag);
  sim::SimResult live;
  record(name, det, opts, path, live);
  if (::testing::Test::HasFatalFailure()) return;

  const trace::ReplayResult replayed = trace::replay_trace(path);
  ASSERT_TRUE(replayed.ok) << tag << ": " << replayed.error;
  ASSERT_EQ(replayed.kernels.size(), 1u);
  EXPECT_EQ(replayed.kernels[0].label, name);
  EXPECT_EQ(replayed.kernels[0].cycles, live.cycles);
  EXPECT_EQ(replayed.race_set(), trace::race_identity_set(live.races))
      << tag << ": replay race set diverged from the live run";
  EXPECT_EQ(replayed.kernels[0].races.unique(), live.races.unique()) << tag;
  std::remove(path.c_str());
}

class TraceReplayAllKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceReplayAllKernels, ReproducesLiveRaceSetCombined) {
  expect_replay_matches(GetParam(), detection_combined(), BenchOptions{},
                        std::string(GetParam()) + "_combined");
}

TEST_P(TraceReplayAllKernels, ReproducesLiveRaceSetWordGranularity) {
  expect_replay_matches(GetParam(), detection_word(), BenchOptions{},
                        std::string(GetParam()) + "_word");
}

INSTANTIATE_TEST_SUITE_P(Registry, TraceReplayAllKernels,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE",
                                           "PSUM", "OFFT", "KMEANS", "HASH"));

TEST(TraceReplayInjection, SampledCampaignAcrossSeeds) {
  struct Case {
    const char* kernel;
    kernels::InjectionKind kind;
  };
  const Case cases[] = {
      {"REDUCE", kernels::InjectionKind::kRemoveBarrier},
      {"PSUM", kernels::InjectionKind::kRogueCrossBlock},
      {"OFFT", kernels::InjectionKind::kRemoveFence},
      {"HASH", kernels::InjectionKind::kRogueCritical},
  };
  for (const Case& c : cases) {
    for (u32 seed : {0u, 1u, 2u}) {
      BenchOptions opts;
      opts.seed = seed;
      opts.injection.kind = c.kind;
      opts.injection.site = 0;
      expect_replay_matches(c.kernel, detection_combined(), opts,
                            std::string(c.kernel) + "_inj_s" + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Two blocks whose intra-warp WAWs land on one cycle: block 0 (SM0) in
// global memory, block 1 (SM1) in shared memory. Block 0 runs an empty
// loop once and block 1 skips it, which lines SM0's global store up with
// SM1's shared store three instructions later.
isa::Program same_cycle_waw_kernel() {
  isa::KernelBuilder kb("same_cycle_waw");
  const isa::Reg tid = kb.special(isa::SpecialReg::kTid);
  const isa::Reg cta = kb.special(isa::SpecialReg::kCtaId);
  const isa::Reg buf = kb.param(0);
  const isa::Pred block0 = kb.pred();
  kb.setp(block0, isa::CmpOp::kEq, cta, 0u);
  const isa::Reg lane_word = kb.reg();
  kb.shl(lane_word, tid, 2u);
  // Global: one word for block 0's lanes, a word per lane (further up the
  // buffer) for block 1's.
  const isa::Reg per_lane_global = kb.reg();
  kb.add(per_lane_global, lane_word, 256u);
  kb.add(per_lane_global, per_lane_global, buf);
  const isa::Reg global_addr = kb.reg();
  kb.sel(global_addr, block0, buf, per_lane_global);
  // Shared: a word per lane for block 0, one word for block 1.
  const isa::Reg zero = kb.imm(0);
  const isa::Reg shared_addr = kb.reg();
  kb.sel(shared_addr, block0, lane_word, zero);
  const isa::Reg trips = kb.reg();
  kb.sel(trips, block0, kb.imm(1), zero);
  const isa::Reg i = kb.reg();
  kb.for_range(i, 0u, trips, 1u, [] {});
  kb.st_global(global_addr, tid);
  const isa::Reg pad = kb.reg();
  for (int n = 0; n < 3; ++n) kb.mov(pad, tid);
  kb.st_shared(shared_addr, tid);
  kb.exit();
  return kb.build();
}

TEST(TraceReplayCap, BindingCapKeepsTheSameRecordsLiveAndReplayed) {
  const isa::Program program = same_cycle_waw_kernel();
  auto run = [&](u32 cap, const std::string& path, sim::SimResult& live,
                 trace::ReplayResult& replayed) {
    arch::GpuConfig gpu_cfg;  // Table I
    gpu_cfg.device_mem_bytes = 4 * 1024 * 1024;
    rd::HaccrgConfig det = detection_word();
    det.max_recorded_races = cap;
    sim::SimConfig sim_cfg;
    sim_cfg.trace_path = path;
    {
      sim::Gpu gpu(gpu_cfg, det, sim_cfg);
      sim::LaunchConfig launch;
      launch.program = &program;
      launch.grid_dim = 2;
      launch.block_dim = 32;
      launch.shared_mem_bytes = 256;
      launch.params[0] = gpu.allocator().alloc(1024, "buf");
      live = gpu.launch(launch);
    }
    replayed = trace::replay_trace(path);
    std::remove(path.c_str());
  };

  // Precondition: uncapped, the run has exactly the two WAWs, on one
  // cycle. A timing change that separates them fails here instead of
  // leaving the cap checks below testing nothing.
  sim::SimResult live;
  trace::ReplayResult replayed;
  run(64, trace_file("cap64"), live, replayed);
  ASSERT_TRUE(live.completed) << live.error;
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ASSERT_EQ(live.races.races().size(), 2u);
  const rd::RaceRecord& a = live.races.races()[0];
  const rd::RaceRecord& b = live.races.races()[1];
  ASSERT_EQ(a.mechanism, rd::RaceMechanism::kIntraWarpWaw);
  ASSERT_EQ(b.mechanism, rd::RaceMechanism::kIntraWarpWaw);
  ASSERT_NE(a.space, b.space);
  ASSERT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(replayed.race_set(), trace::race_identity_set(live.races));

  for (u32 cap : {1u, 2u}) {
    run(cap, trace_file("cap" + std::to_string(cap)), live, replayed);
    ASSERT_TRUE(live.completed) << live.error;
    ASSERT_TRUE(replayed.ok) << replayed.error;
    EXPECT_EQ(live.races.races().size(), cap);
    EXPECT_EQ(replayed.race_set(), trace::race_identity_set(live.races)) << "cap " << cap;
  }
}

TEST(TraceReplayRecording, ByteIdenticalAcrossThreadCounts) {
  // The writer only runs in the engine's serial phases, so the file must
  // not depend on the worker-thread count — same guarantee as the
  // simulation results themselves.
  auto record_bytes = [&](u32 threads, const std::string& path) {
    {
      // Scoped so the Gpu (and its TraceWriter) flushes before we read.
      sim::SimConfig sim_cfg;
      sim_cfg.num_threads = threads;
      sim_cfg.trace_path = path;
      sim::Gpu gpu(test_gpu(), detection_combined(), sim_cfg);
      gpu.set_trace_label("REDUCE");
      PreparedKernel prep = find_benchmark("REDUCE")->prepare(gpu, BenchOptions{});
      const sim::SimResult r = gpu.launch(prep.launch());
      EXPECT_TRUE(r.completed) << r.error;
    }
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<char> t1 = record_bytes(1, trace_file("threads1"));
  const std::vector<char> t2 = record_bytes(2, trace_file("threads2"));
  const std::vector<char> t8 = record_bytes(8, trace_file("threads8"));
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  for (const char* tag : {"threads1", "threads2", "threads8"})
    std::remove(trace_file(tag).c_str());
}

TEST(TraceReplayRecording, MaskedOffAccessesRecordNoEvent) {
  // KMEANS steps warps whose lanes are all masked off through shared
  // stores; an access with no active lane in its block's region has no
  // event, so every recorded access carries at least one lane.
  const std::string path = trace_file("masked");
  sim::SimResult live;
  record("KMEANS", detection_combined(), BenchOptions{}, path, live);
  if (::testing::Test::HasFatalFailure()) return;
  trace::TraceReader reader(path);
  ASSERT_TRUE(reader.ok());
  trace::DecodedTrace decoded;
  ASSERT_TRUE(trace::decode_trace(reader, decoded).ok());
  u64 accesses = 0;
  for (const trace::Event& e : decoded.events) {
    if (!trace::is_access_kind(e.kind)) continue;
    ++accesses;
    EXPECT_FALSE(e.lanes.empty()) << trace::event_kind_name(e.kind) << " at cycle " << e.cycle
                                  << " on sm " << e.sm << " pc " << e.pc;
  }
  EXPECT_GT(accesses, 0u);
  std::remove(path.c_str());
}

/// Live software-detector verdict for an instrumented run.
u64 live_sw_races(const std::string& name, bool grace) {
  sim::Gpu gpu(test_gpu(), rd::HaccrgConfig{});
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, BenchOptions{});
  if (grace)
    swrace::attach_grace(gpu, prep);
  else
    swrace::attach_sw_haccrg(gpu, prep);
  const sim::SimResult r = gpu.launch(prep.launch());
  EXPECT_TRUE(r.completed) << name << ": " << r.error;
  return grace ? swrace::grace_race_count(gpu, prep) : swrace::sw_haccrg_race_count(gpu, prep);
}

TEST(TraceReplaySoftware, EmulatorsAgreeWithInstrumentedRunsOnVerdict) {
  // The emulators follow the exact instrumented algorithms but replay the
  // uninstrumented access stream (see sw_replay.hpp for the two
  // documented approximations), so the comparison is on the verdict —
  // does the detector fire at all — not on raw counter values.
  for (const char* name : {"SCAN", "REDUCE", "HIST", "MCARLO"}) {
    const std::string path = trace_file(std::string("sw_") + name);
    sim::SimResult live;
    record(name, rd::HaccrgConfig{}, BenchOptions{}, path, live);
    if (::testing::Test::HasFatalFailure()) return;

    sim::Gpu gpu(test_gpu(), rd::HaccrgConfig{});
    PreparedKernel prep = find_benchmark(name)->prepare(gpu, BenchOptions{});
    const analysis::StaticRaceReport report = analysis::analyze(prep.program);

    trace::ReplayOptions opts;
    opts.hw = false;
    opts.sw_haccrg = true;
    opts.grace = true;
    opts.sw_is_safe = [&report](u32 pc) { return report.is_safe(pc); };
    const trace::ReplayResult replayed = trace::replay_trace(path, opts);
    ASSERT_TRUE(replayed.ok) << name << ": " << replayed.error;
    ASSERT_EQ(replayed.kernels.size(), 1u);

    EXPECT_EQ(replayed.kernels[0].sw_haccrg_races > 0, live_sw_races(name, false) > 0) << name;
    EXPECT_EQ(replayed.kernels[0].grace_races > 0, live_sw_races(name, true) > 0) << name;
    std::remove(path.c_str());
  }
}

TEST(TraceReplayGolden, CheckedInTraceStillReplaysToItsRaceSet) {
  const std::string golden = std::string(HACCRG_SOURCE_DIR) + "/tests/golden/trace_reduce.trc";
  const std::string expected_path =
      std::string(HACCRG_SOURCE_DIR) + "/tests/golden/trace_reduce_races.txt";
  const trace::ReplayResult replayed = trace::replay_trace(golden);
  ASSERT_TRUE(replayed.ok) << replayed.error
                           << " (regenerate with scripts/regen_golden_trace.sh)";
  std::vector<std::string> got;
  for (const trace::RaceKey& key : replayed.race_set()) got.push_back(trace::race_key_line(key));
  std::sort(got.begin(), got.end());

  std::ifstream in(expected_path);
  ASSERT_TRUE(in.good()) << expected_path;
  std::vector<std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    want.push_back(line);
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << "golden trace race set drifted; if the detector change is "
                          "intentional, run scripts/regen_golden_trace.sh";
}

}  // namespace
}  // namespace haccrg
