// Sharded-replay determinism: address-sharded parallel replay must
// produce byte-identical race reports to serial replay for any worker
// count. This is the serving subsystem's core correctness claim (see
// DESIGN.md "Serving architecture"): each granule has exactly one owner
// shard, the owner executes exactly the serial per-granule check
// sequence, and replay_sharded merges the disjoint per-shard sets in
// shard order. Covered here over every registry kernel and the full
// 41-case injection campaign, for worker counts {1, 2, 8}, plus the
// replay-arena clear-don't-free path (reused contexts must not leak
// state between kernels or jobs).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "kernels/common.hpp"
#include "kernels/injection.hpp"
#include "sim/gpu.hpp"
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

/// Record `name` under `opts` and decode the whole trace.
void record_decoded(const std::string& name, const BenchOptions& opts, const std::string& tag,
                    trace::DecodedTrace& out) {
  const std::string path = testing_util::temp_path("test_shard_" + tag + ".trc");
  {
    sim::SimConfig sim_cfg;
    sim_cfg.trace_path = path;
    sim::Gpu gpu(test_gpu(), detection_combined(), sim_cfg);
    gpu.set_trace_label(name);
    PreparedKernel prep = find_benchmark(name)->prepare(gpu, opts);
    const sim::SimResult live = gpu.launch(prep.launch());
    ASSERT_TRUE(live.completed) << tag << ": " << live.error;
  }
  trace::TraceReader reader(path);
  const Status decode = trace::decode_trace(reader, out);
  std::remove(path.c_str());
  ASSERT_TRUE(decode.ok()) << tag << ": " << decode.message();
}

/// The byte-level report: every race identity line, in canonical order,
/// plus the check counters the serving report also carries.
std::vector<std::string> report_lines(const trace::ReplayResult& result) {
  std::vector<std::string> lines;
  for (const trace::RaceKey& key : result.race_set()) lines.push_back(trace::race_key_line(key));
  for (const trace::KernelReplay& k : result.kernels) {
    lines.push_back("kernel " + k.label + " unique=" + std::to_string(k.races.unique()) +
                    " shared_checks=" + std::to_string(k.shared_checks) +
                    " global_checks=" + std::to_string(k.global_checks));
  }
  return lines;
}

void expect_sharded_identical(const trace::DecodedTrace& decoded, const std::string& tag,
                              trace::ReplayArena* arena = nullptr) {
  trace::ReplayOptions opts;
  opts.arena = arena;
  const trace::ReplayResult serial = trace::replay_sharded(decoded, 1, opts);
  ASSERT_TRUE(serial.ok) << tag << ": " << serial.error;
  const std::vector<std::string> want = report_lines(serial);
  for (u32 workers : {2u, 8u}) {
    const trace::ReplayResult sharded = trace::replay_sharded(decoded, workers, opts);
    ASSERT_TRUE(sharded.ok) << tag << " w=" << workers << ": " << sharded.error;
    EXPECT_EQ(report_lines(sharded), want)
        << tag << ": sharded replay with " << workers << " workers diverged from serial";
  }
}

class ShardedReplayAllKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedReplayAllKernels, ByteIdenticalToSerial) {
  trace::DecodedTrace decoded;
  record_decoded(GetParam(), BenchOptions{}, GetParam(), decoded);
  if (::testing::Test::HasFatalFailure()) return;
  expect_sharded_identical(decoded, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Registry, ShardedReplayAllKernels,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE",
                                           "PSUM", "OFFT", "KMEANS", "HASH"));

TEST(ShardedReplayInjection, FullCampaignByteIdentical) {
  const auto cases = kernels::all_injection_cases();
  ASSERT_EQ(cases.size(), 41u);
  for (size_t i = 0; i < cases.size(); ++i) {
    BenchOptions opts;
    opts.injection = cases[i].injection;
    trace::DecodedTrace decoded;
    record_decoded(cases[i].benchmark, opts, "inj" + std::to_string(i), decoded);
    if (::testing::Test::HasFatalFailure()) return;
    expect_sharded_identical(decoded, cases[i].label());
    if (::testing::Test::HasFailure()) return;  // one diagnosis is enough
  }
}

TEST(ShardedReplayArena, ReusedContextsMatchFreshOnes) {
  trace::DecodedTrace reduce;
  trace::DecodedTrace hist;
  record_decoded("REDUCE", BenchOptions{}, "arena_reduce", reduce);
  record_decoded("HIST", BenchOptions{}, "arena_hist", hist);
  if (::testing::Test::HasFatalFailure()) return;

  trace::ReplayArena arena;
  // Interleave two different kernels through the same arena, repeatedly:
  // a clear-don't-free bug (leaked shadow state, stale ID registers)
  // shows up as a report diff against the arena-less baseline.
  for (int round = 0; round < 3; ++round) {
    expect_sharded_identical(reduce, "arena REDUCE round " + std::to_string(round), &arena);
    expect_sharded_identical(hist, "arena HIST round " + std::to_string(round), &arena);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(arena.reuses(), 0u) << "arena never reused a context — reset_for always refused?";
  EXPECT_GT(arena.builds(), 0u);
}

}  // namespace
}  // namespace haccrg
