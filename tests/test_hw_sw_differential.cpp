// Differential checks between the two HAccRG implementations and their
// static-filter variants:
//
//  1. Hardware HAccRG with the static RDU filter on vs off must report
//     the identical racy (space, granule) location set — the filter only
//     removes checks the analysis proved cannot race.
//  2. The software HAccRG (instrumented kernel) with static pruning on
//     vs off must agree on its race counter.
//  3. Hardware vs software verdicts agree on the kernels whose sharing
//     the software scheme models faithfully, and the divergence on the
//     rest is pinned: the sw scheme tags shadow words per *thread*, so
//     warp-synchronized sharing (HIST/REDUCE/PSUM/HASH) is flagged as
//     racy even though the hardware RDUs correctly dismiss it. That
//     over-reporting is exactly the motivation the paper gives for
//     hardware support, so we assert it rather than hide it.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "analysis/static_race.hpp"
#include "kernels/common.hpp"
#include "swrace/sw_haccrg.hpp"

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
  std::set<rd::RaceLocation> locations;
  std::set<u32> race_pcs;
  u64 unique_races = 0;
  u64 filtered_checks = 0;
};

HwRun run_hw(const std::string& name, bool static_filter) {
  sim::Gpu gpu(test_gpu(), detection_word(static_filter));
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, BenchOptions{});
  if (static_filter) {
    // options_for + launch geometry: the filtered leg runs the full
    // loop-aware analysis and passes the launch-time compatibility check.
    const analysis::AnalyzeOptions aopts =
        analysis::options_for(detection_word(true), prep.block_dim, prep.grid_dim);
    prep.static_report =
        std::make_shared<analysis::StaticRaceReport>(analysis::analyze(prep.program, aopts));
  }
  sim::SimResult r = gpu.launch(prep.launch());

  HwRun run;
  run.completed = r.completed;
  run.unique_races = r.races.unique();
  run.filtered_checks = r.stats.get("rd.static_filtered");
  run.locations = rd::race_locations(r.races);
  for (const rd::RaceRecord& race : r.races.races()) run.race_pcs.insert(race.pc);
  return run;
}

u64 run_sw(const std::string& name, bool static_prune) {
  sim::Gpu gpu(test_gpu(), rd::HaccrgConfig{});
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, BenchOptions{});
  swrace::InstrumentOptions opts;
  opts.static_prune = static_prune;
  swrace::attach_sw_haccrg(gpu, prep, opts);
  sim::SimResult r = gpu.launch(prep.launch());
  EXPECT_TRUE(r.completed) << name << ": " << r.error;
  return swrace::sw_haccrg_race_count(gpu, prep);
}

class HwSwDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(HwSwDifferential, StaticFilterPreservesHwLocations) {
  const std::string name = GetParam();
  const HwRun unfiltered = run_hw(name, false);
  const HwRun filtered = run_hw(name, true);
  ASSERT_TRUE(unfiltered.completed);
  ASSERT_TRUE(filtered.completed);
  EXPECT_EQ(unfiltered.locations, filtered.locations)
      << name << ": the static filter changed which locations are reported racy";
  EXPECT_EQ(unfiltered.unique_races, filtered.unique_races) << name;
  EXPECT_EQ(unfiltered.filtered_checks, 0u) << name << ": filter fired while disabled";
}

TEST_P(HwSwDifferential, StaticSafePcsNeverInHwRaceSet) {
  // The static verifier's core claim, checked against the hardware
  // implementation directly: a kProvablySafe pc never triggers a race.
  const std::string name = GetParam();
  sim::Gpu gpu(test_gpu(), rd::HaccrgConfig{});
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, BenchOptions{});
  const analysis::AnalyzeOptions aopts =
      analysis::options_for(detection_word(false), prep.block_dim, prep.grid_dim);
  const analysis::StaticRaceReport report = analysis::analyze(prep.program, aopts);
  const HwRun hw = run_hw(name, false);
  ASSERT_TRUE(hw.completed);
  for (u32 pc : hw.race_pcs) {
    EXPECT_FALSE(report.is_safe(pc))
        << name << ": pc " << pc << " raced in hardware but was classified provably safe";
  }
}

TEST_P(HwSwDifferential, StaticPrunePreservesSwVerdict) {
  const std::string name = GetParam();
  const u64 unpruned = run_sw(name, false);
  const u64 pruned = run_sw(name, true);
  EXPECT_EQ(unpruned > 0, pruned > 0)
      << name << ": static pruning flipped the software race verdict ("
      << unpruned << " vs " << pruned << ")";
}

INSTANTIATE_TEST_SUITE_P(AllKernels, HwSwDifferential,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE",
                                           "PSUM", "OFFT", "KMEANS", "HASH"));

// Kernels whose sharing patterns the per-thread software tags model
// faithfully: the boolean race verdict must match the hardware's.
class HwSwVerdictAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(HwSwVerdictAgreement, SameVerdict) {
  const std::string name = GetParam();
  const HwRun hw = run_hw(name, false);
  ASSERT_TRUE(hw.completed);
  const u64 sw = run_sw(name, true);
  EXPECT_EQ(hw.unique_races > 0, sw > 0)
      << name << ": hw found " << hw.unique_races << " unique races, sw found " << sw;
}

INSTANTIATE_TEST_SUITE_P(FaithfulKernels, HwSwVerdictAgreement,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "SORTNW", "OFFT", "KMEANS"));

// Kernels built around warp-synchronized sharing: the software scheme's
// per-thread word tags flag sibling lanes of the same warp, which the
// hardware RDUs (correctly) never report. Pinning the divergence keeps
// it a documented property instead of a silent surprise.
class KnownSwOverReporting : public ::testing::TestWithParam<const char*> {};

TEST_P(KnownSwOverReporting, SwFlagsWhatHwDismisses) {
  const std::string name = GetParam();
  const HwRun hw = run_hw(name, false);
  ASSERT_TRUE(hw.completed);
  EXPECT_EQ(hw.unique_races, 0u) << name << ": hardware now reports races here — if that is an "
                                 << "intentional detection change, move this kernel to the "
                                 << "agreement suite";
  EXPECT_GT(run_sw(name, true), 0u)
      << name << ": sw scheme no longer over-reports — move this kernel to the agreement suite";
}

INSTANTIATE_TEST_SUITE_P(WarpSynchronizedKernels, KnownSwOverReporting,
                         ::testing::Values("HIST", "REDUCE", "PSUM", "HASH"));

// The three benchmarks with documented real multi-block races must be
// flagged by BOTH implementations — agreement on the positive side.
class RealRaceAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(RealRaceAgreement, BothDetect) {
  const std::string name = GetParam();
  const HwRun hw = run_hw(name, false);
  ASSERT_TRUE(hw.completed);
  EXPECT_GT(hw.unique_races, 0u) << name;
  EXPECT_GT(run_sw(name, true), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(DocumentedRaces, RealRaceAgreement,
                         ::testing::Values("SCAN", "KMEANS", "OFFT"));

}  // namespace
}  // namespace haccrg
