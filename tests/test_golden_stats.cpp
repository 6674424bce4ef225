// Golden-stats snapshots: REDUCE and PSUM runs under the combined
// detection config, plus three detector-fault campaigns, are compared
// byte-for-byte against checked-in expected files. Any change to timing, detection, or counter plumbing
// that moves a number shows up as a readable diff of named counters
// instead of a silent drift. The parallel engine's determinism guarantee
// is what makes a byte-exact snapshot viable at all — the files are
// valid for every HACCRG_THREADS setting.
//
// To update after an intentional behavior change:
//   scripts/regen_golden_stats.sh    (then review the diff and commit)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/fault.hpp"
#include "kernels/common.hpp"
#include "sim/gpu.hpp"
#include "trace/replay.hpp"

namespace haccrg {
namespace {

using kernels::BenchOptions;
using kernels::PreparedKernel;
using kernels::find_benchmark;

// The snapshot config is pinned explicitly (not shared with other tests)
// so unrelated test-config edits cannot invalidate the golden files.
arch::GpuConfig golden_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

rd::HaccrgConfig golden_detection() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 16;
  cfg.global_granularity = 4;
  return cfg;
}

std::string golden_path(const std::string& name) {
  return std::string(HACCRG_SOURCE_DIR) + "/tests/golden/" + name + ".txt";
}

std::string snapshot(const std::string& name, const fault::FaultPlan& faults = {}) {
  sim::SimConfig sim;
  sim.faults = faults;
  sim::Gpu gpu(golden_gpu(), golden_detection(), sim);
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, BenchOptions{});
  sim::SimResult r = gpu.launch(prep.launch());
  EXPECT_TRUE(r.completed) << r.error;
  std::string out;
  out += "benchmark " + name + "\n";
  out += "cycles " + std::to_string(r.cycles) + "\n";
  out += "races.total " + std::to_string(r.races.total()) + "\n";
  out += "races.unique " + std::to_string(r.races.unique()) + "\n";
  out += r.stats.serialize();
  // A fault campaign also pins which races survived the corruption.
  if (faults.any())
    for (const std::string& line : trace::race_set_lines(r.races)) out += "race " + line + "\n";
  return out;
}

void check_against_golden(const std::string& name, const std::string& file,
                          const fault::FaultPlan& faults = {}) {
  const std::string actual = snapshot(name, faults);
  const std::string path = golden_path(file);

  if (std::getenv("HACCRG_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run scripts/regen_golden_stats.sh";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << name << " stats drifted from the checked-in snapshot. If the change is intentional, "
      << "regenerate with scripts/regen_golden_stats.sh and commit the diff.";
}

TEST(GoldenStats, Reduce) { check_against_golden("REDUCE", "REDUCE"); }
TEST(GoldenStats, Psum) { check_against_golden("PSUM", "PSUM"); }

// Detector-state fault campaigns. A dropped race register only matters
// in the order it meets the ID updates around it: at 100% every issued
// instruction drops one, so a fence commit and the same SM-cycle's drop
// of that warp's fence ID meet in both of these runs.
fault::FaultPlan racereg_drop_plan(u64 seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.set_rate(fault::FaultSite::kRaceRegDrop, 1'000'000);
  return plan;
}

TEST(GoldenStats, HashRaceRegDrop) {
  check_against_golden("HASH", "HASH_racereg_drop_seed2", racereg_drop_plan(2));
}

TEST(GoldenStats, PsumRaceRegDrop) {
  check_against_golden("PSUM", "PSUM_racereg_drop_seed7", racereg_drop_plan(7));
}

// Every detector-state site at once (the plan of
// Degradation.DetectorFaultsAreCountedNeverSilent).
TEST(GoldenStats, HistDetectorFaults) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.set_rate(fault::FaultSite::kSharedShadowFlip, 50'000);
  plan.set_rate(fault::FaultSite::kGlobalShadowFlip, 50'000);
  plan.set_rate(fault::FaultSite::kBloomFlip, 20'000);
  plan.set_rate(fault::FaultSite::kRaceRegDrop, 20'000);
  plan.set_rate(fault::FaultSite::kDramShadowFlip, 50'000);
  check_against_golden("HIST", "HIST_detector_faults_seed7", plan);
}

// The snapshot must be identical when produced by the parallel engine.
TEST(GoldenStats, SnapshotIsThreadCountInvariant) {
  sim::SimConfig sim;
  sim.num_threads = 4;
  sim::Gpu gpu(golden_gpu(), golden_detection(), sim);
  PreparedKernel prep = find_benchmark("REDUCE")->prepare(gpu, BenchOptions{});
  sim::SimResult r = gpu.launch(prep.launch());
  ASSERT_TRUE(r.completed) << r.error;
  std::string parallel;
  parallel += "benchmark REDUCE\n";
  parallel += "cycles " + std::to_string(r.cycles) + "\n";
  parallel += "races.total " + std::to_string(r.races.total()) + "\n";
  parallel += "races.unique " + std::to_string(r.races.unique()) + "\n";
  parallel += r.stats.serialize();
  EXPECT_EQ(snapshot("REDUCE"), parallel);
}

}  // namespace
}  // namespace haccrg
