// The ten CUDA benchmarks: functional correctness (host reference
// verification) and the paper's Section VI-A effectiveness findings —
// races in SCAN/KMEANS (multi-block bugs) and OFFT (address bug), no
// global-memory races elsewhere, and silence in single-block mode.
#include <gtest/gtest.h>

#include "kernels/common.hpp"

namespace haccrg {
namespace {

using kernels::BenchOptions;
using kernels::PreparedKernel;
using kernels::all_benchmarks;
using kernels::find_benchmark;

arch::GpuConfig test_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 16 * 1024 * 1024;
  return cfg;
}

rd::HaccrgConfig word_detection() {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.enable_global = true;
  det.shared_granularity = 4;
  det.global_granularity = 4;
  return det;
}

class BenchmarkCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkCorrectness, ProducesReferenceOutput) {
  const auto* info = find_benchmark(GetParam());
  ASSERT_NE(info, nullptr);
  sim::Gpu gpu(test_gpu(), rd::HaccrgConfig{});
  PreparedKernel prep = info->prepare(gpu, BenchOptions{});
  sim::SimResult result = gpu.launch(prep.launch());
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_TRUE(prep.verify != nullptr);
  std::string msg;
  EXPECT_TRUE(prep.verify(gpu.memory(), &msg)) << msg;
  EXPECT_GT(result.warp_instructions, 0u);
}

TEST_P(BenchmarkCorrectness, CorrectUnderFullDetection) {
  // Detection must never change architectural results.
  const auto* info = find_benchmark(GetParam());
  ASSERT_NE(info, nullptr);
  sim::Gpu gpu(test_gpu(), word_detection());
  PreparedKernel prep = info->prepare(gpu, BenchOptions{});
  sim::SimResult result = gpu.launch(prep.launch());
  ASSERT_TRUE(result.completed) << result.error;
  std::string msg;
  EXPECT_TRUE(prep.verify(gpu.memory(), &msg)) << msg;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkCorrectness,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE",
                                           "PSUM", "OFFT", "KMEANS", "HASH"));

struct RaceExpectation {
  std::string name;
  bool expect_global_race;
};

// Without this, gtest prints the struct's raw bytes, which include the heap
// pointer of `name`, and the ctest names discovered from that output change
// with every run.
void PrintTo(const RaceExpectation& expect, std::ostream* os) {
  *os << expect.name << (expect.expect_global_race ? " (racy)" : " (race-free)");
}

class BenchmarkRaces : public ::testing::TestWithParam<RaceExpectation> {};

TEST_P(BenchmarkRaces, GlobalRacesMatchPaper) {
  const auto& expect = GetParam();
  const auto* info = find_benchmark(expect.name);
  ASSERT_NE(info, nullptr);
  sim::Gpu gpu(test_gpu(), word_detection());
  PreparedKernel prep = info->prepare(gpu, BenchOptions{});
  sim::SimResult result = gpu.launch(prep.launch());
  ASSERT_TRUE(result.completed) << result.error;
  const u64 global_races = result.races.count(rd::MemSpace::kGlobal);
  if (expect.expect_global_race) {
    EXPECT_GT(global_races, 0u) << expect.name;
  } else {
    EXPECT_EQ(global_races, 0u) << expect.name << ": " << result.races.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, BenchmarkRaces,
    ::testing::Values(RaceExpectation{"MCARLO", false}, RaceExpectation{"SCAN", true},
                      RaceExpectation{"FWALSH", false}, RaceExpectation{"HIST", false},
                      RaceExpectation{"SORTNW", false}, RaceExpectation{"REDUCE", false},
                      RaceExpectation{"PSUM", false}, RaceExpectation{"OFFT", true},
                      RaceExpectation{"KMEANS", true}, RaceExpectation{"HASH", false}),
    [](const ::testing::TestParamInfo<RaceExpectation>& info) { return info.param.name; });

TEST(BenchmarkRacesSingleBlock, ScanIsCleanWithOneBlock) {
  const auto* info = find_benchmark("SCAN");
  sim::Gpu gpu(test_gpu(), word_detection());
  BenchOptions opts;
  opts.single_block = true;
  PreparedKernel prep = info->prepare(gpu, opts);
  sim::SimResult result = gpu.launch(prep.launch());
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.races.count(rd::MemSpace::kGlobal), 0u) << result.races.summary();
}

TEST(BenchmarkRacesSingleBlock, KmeansIsCleanWithOneBlock) {
  const auto* info = find_benchmark("KMEANS");
  sim::Gpu gpu(test_gpu(), word_detection());
  BenchOptions opts;
  opts.single_block = true;
  PreparedKernel prep = info->prepare(gpu, opts);
  sim::SimResult result = gpu.launch(prep.launch());
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.races.count(rd::MemSpace::kGlobal), 0u) << result.races.summary();
}

TEST(BenchmarkMeta, RegistryIsComplete) {
  EXPECT_EQ(all_benchmarks().size(), 10u);
  u32 barriers = 0, cross = 0, fences = 0, critical = 0;
  for (const auto& info : all_benchmarks()) {
    barriers += info.sites.barriers;
    cross += info.sites.cross_block;
    fences += info.sites.fences;
    critical += info.sites.critical;
  }
  // The paper's 41 injected races: 23 + 13 + 3 + 2.
  EXPECT_EQ(barriers, 23u);
  EXPECT_EQ(cross, 13u);
  EXPECT_EQ(fences, 3u);
  EXPECT_EQ(critical, 2u);
}

}  // namespace
}  // namespace haccrg
