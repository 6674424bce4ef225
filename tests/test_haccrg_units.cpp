// Unit tests for the remaining core pieces: Bloom signatures, the race
// log, the per-SM ID registers, both RDUs, and the hardware cost model.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "haccrg/bloom.hpp"
#include "haccrg/global_rdu.hpp"
#include "haccrg/hardware_cost.hpp"
#include "haccrg/id_regs.hpp"
#include "haccrg/race.hpp"
#include "haccrg/shared_rdu.hpp"

namespace haccrg {
namespace {

using rd::BloomGeometry;
using rd::BloomSignature;

// --- Bloom signatures -----------------------------------------------------------

TEST(Bloom, GeometryValidity) {
  EXPECT_TRUE((BloomGeometry{16, 2}.valid()));
  EXPECT_TRUE((BloomGeometry{8, 2}.valid()));
  EXPECT_TRUE((BloomGeometry{32, 4}.valid()));
  EXPECT_FALSE((BloomGeometry{16, 3}.valid()));  // 16 % 3 != 0
  EXPECT_FALSE((BloomGeometry{0, 2}.valid()));
  EXPECT_FALSE((BloomGeometry{48, 2}.valid()));  // 24 bits/bin not pow2
}

TEST(Bloom, InsertSetsOneBitPerBin) {
  const BloomGeometry geom{16, 2};
  BloomSignature sig;
  sig.insert(0x1000, geom);
  EXPECT_EQ(std::popcount(sig.bits()), 2);
}

TEST(Bloom, SelfIntersectionNeverNull) {
  const BloomGeometry geom{16, 2};
  SplitMix64 rng(11);
  for (int i = 0; i < 500; ++i) {
    BloomSignature sig;
    sig.insert(static_cast<Addr>(rng.next()), geom);
    EXPECT_FALSE(BloomSignature::intersection_null(sig, sig, geom));
  }
}

TEST(Bloom, SupersetAlwaysIntersects) {
  // No false negatives for genuinely shared locks: if both signatures
  // contain lock L, the intersection is never null.
  const BloomGeometry geom{16, 2};
  SplitMix64 rng(12);
  for (int i = 0; i < 500; ++i) {
    const Addr shared_lock = static_cast<Addr>(rng.next());
    BloomSignature a, b;
    a.insert(shared_lock, geom);
    a.insert(static_cast<Addr>(rng.next()), geom);
    b.insert(shared_lock, geom);
    b.insert(static_cast<Addr>(rng.next()), geom);
    EXPECT_FALSE(BloomSignature::intersection_null(a, b, geom));
  }
}

TEST(Bloom, ClearEmpties) {
  const BloomGeometry geom{16, 2};
  BloomSignature sig;
  sig.insert(0x40, geom);
  EXPECT_FALSE(sig.empty());
  sig.clear();
  EXPECT_TRUE(sig.empty());
}

TEST(Bloom, AdjacentWordsAreDistinguished) {
  const BloomGeometry geom{16, 2};
  BloomSignature a, b;
  a.insert(0x1000, geom);
  b.insert(0x1004, geom);
  EXPECT_TRUE(BloomSignature::intersection_null(a, b, geom));
}

TEST(Bloom, MissRateMatchesDirectIndexTheory) {
  // With direct low-order-bit indexing, two uniform addresses collide
  // with probability 1/bits_per_bin (Section VI-A2's 25/12.5/6.25%).
  for (u32 bits : {8u, 16u, 32u}) {
    const BloomGeometry geom{bits, 2};
    SplitMix64 rng(bits);
    u32 missed = 0;
    const u32 trials = 200000;
    for (u32 i = 0; i < trials; ++i) {
      BloomSignature a, b;
      a.insert(static_cast<Addr>(rng.next()) << 2, geom);
      b.insert(static_cast<Addr>(rng.next()) << 2, geom);
      if (!BloomSignature::intersection_null(a, b, geom)) ++missed;
    }
    const f64 expect = 1.0 / geom.bits_per_bin();
    EXPECT_NEAR(static_cast<f64>(missed) / trials, expect, expect * 0.15) << bits;
  }
}

// --- Race log ------------------------------------------------------------------

rd::RaceRecord make_record(Addr granule, rd::RaceType type, u32 pc) {
  rd::RaceRecord r;
  r.type = type;
  r.mechanism = rd::RaceMechanism::kBarrier;
  r.space = rd::MemSpace::kGlobal;
  r.granule_addr = granule;
  r.pc = pc;
  return r;
}

TEST(RaceLog, DeduplicatesByLocationAndSite) {
  rd::RaceLog log;
  EXPECT_TRUE(log.record(make_record(0x40, rd::RaceType::kWaw, 7)));
  EXPECT_FALSE(log.record(make_record(0x40, rd::RaceType::kWaw, 7)));
  EXPECT_TRUE(log.record(make_record(0x44, rd::RaceType::kWaw, 7)));
  EXPECT_TRUE(log.record(make_record(0x40, rd::RaceType::kWar, 7)));
  EXPECT_TRUE(log.record(make_record(0x40, rd::RaceType::kWaw, 8)));
  EXPECT_EQ(log.unique(), 4u);
  EXPECT_EQ(log.total(), 5u);
}

TEST(RaceLog, CountsByDimension) {
  rd::RaceLog log;
  log.record(make_record(0x40, rd::RaceType::kWaw, 1));
  log.record(make_record(0x44, rd::RaceType::kWar, 2));
  log.record(make_record(0x48, rd::RaceType::kWar, 3));
  EXPECT_EQ(log.count(rd::RaceType::kWar), 2u);
  EXPECT_EQ(log.count(rd::RaceType::kWaw), 1u);
  EXPECT_EQ(log.count(rd::MemSpace::kGlobal), 3u);
  EXPECT_EQ(log.count(rd::MemSpace::kShared), 0u);
  EXPECT_EQ(log.count(rd::RaceMechanism::kBarrier), 3u);
}

TEST(RaceLog, RecordingCapBoundsMemory) {
  rd::RaceLog log(4);
  for (u32 i = 0; i < 100; ++i) log.record(make_record(i * 4, rd::RaceType::kWaw, 1));
  EXPECT_EQ(log.races().size(), 4u);
  EXPECT_EQ(log.total(), 100u);
}

TEST(RaceLog, DescribeIsHumanReadable) {
  rd::RaceRecord r = make_record(0x40, rd::RaceType::kRaw, 9);
  const std::string text = r.describe();
  EXPECT_NE(text.find("RAW"), std::string::npos);
  EXPECT_NE(text.find("0x40"), std::string::npos);
}

// --- ID registers -----------------------------------------------------------------

TEST(IdRegs, SyncIdBumpsOnlyAfterGlobalAccess) {
  rd::SmIdRegisters ids(8, 32, 1024);
  const u8 start = ids.sync_id(0);
  ids.on_barrier(0);  // no global access since launch
  EXPECT_EQ(ids.sync_id(0), start);
  ids.note_global_access(0);
  ids.on_barrier(0);
  EXPECT_EQ(ids.sync_id(0), static_cast<u8>(start + 1));
  ids.on_barrier(0);  // flag was consumed
  EXPECT_EQ(ids.sync_id(0), static_cast<u8>(start + 1));
}

TEST(IdRegs, BlockLaunchStartsFreshEpoch) {
  rd::SmIdRegisters ids(8, 32, 1024);
  const u8 before = ids.sync_id(3);
  ids.on_block_launch(3);
  EXPECT_NE(ids.sync_id(3), before);
}

TEST(IdRegs, FenceIdsArePerWarp) {
  rd::SmIdRegisters ids(8, 32, 1024);
  ids.on_fence(2);
  ids.on_fence(2);
  ids.on_fence(5);
  EXPECT_EQ(ids.fence_id(2), 2);
  EXPECT_EQ(ids.fence_id(5), 1);
  EXPECT_EQ(ids.fence_id(0), 0);
}

TEST(IdRegs, AtomicIdNestingClearsAtOutermostRelease) {
  rd::SmIdRegisters ids(8, 32, 1024);
  const BloomGeometry geom{16, 2};
  ids.on_lock_acquired(7, 0x100, geom);
  ids.on_lock_acquired(7, 0x200, geom);
  EXPECT_TRUE(ids.in_cs(7));
  EXPECT_FALSE(ids.sig(7).empty());
  ids.on_lock_releasing(7);
  EXPECT_TRUE(ids.in_cs(7));       // still nested
  EXPECT_FALSE(ids.sig(7).empty());  // cleared only at depth 0
  ids.on_lock_releasing(7);
  EXPECT_FALSE(ids.in_cs(7));
  EXPECT_TRUE(ids.sig(7).empty());
}

TEST(IdRegs, ThreadResetClearsLockState) {
  rd::SmIdRegisters ids(8, 32, 1024);
  const BloomGeometry geom{16, 2};
  ids.on_lock_acquired(9, 0x100, geom);
  ids.reset_thread(9);
  EXPECT_FALSE(ids.in_cs(9));
  EXPECT_TRUE(ids.sig(9).empty());
}

// --- Shared RDU -----------------------------------------------------------------

rd::DetectPolicy default_policy() {
  rd::DetectPolicy p;
  p.warp_size = 32;
  p.bloom = {16, 2};
  return p;
}

rd::HaccrgConfig shared_config(u32 gran) {
  rd::HaccrgConfig c;
  c.enable_shared = true;
  c.shared_granularity = gran;
  return c;
}

rd::AccessInfo lane(u16 slot, Addr addr, bool write) {
  rd::AccessInfo a;
  a.thread_slot = slot;
  a.warp_in_sm = slot / 32;
  a.addr = addr;
  a.size = 4;
  a.is_write = write;
  return a;
}

TEST(SharedRdu, DetectsCrossWarpConflictAndLogs) {
  rd::RaceLog log;
  rd::SharedRdu rdu(0, 16 * 1024, shared_config(4), default_policy(), log);
  rdu.check(lane(0, 0x100, true));
  rdu.check(lane(40, 0x100, false));
  EXPECT_EQ(log.total(), 1u);
  EXPECT_EQ(rdu.races_found(), 1u);
}

TEST(SharedRdu, GranularityAliasing) {
  rd::RaceLog log;
  rd::SharedRdu rdu(0, 16 * 1024, shared_config(16), default_policy(), log);
  rdu.check(lane(0, 0x100, true));
  rdu.check(lane(40, 0x10c, true));  // different word, same 16B granule
  EXPECT_EQ(log.total(), 1u);
}

TEST(SharedRdu, ResetRegionCostScalesWithEntries) {
  // 4 KB region at 16 B granularity = 256 entries over 16 banks.
  EXPECT_EQ(rd::SharedRdu::reset_cycles(0, 4096, 16, 16), 16u);
  EXPECT_EQ(rd::SharedRdu::reset_cycles(0, 0, 16, 16), 0u);
}

TEST(SharedRdu, ResetClearsOnlyTheRegion) {
  rd::RaceLog log;
  rd::SharedRdu rdu(0, 16 * 1024, shared_config(4), default_policy(), log);
  rdu.check(lane(0, 0x100, true));   // region A
  rdu.check(lane(0, 0x2000, true));  // region B
  rdu.reset_region(0, 0x1000);       // clears A only
  EXPECT_TRUE(rdu.entry_at(0x100).m && rdu.entry_at(0x100).s);   // initial again
  EXPECT_TRUE(rdu.entry_at(0x2000).m && !rdu.entry_at(0x2000).s);  // still owned
}

TEST(SharedRdu, ShadowLineMapping) {
  // Granule i has a 2-byte sw entry; a 128 B line holds 64 entries, i.e.
  // covers 1 KB of scratchpad at 16 B granularity.
  auto lines = rd::SharedRdu::shadow_lines({0u, 512u, 1024u, 2048u}, 16, 128);
  EXPECT_EQ(lines.size(), 3u);  // 0 and 512 share line 0; 1024 -> 1; 2048 -> 2
}

// --- Global RDU -----------------------------------------------------------------

TEST(GlobalRdu, ShadowSizingAndAddressing) {
  EXPECT_EQ(rd::GlobalRdu::shadow_bytes_for(4096, 4), 8192u);
  EXPECT_EQ(rd::GlobalRdu::shadow_bytes_for(4096, 16), 2048u);
  EXPECT_EQ(rd::GlobalRdu::shadow_bytes_for(1, 4), 8u);

  mem::DeviceMemory memory(64 * 1024);
  rd::RaceLog log;
  rd::HaccrgConfig cfg;
  cfg.enable_global = true;
  rd::GlobalRdu rdu(memory, cfg, default_policy(), log, [](u32, u32) -> u8 { return 0; });
  rdu.init_shadow(32 * 1024, 4096);
  std::vector<Addr> lines;
  rd::AccessInfo a = lane(0, 0x100, true);
  rdu.check(a, lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 32 * 1024 + (0x100 / 4) * 8);
  EXPECT_TRUE(rdu.entry_at(0x100).m);
}

TEST(GlobalRdu, OutOfHeapAccessesIgnored) {
  mem::DeviceMemory memory(64 * 1024);
  rd::RaceLog log;
  rd::HaccrgConfig cfg;
  cfg.enable_global = true;
  rd::GlobalRdu rdu(memory, cfg, default_policy(), log, [](u32, u32) -> u8 { return 0; });
  rdu.init_shadow(32 * 1024, 4096);
  std::vector<Addr> lines;
  rdu.check(lane(0, 8192, true), lines);  // beyond the tracked heap
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(rdu.checks(), 0u);
}

TEST(GlobalRdu, StaleL1QualificationUsesFillTime) {
  mem::DeviceMemory memory(64 * 1024);
  rd::RaceLog log;
  rd::HaccrgConfig cfg;
  cfg.enable_global = true;
  rd::GlobalRdu rdu(memory, cfg, default_policy(), log, [](u32, u32) -> u8 { return 5; });
  rdu.init_shadow(32 * 1024, 4096);
  std::vector<Addr> lines;

  // Writer on SM 0 at cycle 100 (its warp has fenced since: stored 0 vs
  // current 5 -> the fence gate alone would call the read safe).
  rd::AccessInfo w = lane(0, 0x100, true);
  w.sm_id = 0;
  w.cycle = 100;
  w.fence_id = 0;
  rdu.check(w, lines);

  // Reader on SM 1 whose L1 line was filled BEFORE the write: stale.
  rd::AccessInfo r1 = lane(0, 0x100, false);
  r1.sm_id = 1;
  r1.l1_hit = true;
  r1.l1_fill_cycle = 50;
  r1.cycle = 200;
  rdu.check(r1, lines);
  EXPECT_EQ(log.count(rd::RaceMechanism::kL1Stale), 1u);

  // Fresh shadow + a reader whose line was filled AFTER the write: safe.
  rdu.init_shadow(32 * 1024, 4096);
  log.clear();
  rdu.check(w, lines);
  rd::AccessInfo r2 = r1;
  r2.l1_fill_cycle = 150;
  rdu.check(r2, lines);
  EXPECT_EQ(log.count(rd::RaceMechanism::kL1Stale), 0u);
}

// --- Hardware cost model ------------------------------------------------------------

TEST(HardwareCost, MatchesPaperReferencePoints) {
  arch::GpuConfig gpu;
  rd::HaccrgConfig det;
  det.shared_granularity = 16;
  det.global_granularity = 4;
  det.bloom_bits = 16;
  const rd::HardwareCost cost = rd::compute_hardware_cost(gpu, det);
  EXPECT_EQ(cost.shared_comparators_per_sm, 8u);        // paper: 8 x 12-bit
  EXPECT_EQ(cost.shared_comparator_bits, 12u);
  EXPECT_EQ(cost.global_comparators_per_slice, 32u);    // paper: 32 x 28-bit
  EXPECT_EQ(cost.global_comparator_bits, 28u);
  EXPECT_EQ(cost.global_id_comparators_per_slice, 16u); // paper: 16 x 24-bit
  EXPECT_EQ(cost.global_id_comparator_bits, 24u);
}

TEST(HardwareCost, SharedStorageScalesWithScratchpad) {
  arch::GpuConfig gpu;
  rd::HaccrgConfig det;
  det.shared_granularity = 16;
  gpu.shared_mem_per_sm = 48 * 1024;  // a Fermi SM
  const rd::HardwareCost cost = rd::compute_hardware_cost(gpu, det);
  EXPECT_EQ(cost.shared_shadow_bytes_per_sm, 4608u);  // the paper's 4.5 KB
}

}  // namespace
}  // namespace haccrg
