// Unit tests for the memory subsystem: device memory + allocator, the
// set-associative cache, the coalescer, banked shared memory, the DRAM
// channel, the interconnect pipes, and the memory partition.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <string>

#include "arch/config.hpp"
#include "kernels/common.hpp"
#include "mem/cache.hpp"
#include "mem/coalescer.hpp"
#include "mem/device_memory.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/partition.hpp"
#include "mem/shared_memory.hpp"
#include "sim/gpu.hpp"

namespace haccrg {
namespace {

using namespace mem;

// --- DeviceMemory / allocator ------------------------------------------------

TEST(DeviceMemory, ReadWriteRoundTrip) {
  DeviceMemory memory(4096);
  memory.write_u32(0, 0xdeadbeef);
  EXPECT_EQ(memory.read_u32(0), 0xdeadbeefu);
  memory.write_u8(100, 0x7f);
  EXPECT_EQ(memory.read_u8(100), 0x7f);
  memory.write_u64(200, 0x0123456789abcdefULL);
  EXPECT_EQ(memory.read_u64(200), 0x0123456789abcdefULL);
  memory.write_f32(300, 2.5f);
  EXPECT_EQ(memory.read_f32(300), 2.5f);
}

TEST(DeviceMemory, UnalignedWordAccessSnapsDown) {
  DeviceMemory memory(64);
  memory.write_u32(4, 0x11223344);
  EXPECT_EQ(memory.read_u32(6), 0x11223344u);  // same word
}

TEST(DeviceMemory, FillAndCopy) {
  DeviceMemory memory(256);
  memory.fill(0, 256, 0xab);
  EXPECT_EQ(memory.read_u8(255), 0xab);
  u32 host[4] = {1, 2, 3, 4};
  memory.copy_in(16, host, sizeof(host));
  u32 back[4] = {};
  memory.copy_out(back, 16, sizeof(back));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], host[i]);
}

TEST(DeviceMemory, LargeMemoryStartsZeroAndRoundTripsAtTheTop) {
  constexpr u32 kBytes = 64u * 1024 * 1024;
  DeviceMemory memory(kBytes);
  ASSERT_EQ(memory.size(), kBytes);
  EXPECT_EQ(memory.read_u8(0), 0);
  EXPECT_EQ(memory.read_u8(kBytes - 1), 0);
  const Addr top = kBytes - 8;
  memory.fill(top, 8, 0x5a);
  EXPECT_EQ(memory.read_u64(top), 0x5a5a5a5a5a5a5a5aULL);
  const u64 host = 0x0123456789abcdefULL;
  memory.copy_in(top, &host, sizeof(host));
  u64 back = 0;
  memory.copy_out(&back, top, sizeof(back));
  EXPECT_EQ(back, host);
  memory.write_u64(top, 0xfedcba9876543210ULL);
  EXPECT_EQ(memory.read_u64(top), 0xfedcba9876543210ULL);
}

TEST(DeviceMemory, NewMemoryReadsZeroWhereAFreedOneWasWritten) {
  constexpr u32 kBytes = 64u * 1024 * 1024;
  const Addr offsets[] = {0, kBytes / 2, kBytes - 8};
  {
    DeviceMemory used(kBytes);
    for (Addr a : offsets) used.write_u64(a, ~u64{0});
  }
  DeviceMemory fresh(kBytes);
  for (Addr a : offsets) EXPECT_EQ(fresh.read_u64(a), 0u) << "offset " << a;
}

TEST(DeviceMemory, ZeroBytesIsEmpty) {
  // No mapping: mmap rejects a zero length, which would abort here.
  DeviceMemory memory(0);
  EXPECT_EQ(memory.size(), 0u);
}

// Peak resident set size of this process in KiB (Linux's ru_maxrss unit).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(DeviceMemory, GpuFootprintIsThePagesAKernelTouches) {
  // A 512 MiB device costs only what one small kernel touches: its heap,
  // the global shadow and the software shared shadow. Zero-filling the
  // whole device up front would raise the peak by all 512 MiB.
  const long before_kib = peak_rss_kib();
  {
    arch::GpuConfig cfg;
    cfg.device_mem_bytes = 512u * 1024 * 1024;
    rd::HaccrgConfig detection;
    detection.enable_shared = true;
    detection.enable_global = true;
    sim::Gpu gpu(cfg, detection);
    const kernels::PreparedKernel prep =
        kernels::find_benchmark("REDUCE")->prepare(gpu, kernels::BenchOptions{});
    const sim::SimResult result = gpu.launch(prep.launch());
    ASSERT_TRUE(result.completed) << result.error;
    std::string msg;
    EXPECT_TRUE(prep.verify(gpu.memory(), &msg)) << msg;
  }
  EXPECT_LT(peak_rss_kib() - before_kib, 64L * 1024);
}

TEST(Allocator, AlignsTo256AndTracksNames) {
  DeviceMemory memory(64 * 1024);
  DeviceAllocator alloc(memory);
  const Addr a = alloc.alloc(100, "a");
  const Addr b = alloc.alloc(8, "b");
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(alloc.allocations().size(), 2u);
  EXPECT_EQ(alloc.allocations()[0].name, "a");
  EXPECT_EQ(alloc.heap_top(), b + 8);
  alloc.reset();
  EXPECT_EQ(alloc.heap_top(), 0u);
}

// --- Cache ----------------------------------------------------------------------

TEST(Cache, HitAfterFill) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  EXPECT_FALSE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(32, false).hit);  // same line
  EXPECT_FALSE(cache.access(64, false).hit);
}

TEST(Cache, LruEvictsOldest) {
  // 1024 B, 2-way, 64 B lines -> 8 sets. Addresses 0, 512, 1024 share set 0.
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false);
  cache.access(512, false);
  cache.access(0, false);      // touch 0 -> 512 is LRU
  cache.access(1024, false);   // evicts 512
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(512));
  EXPECT_TRUE(cache.probe(1024));
}

TEST(Cache, WriteThroughDoesNotAllocate) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteThroughNoAllocate);
  EXPECT_FALSE(cache.access(0, true).hit);
  EXPECT_FALSE(cache.probe(0));  // no line allocated
  cache.access(0, false);        // read allocates
  EXPECT_TRUE(cache.probe(0));
  cache.access(0, true);  // write hit keeps the line clean
  EXPECT_TRUE(cache.probe(0));
}

TEST(Cache, WriteBackReportsDirtyVictim) {
  Cache cache("t", 128, 1, 64, WritePolicy::kWriteBackAllocate);  // 2 sets
  cache.access(0, true);  // dirty line in set 0
  CacheAccessResult r = cache.access(128, false);  // same set, evicts
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_addr, 0u);
}

TEST(Cache, FillTimeTracksAllocationCycle) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false, 123);
  EXPECT_EQ(cache.fill_time(0), 123u);
  EXPECT_EQ(cache.fill_time(64), 0u);  // absent line
  cache.access(0, false, 999);         // hit does not re-stamp
  EXPECT_EQ(cache.fill_time(0), 123u);
}

TEST(Cache, InvalidateAll) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false);
  cache.access(64, false);
  cache.invalidate_all();
  EXPECT_FALSE(cache.probe(0));
  EXPECT_FALSE(cache.probe(64));
}

TEST(Cache, MissRateAccounting) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false);
  cache.access(0, false);
  cache.access(0, false);
  cache.access(64, false);
  EXPECT_EQ(cache.accesses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_DOUBLE_EQ(cache.miss_rate(), 0.5);
}

// --- Coalescer -------------------------------------------------------------------

TEST(Coalescer, UnitStrideWarpIsOneSegment) {
  std::vector<LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 4, 4});
  auto segments = coalesce(accesses, 128);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].addr, 0u);
  EXPECT_EQ(segments[0].lanes.size(), 32u);
}

TEST(Coalescer, StridedAccessSplits) {
  std::vector<LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 128, 4});
  auto segments = coalesce(accesses, 128);
  EXPECT_EQ(segments.size(), 32u);
}

TEST(Coalescer, MisalignedAccessSpansTwoSegments) {
  std::vector<LaneAccess> accesses{{0, 126, 4}};
  auto segments = coalesce(accesses, 128);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].addr, 0u);
  EXPECT_EQ(segments[1].addr, 128u);
}

TEST(Coalescer, SameLineLanesDeduplicated) {
  std::vector<LaneAccess> accesses{{0, 0, 4}, {1, 0, 4}, {2, 4, 4}};
  auto segments = coalesce(accesses, 128);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].lanes.size(), 3u);
}

TEST(Coalescer, IntraWarpWawDetectsSameGranuleWriters) {
  std::vector<LaneAccess> accesses{{0, 0, 4}, {1, 0, 4}, {2, 8, 4}};
  auto conflicts = intra_warp_waw(accesses, 4);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].lane_a, 0u);
  EXPECT_EQ(conflicts[0].lane_b, 1u);
  EXPECT_EQ(conflicts[0].granule_addr, 0u);
}

TEST(Coalescer, IntraWarpWawQuietOnDistinctWords) {
  std::vector<LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 4, 4});
  EXPECT_TRUE(intra_warp_waw(accesses, 4).empty());
  // At coarse granularity the same pattern aliases.
  EXPECT_FALSE(intra_warp_waw(accesses, 16).empty());
}

// --- Shared memory bank conflicts --------------------------------------------------

TEST(SharedMemoryBanks, UnitStrideIsConflictFree) {
  SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs;
  for (u32 lane = 0; lane < 32; ++lane) addrs.push_back(lane * 4);
  EXPECT_EQ(smem.conflict_cycles(addrs), 2u);  // 32 lanes over 16 banks
}

TEST(SharedMemoryBanks, StrideOfBankCountSerializes) {
  SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs;
  for (u32 lane = 0; lane < 16; ++lane) addrs.push_back(lane * 16 * 4);  // all bank 0
  EXPECT_EQ(smem.conflict_cycles(addrs), 16u);
}

TEST(SharedMemoryBanks, BroadcastIsFree) {
  SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs(32, 64u);  // everyone reads the same word
  EXPECT_EQ(smem.conflict_cycles(addrs), 1u);
}

TEST(SharedMemoryBanks, Storage) {
  SharedMemory smem(1024, 16);
  smem.write_u32(16, 0x12345678);
  EXPECT_EQ(smem.read_u32(16), 0x12345678u);
  smem.write_u8(3, 0x9a);
  EXPECT_EQ(smem.read_u8(3), 0x9a);
  smem.clear(0, 1024);
  EXPECT_EQ(smem.read_u32(16), 0u);
}

// --- DRAM channel -------------------------------------------------------------------

TEST(Dram, RespectsLatencyAndBurst) {
  DramChannel dram(8, 100, 12);
  Packet pkt;
  pkt.addr = 0;
  dram.push(0, pkt);
  // Not ready before the access latency elapses.
  for (Cycle t = 0; t < 100; ++t) EXPECT_FALSE(dram.cycle(t).has_value()) << t;
  EXPECT_TRUE(dram.cycle(100).has_value());
  EXPECT_EQ(dram.busy_cycles(), 12u);
}

TEST(Dram, BurstSerializesBackToBackRequests) {
  DramChannel dram(8, 10, 12);
  Packet pkt;
  dram.push(0, pkt);
  dram.push(0, pkt);
  Cycle first = 0, second = 0;
  for (Cycle t = 0; t < 100; ++t) {
    if (dram.cycle(t)) {
      if (first == 0)
        first = t;
      else if (second == 0)
        second = t;
    }
  }
  EXPECT_EQ(first, 10u);
  EXPECT_GE(second, first + 12);  // bus busy for the burst
}

TEST(Dram, QueueCapacity) {
  DramChannel dram(2, 10, 4);
  Packet pkt;
  EXPECT_TRUE(dram.can_accept());
  dram.push(0, pkt);
  dram.push(0, pkt);
  EXPECT_FALSE(dram.can_accept());
}

TEST(Dram, UtilizationFraction) {
  DramChannel dram(8, 10, 10);
  Packet pkt;
  dram.push(0, pkt);
  for (Cycle t = 0; t <= 20; ++t) dram.cycle(t);
  EXPECT_DOUBLE_EQ(dram.utilization(100), 0.1);
}

// --- Interconnect -----------------------------------------------------------------

TEST(Interconnect, DeliversAfterLatency) {
  Interconnect icnt(2, 2, 8, 1);
  Packet pkt;
  pkt.addr = 0x40;
  icnt.send_request(1, 0, pkt);
  for (Cycle t = 0; t < 8; ++t) EXPECT_FALSE(icnt.recv_request(1, t).has_value());
  auto got = icnt.recv_request(1, 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->addr, 0x40u);
}

TEST(Interconnect, RateLimitsPerCycle) {
  Interconnect icnt(1, 1, 4, 1);
  Packet pkt;
  EXPECT_TRUE(icnt.can_send_request(0, 5));
  icnt.send_request(0, 5, pkt);
  EXPECT_FALSE(icnt.can_send_request(0, 5));  // one per cycle
  EXPECT_TRUE(icnt.can_send_request(0, 6));
}

TEST(Interconnect, ResponsesAreIndependentOfRequests) {
  Interconnect icnt(2, 2, 4, 1);
  icnt.send_response(0, 0, Response{PacketKind::kLoad, 0, 3});
  auto rsp = icnt.recv_response(0, 4);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->warp_slot, 3u);
  EXPECT_TRUE(icnt.idle());
}

// --- Memory partition ----------------------------------------------------------------

arch::GpuConfig tiny_config() {
  arch::GpuConfig cfg;
  cfg.l2_slice_size = 4 * 1024;
  cfg.l2_latency = 5;
  cfg.dram_latency = 20;
  cfg.dram_burst_cycles = 4;
  return cfg;
}

TEST(Partition, MissGoesThroughDramThenHits) {
  MemoryPartition part(0, tiny_config());
  Packet pkt;
  pkt.kind = PacketKind::kLoad;
  pkt.addr = 0;
  pkt.sm_id = 0;
  ASSERT_TRUE(part.accept(pkt));

  Cycle first_done = 0;
  for (Cycle t = 0; t < 200 && first_done == 0; ++t) {
    if (part.cycle(t)) first_done = t;
  }
  EXPECT_GE(first_done, 20u);  // paid the DRAM latency

  // Same line again: L2 hit, much faster.
  ASSERT_TRUE(part.accept(pkt));
  Cycle start = first_done + 1;
  Cycle second_done = 0;
  for (Cycle t = start; t < start + 100 && second_done == 0; ++t) {
    if (part.cycle(t)) second_done = t;
  }
  EXPECT_LE(second_done - start, 10u);  // ~l2_latency
}

TEST(Partition, AtomicPaysExtraLatency) {
  MemoryPartition part(0, tiny_config());
  Packet load;
  load.kind = PacketKind::kLoad;
  load.addr = 0;
  part.accept(load);
  Cycle load_done = 0;
  for (Cycle t = 0; t < 300 && load_done == 0; ++t)
    if (part.cycle(t)) load_done = t;

  MemoryPartition part2(0, tiny_config());
  Packet atomic;
  atomic.kind = PacketKind::kAtomic;
  atomic.addr = 0;
  part2.accept(atomic);
  Cycle atomic_done = 0;
  for (Cycle t = 0; t < 500 && atomic_done == 0; ++t)
    if (part2.cycle(t)) atomic_done = t;

  EXPECT_GT(atomic_done, load_done);
}

TEST(Partition, ShadowPacketsAreCounted) {
  MemoryPartition part(0, tiny_config());
  Packet shadow;
  shadow.kind = PacketKind::kShadow;
  shadow.addr = 0x80;
  shadow.shadow_write = true;
  part.accept(shadow);
  StatSet stats;
  part.export_stats(stats);
  EXPECT_EQ(stats.get("partition.shadow_packets"), 1u);
  EXPECT_EQ(stats.get("partition.data_packets"), 0u);
}

TEST(Config, ValidationCatchesBadGeometry) {
  arch::GpuConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
  cfg.warp_size = 33;
  EXPECT_NE(cfg.validate(), "");
  cfg = arch::GpuConfig{};
  cfg.simd_width = 5;
  EXPECT_NE(cfg.validate(), "");
  cfg = arch::GpuConfig{};
  cfg.l1_size = 1000;  // not divisible by ways*line
  EXPECT_NE(cfg.validate(), "");
  cfg = arch::GpuConfig{};
  cfg.num_mem_partitions = 0;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, PartitionInterleavingCoversAllSlices) {
  arch::GpuConfig cfg;
  std::vector<bool> seen(cfg.num_mem_partitions, false);
  for (Addr a = 0; a < cfg.num_mem_partitions * cfg.l2_line; a += cfg.l2_line) {
    seen[cfg.partition_of(a)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace haccrg
