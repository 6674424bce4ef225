// google-benchmark micro suite for HAccRG's building blocks: the Fig.-3
// shadow state machine, Bloom signatures, the set-associative cache tag
// model, the coalescer, and the banked shared-memory conflict calculator.
// These quantify the per-check cost a hardware RDU would pipeline.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "haccrg/bloom.hpp"
#include "haccrg/race.hpp"
#include "haccrg/shadow.hpp"
#include "haccrg/shared_rdu.hpp"
#include "mem/cache.hpp"
#include "mem/coalescer.hpp"
#include "mem/shared_memory.hpp"

namespace haccrg {
namespace {

void BM_SharedStateMachine(benchmark::State& state) {
  rd::DetectPolicy policy;
  rd::SharedShadowEntry entry;
  rd::AccessInfo access;
  access.size = 4;
  SplitMix64 rng(1);
  for (auto _ : state) {
    access.addr = static_cast<u32>(rng.next() & 0xfff) * 4;
    access.thread_slot = static_cast<u16>(rng.next() & 0x3ff);
    access.warp_in_sm = access.thread_slot / 32;
    access.is_write = (rng.next() & 1) != 0;
    auto out = rd::check_shared_access(entry, access, policy);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SharedStateMachine);

void BM_GlobalStateMachine(benchmark::State& state) {
  rd::DetectPolicy policy;
  rd::GlobalShadowEntry entry;
  rd::AccessInfo access;
  access.size = 4;
  SplitMix64 rng(2);
  auto fences = [](u32, u32) -> u8 { return 0; };
  for (auto _ : state) {
    access.addr = static_cast<u32>(rng.next() & 0xfff) * 4;
    access.thread_slot = static_cast<u16>(rng.next() & 0x3ff);
    access.warp_in_sm = access.thread_slot / 32;
    access.sm_id = static_cast<u32>(rng.next() & 0x1f);
    access.is_write = (rng.next() & 1) != 0;
    auto out = rd::check_global_access(entry, access, policy, fences);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GlobalStateMachine);

void BM_ShadowPackUnpack(benchmark::State& state) {
  rd::GlobalShadowEntry entry;
  entry.m = true;
  entry.tid = 513;
  entry.sync_id = 7;
  entry.sig = 0xbeef;
  for (auto _ : state) {
    const u64 raw = entry.pack();
    auto round = rd::GlobalShadowEntry::unpack(raw);
    benchmark::DoNotOptimize(round);
  }
}
BENCHMARK(BM_ShadowPackUnpack);

void BM_BloomInsertIntersect(benchmark::State& state) {
  const rd::BloomGeometry geom{static_cast<u32>(state.range(0)), 2};
  SplitMix64 rng(3);
  for (auto _ : state) {
    rd::BloomSignature a, b;
    a.insert(static_cast<Addr>(rng.next()), geom);
    b.insert(static_cast<Addr>(rng.next()), geom);
    bool null = rd::BloomSignature::intersection_null(a, b, geom);
    benchmark::DoNotOptimize(null);
  }
}
BENCHMARK(BM_BloomInsertIntersect)->Arg(8)->Arg(16)->Arg(32);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache("bm", 48 * 1024, 6, 128, mem::WritePolicy::kWriteThroughNoAllocate);
  SplitMix64 rng(4);
  for (auto _ : state) {
    auto r = cache.access(static_cast<Addr>(rng.next() & 0xfffff), false);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CacheAccess);

void BM_Coalescer(benchmark::State& state) {
  std::vector<mem::LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) {
    accesses.push_back({lane, lane * 4 * static_cast<u32>(state.range(0)), 4});
  }
  for (auto _ : state) {
    auto segments = mem::coalesce(accesses, 128);
    benchmark::DoNotOptimize(segments);
  }
}
BENCHMARK(BM_Coalescer)->Arg(1)->Arg(4)->Arg(32);

void BM_BankConflicts(benchmark::State& state) {
  mem::SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs;
  for (u32 lane = 0; lane < 32; ++lane) addrs.push_back(lane * 4 * state.range(0));
  for (auto _ : state) {
    u32 cycles = smem.conflict_cycles(addrs);
    benchmark::DoNotOptimize(cycles);
  }
}
BENCHMARK(BM_BankConflicts)->Arg(1)->Arg(2)->Arg(16);

// Insert throughput of the race log's flat dedup table. Arg(0) is the
// number of distinct (granule, pc) keys cycled through — small = mostly
// duplicate hits, large = mostly fresh inserts with growth amortized in.
void BM_RaceLogRecord(benchmark::State& state) {
  const u32 distinct = static_cast<u32>(state.range(0));
  rd::RaceLog log;
  rd::RaceRecord race;
  race.space = rd::MemSpace::kGlobal;
  race.type = rd::RaceType::kRaw;
  SplitMix64 rng(5);
  for (auto _ : state) {
    const u64 r = rng.next();
    race.granule_addr = static_cast<Addr>(r % distinct) * 4;
    race.pc = static_cast<u32>((r >> 32) & 0xf);
    bool fresh = log.record(race);
    benchmark::DoNotOptimize(fresh);
  }
}
BENCHMARK(BM_RaceLogRecord)->Arg(16)->Arg(1024)->Arg(65536);

// Full SharedRdu::check per-warp cost: 32 lanes hammering one block's
// scratchpad region. Arg(0)=0 measures the word-level fast path (every
// lane re-reads its own granule); Arg(0)=1 forces the slow unpack/pack
// path (alternating writer threads per granule).
void BM_SharedRduCheck(benchmark::State& state) {
  const bool contended = state.range(0) != 0;
  rd::HaccrgConfig config;
  rd::DetectPolicy policy;
  rd::RaceLog log;
  rd::SharedRdu rdu(0, 16 * 1024, config, policy, log);
  rd::AccessInfo access;
  access.size = 4;
  u64 iter = 0;
  for (auto _ : state) {
    ++iter;
    for (u32 lane = 0; lane < 32; ++lane) {
      access.addr = lane * 64;
      access.thread_slot = contended ? static_cast<u16>((iter + lane) & 0x3ff)
                                     : static_cast<u16>(lane);
      access.warp_in_sm = access.thread_slot / policy.warp_size;
      access.is_write = contended;
      rdu.check(access);
    }
    benchmark::DoNotOptimize(rdu.checks());
  }
  benchmark::DoNotOptimize(log);
}
BENCHMARK(BM_SharedRduCheck)->Arg(0)->Arg(1);

}  // namespace
}  // namespace haccrg

BENCHMARK_MAIN();
