// End-to-end smoke tests of the simulator: functional correctness of
// simple kernels, divergence handling, barrier semantics, and that the
// baseline (detection off) reports no races. Also pins the engine's
// WorkerPool::chunk_bounds split: balanced contiguous chunks that cover
// [0, count) exactly and never overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "isa/builder.hpp"
#include "sim/gpu.hpp"
#include "sim/thread_pool.hpp"

namespace haccrg {
namespace {

using isa::CmpOp;
using isa::KernelBuilder;
using isa::Pred;
using isa::Reg;
using sim::Gpu;
using sim::LaunchConfig;
using sim::SimResult;

arch::GpuConfig small_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 4;
  cfg.device_mem_bytes = 8 * 1024 * 1024;
  return cfg;
}

TEST(SimBasic, VectorAdd) {
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 n = 1024;
  const Addr a = gpu.allocator().alloc(n * 4, "a");
  const Addr b = gpu.allocator().alloc(n * 4, "b");
  const Addr c = gpu.allocator().alloc(n * 4, "c");
  for (u32 i = 0; i < n; ++i) {
    gpu.memory().write_u32(a + i * 4, i);
    gpu.memory().write_u32(b + i * 4, 1000 + i);
  }

  KernelBuilder kb("vecadd");
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg pa = kb.param(0);
  Reg pb = kb.param(1);
  Reg pc = kb.param(2);
  Reg addr_a = kb.addr(pa, gid, 4);
  Reg addr_b = kb.addr(pb, gid, 4);
  Reg addr_c = kb.addr(pc, gid, 4);
  Reg va = kb.reg();
  Reg vb = kb.reg();
  kb.ld_global(va, addr_a);
  kb.ld_global(vb, addr_b);
  kb.add(va, va, vb);
  kb.st_global(addr_c, va);
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = n / 128;
  launch.block_dim = 128;
  launch.params = {a, b, c};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_GT(result.cycles, 0u);
  for (u32 i = 0; i < n; ++i) {
    EXPECT_EQ(gpu.memory().read_u32(c + i * 4), 1000 + 2 * i) << "at " << i;
  }
  EXPECT_TRUE(result.races.empty());
}

TEST(SimBasic, DivergentIfElse) {
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 n = 64;
  const Addr out = gpu.allocator().alloc(n * 4, "out");

  KernelBuilder kb("diverge");
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg pout = kb.param(0);
  Reg dst = kb.addr(pout, gid, 4);
  Reg parity = kb.reg();
  kb.and_(parity, gid, 1u);
  Pred odd = kb.pred();
  kb.setp(odd, CmpOp::kEq, parity, 1u);
  Reg value = kb.reg();
  kb.if_else(
      odd, [&] { kb.mov(value, 111u); }, [&] { kb.mov(value, 222u); });
  kb.st_global(dst, value);
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 1;
  launch.block_dim = n;
  launch.params = {out};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  for (u32 i = 0; i < n; ++i) {
    EXPECT_EQ(gpu.memory().read_u32(out + i * 4), (i & 1) ? 111u : 222u);
  }
}

TEST(SimBasic, PerLaneLoopTripCounts) {
  // Each thread loops `tid % 7` times; exercises divergent loop exits.
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 n = 96;
  const Addr out = gpu.allocator().alloc(n * 4, "out");

  KernelBuilder kb("loops");
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg pout = kb.param(0);
  Reg dst = kb.addr(pout, gid, 4);
  Reg bound = kb.reg();
  kb.rem(bound, gid, 7u);
  Reg acc = kb.imm(0);
  Reg i = kb.reg();
  kb.for_range(i, 0u, isa::Operand(bound), 1u, [&] { kb.add(acc, acc, 5u); });
  kb.st_global(dst, acc);
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 3;
  launch.block_dim = 32;
  launch.params = {out};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  for (u32 i2 = 0; i2 < n; ++i2) {
    EXPECT_EQ(gpu.memory().read_u32(out + i2 * 4), (i2 % 7) * 5) << "thread " << i2;
  }
}

TEST(SimBasic, SharedMemoryReductionWithBarriers) {
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 block = 128;
  const u32 blocks = 4;
  const u32 n = block * blocks;
  const Addr in = gpu.allocator().alloc(n * 4, "in");
  const Addr out = gpu.allocator().alloc(blocks * 4, "out");
  u32 expected[4] = {0, 0, 0, 0};
  for (u32 i = 0; i < n; ++i) {
    gpu.memory().write_u32(in + i * 4, i * 3 + 1);
    expected[i / block] += i * 3 + 1;
  }

  KernelBuilder kb("reduce_smoke");
  Reg tid = kb.special(isa::SpecialReg::kTid);
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg bid = kb.special(isa::SpecialReg::kCtaId);
  Reg pin = kb.param(0);
  Reg pout = kb.param(1);
  Reg src = kb.addr(pin, gid, 4);
  Reg v = kb.reg();
  kb.ld_global(v, src);
  Reg saddr = kb.reg();
  kb.mul(saddr, tid, 4u);
  kb.st_shared(saddr, v);
  kb.barrier();

  // Tree reduction: stride halves each step.
  Reg stride = kb.imm(block / 2);
  Pred more = kb.pred();
  kb.while_(
      [&] {
        kb.setp(more, CmpOp::kGtU, stride, 0u);
        return more;
      },
      [&] {
        Pred lower = kb.pred();
        kb.setp(lower, CmpOp::kLtU, tid, isa::Operand(stride));
        kb.if_(lower, [&] {
          Reg other = kb.reg();
          kb.add(other, tid, isa::Operand(stride));
          kb.mul(other, other, 4u);
          Reg mine = kb.reg();
          Reg theirs = kb.reg();
          kb.ld_shared(mine, saddr);
          kb.ld_shared(theirs, other);
          kb.add(mine, mine, theirs);
          kb.st_shared(saddr, mine);
        });
        kb.shr(stride, stride, 1u);
        kb.barrier();
      });

  Pred is0 = kb.pred();
  kb.setp(is0, CmpOp::kEq, tid, 0u);
  kb.if_(is0, [&] {
    Reg sum = kb.reg();
    Reg zero = kb.imm(0);
    kb.ld_shared(sum, zero);
    Reg dst = kb.addr(pout, bid, 4);
    kb.st_global(dst, sum);
  });
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = blocks;
  launch.block_dim = block;
  launch.shared_mem_bytes = block * 4;
  launch.params = {in, out};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.barriers > 0, true);
  for (u32 b = 0; b < blocks; ++b) {
    EXPECT_EQ(gpu.memory().read_u32(out + b * 4), expected[b]) << "block " << b;
  }
}

TEST(SimBasic, GlobalAtomicsSumAndHistogram) {
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 n = 512;
  const Addr sum = gpu.allocator().alloc(4, "sum");
  const Addr hist = gpu.allocator().alloc(8 * 4, "hist");
  gpu.memory().fill(sum, 4, 0);
  gpu.memory().fill(hist, 8 * 4, 0);

  KernelBuilder kb("atomics");
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg psum = kb.param(0);
  Reg phist = kb.param(1);
  Reg one = kb.imm(1);
  Reg old = kb.reg();
  kb.atom_global(old, isa::AtomicOp::kAdd, psum, one);
  Reg bucket = kb.reg();
  kb.rem(bucket, gid, 8u);
  Reg baddr = kb.addr(phist, bucket, 4);
  kb.atom_global(old, isa::AtomicOp::kAdd, baddr, one);
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 4;
  launch.block_dim = 128;
  launch.params = {sum, hist};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(gpu.memory().read_u32(sum), n);
  for (u32 b = 0; b < 8; ++b) EXPECT_EQ(gpu.memory().read_u32(hist + b * 4), n / 8);
  EXPECT_EQ(result.global_atomics, 2u * (n / 32));  // two atomics per warp inst
}

TEST(SimBasic, SpinLockCriticalSection) {
  // 256 threads increment a shared counter under a lock; the final value
  // must be exact — a lost update means the lock idiom is broken.
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const Addr lock = gpu.allocator().alloc(4, "lock");
  const Addr counter = gpu.allocator().alloc(4, "counter");
  gpu.memory().fill(lock, 4, 0);
  gpu.memory().fill(counter, 4, 0);

  KernelBuilder kb("locked_inc");
  Reg plock = kb.param(0);
  Reg pcounter = kb.param(1);
  kb.with_lock(plock, [&] {
    Reg v = kb.reg();
    kb.ld_global(v, pcounter);
    kb.add(v, v, 1u);
    kb.st_global(pcounter, v);
  });
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 4;
  launch.block_dim = 64;
  launch.params = {lock, counter};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(gpu.memory().read_u32(counter), 256u);
  EXPECT_EQ(gpu.memory().read_u32(lock), 0u);
}

TEST(SimBasic, ByteAccessWidths) {
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 n = 256;
  const Addr in = gpu.allocator().alloc(n, "in");
  const Addr out = gpu.allocator().alloc(n, "out");
  for (u32 i = 0; i < n; ++i) gpu.memory().write_u8(in + i, static_cast<u8>(i * 7));

  KernelBuilder kb("bytes");
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg pin = kb.param(0);
  Reg pout = kb.param(1);
  Reg src = kb.reg();
  kb.add(src, gid, isa::Operand(pin));
  Reg dst = kb.reg();
  kb.add(dst, gid, isa::Operand(pout));
  Reg v = kb.reg();
  kb.ld_global(v, src, 0, 1);
  kb.add(v, v, 1u);
  kb.st_global(dst, v, 0, 1);
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 2;
  launch.block_dim = 128;
  launch.params = {in, out};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  for (u32 i = 0; i < n; ++i) {
    EXPECT_EQ(gpu.memory().read_u8(out + i), static_cast<u8>(i * 7 + 1));
  }
}

TEST(SimBasic, FenceCompletesAndCountsAreSane) {
  Gpu gpu(small_gpu(), rd::HaccrgConfig{});
  const u32 n = 128;
  const Addr buf = gpu.allocator().alloc(n * 4, "buf");

  KernelBuilder kb("fence");
  Reg gid = kb.special(isa::SpecialReg::kGTid);
  Reg pbuf = kb.param(0);
  Reg dst = kb.addr(pbuf, gid, 4);
  kb.st_global(dst, gid);
  kb.memfence();
  Reg v = kb.reg();
  kb.ld_global(v, dst);
  kb.add(v, v, 1u);
  kb.st_global(dst, v);
  isa::Program prog = kb.build();

  LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 1;
  launch.block_dim = n;
  launch.params = {buf};
  SimResult result = gpu.launch(launch);

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.fences, n / 32);
  for (u32 i = 0; i < n; ++i) EXPECT_EQ(gpu.memory().read_u32(buf + i * 4), i + 1);
}

// --- WorkerPool::chunk_bounds ------------------------------------------------

void expect_partition(u32 num_threads, u32 count) {
  u32 covered = 0;
  u32 prev_end = 0;
  u32 max_chunk = 0, min_chunk = ~0u;
  for (u32 w = 0; w < num_threads; ++w) {
    const auto [begin, end] = sim::WorkerPool::chunk_bounds(w, num_threads, count);
    EXPECT_EQ(begin, prev_end) << num_threads << " threads, " << count << " jobs, worker " << w;
    EXPECT_LE(begin, end);
    prev_end = end;
    covered += end - begin;
    max_chunk = std::max(max_chunk, end - begin);
    min_chunk = std::min(min_chunk, end - begin);
  }
  EXPECT_EQ(prev_end, count);
  EXPECT_EQ(covered, count);
  // Balanced: chunk sizes differ by at most one.
  EXPECT_LE(max_chunk - min_chunk, 1u) << num_threads << " threads, " << count << " jobs";
}

TEST(ChunkBounds, TenSmsOverFourWorkersIsBalanced) {
  // The motivating case: the old ceil-chunk split gave 3,3,3,1 and the
  // barrier waited on worker 0's oversized chunk every cycle.
  u32 sizes[4];
  for (u32 w = 0; w < 4; ++w) {
    const auto [begin, end] = sim::WorkerPool::chunk_bounds(w, 4, 10);
    sizes[w] = end - begin;
  }
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 2u);
  EXPECT_EQ(sizes[3], 3u);
}

TEST(ChunkBounds, AwkwardCountsPartitionExactly) {
  for (u32 threads : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
    for (u32 count : {0u, 1u, 2u, 3u, 7u, 8u, 10u, 41u, 63u, 64u, 65u, 1000u}) {
      expect_partition(threads, count);
    }
  }
}

TEST(ChunkBounds, FewerJobsThanWorkersLeavesTailIdle) {
  // 3 jobs over 8 workers: every job lands somewhere, some workers idle,
  // and no worker gets more than one.
  u32 busy = 0;
  for (u32 w = 0; w < 8; ++w) {
    const auto [begin, end] = sim::WorkerPool::chunk_bounds(w, 8, 3);
    EXPECT_LE(end - begin, 1u);
    busy += end - begin;
  }
  EXPECT_EQ(busy, 3u);
}

}  // namespace
}  // namespace haccrg
