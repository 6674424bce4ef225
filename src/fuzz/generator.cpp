#include "fuzz/generator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "isa/builder.hpp"

namespace haccrg::fuzz {

namespace {

using isa::AtomicOp;
using isa::CmpOp;
using isa::KernelBuilder;
using isa::Operand;
using isa::Pred;
using isa::Reg;
using isa::SpecialReg;

/// One L1 line: global windows are aligned to this so a load in one
/// fragment can never pull another fragment's words into a reader's L1
/// and manufacture a spurious stale-line race.
constexpr u32 kArenaSlotStride = 32;

/// Per-emission state shared by the fragment emitters. The cached
/// specials/constants MUST all be materialized in the uniform prelude
/// (see generate()): a first use inside divergent control flow would
/// emit the materializing instruction under a partial active mask,
/// leaving the cached register zero for the threads that took the
/// other path — every later fragment then computes garbage addresses.
struct EmitCtx {
  KernelBuilder& kb;
  u32 grid_dim;
  u32 block_dim;

  Reg arena_reg{};
  bool have_arena = false;
  Reg arena() {
    if (!have_arena) {
      arena_reg = kb.param(0);
      have_arena = true;
    }
    return arena_reg;
  }

  Reg cached[4]{};
  bool have[4] = {false, false, false, false};
  Reg special(int slot, SpecialReg which) {
    if (!have[slot]) {
      cached[slot] = kb.special(which);
      have[slot] = true;
    }
    return cached[slot];
  }
  Reg tid() { return special(0, SpecialReg::kTid); }
  Reg bid() { return special(1, SpecialReg::kCtaId); }
  Reg gtid() { return special(2, SpecialReg::kGTid); }
  Reg lane() { return special(3, SpecialReg::kLane); }

  Reg const_reg[2]{};
  bool have_const[2] = {false, false};
  Reg zero() {
    if (!have_const[0]) {
      const_reg[0] = kb.imm(0);
      have_const[0] = true;
    }
    return const_reg[0];
  }
  Reg one() {
    if (!have_const[1]) {
      const_reg[1] = kb.imm(1);
      have_const[1] = true;
    }
    return const_reg[1];
  }

  /// Byte address of shared/global word `index` (base carried by the
  /// ld/st offset immediates).
  Reg word_bytes(Reg index) {
    Reg r = kb.reg();
    kb.shl(r, index, 2);
    return r;
  }
};

void note_pair(RaceOracle& oracle, OracleClass cls, rd::MemSpace space, std::vector<u32> pcs,
               bool hw_visible, const std::string& note) {
  OraclePair pair;
  pair.cls = cls;
  pair.space = space;
  pair.pcs = std::move(pcs);
  pair.hw_visible = hw_visible;
  pair.note = note;
  oracle.pairs.push_back(pair);
}

// --- Safe fragments ---------------------------------------------------------

void emit_global_affine(EmitCtx& ctx, u32 /*s_off*/, u32 g_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Reg a = kb.addr(ctx.arena(), ctx.gtid(), 4);
  Reg v = kb.reg();
  kb.ld_global(v, a, g_off * 4);
  kb.add(v, v, 1);
  kb.st_global(a, v, g_off * 4);
}

void emit_shared_xor(EmitCtx& ctx, const FragmentSpec& frag, u32 s_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  // tid ^ mask is a bijection on [0, block_dim): per-thread disjoint,
  // but the xor defeats the affine analysis — dynamic-precision bait.
  const u32 mask = frag.arg[0] & (ctx.block_dim - 1);
  Reg x = kb.reg();
  kb.xor_(x, ctx.tid(), mask);
  Reg sa = ctx.word_bytes(x);
  kb.st_shared(sa, ctx.tid(), s_off * 4);
}

void emit_reduce_tree(EmitCtx& ctx, u32 s_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Reg sa = ctx.word_bytes(ctx.tid());
  kb.st_shared(sa, ctx.tid(), s_off * 4);
  Reg s = kb.imm(ctx.block_dim / 2);
  kb.while_(
      [&] {
        Pred p = kb.pred();
        kb.setp(p, CmpOp::kNe, s, 0);
        return p;
      },
      [&] {
        kb.barrier();  // uniform trip count: every thread sees the same s
        Pred active = kb.pred();
        kb.setp(active, CmpOp::kLtU, ctx.tid(), s);
        kb.if_(active, [&] {
          Reg t2 = kb.reg();
          kb.add(t2, ctx.tid(), s);
          Reg sa2 = ctx.word_bytes(t2);
          Reg v = kb.reg();
          kb.ld_shared(v, sa2, s_off * 4);
          Reg v2 = kb.reg();
          kb.ld_shared(v2, sa, s_off * 4);
          kb.add(v2, v2, v);
          kb.st_shared(sa, v2, s_off * 4);
        });
        kb.shr(s, s, 1);
      });
}

void emit_warp_reduce(EmitCtx& ctx, u32 s_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  // The classic unrolled-last-warp idiom: no barriers once only warp 0
  // is live. SIMD lockstep orders the accesses, so the hardware RDUs
  // stay silent; the per-thread sw tags flag the same-epoch sharing —
  // the pinned HIST/REDUCE/PSUM/HASH divergence, in miniature.
  Reg sa = ctx.word_bytes(ctx.tid());
  kb.st_shared(sa, ctx.tid(), s_off * 4);
  kb.barrier();
  Pred warp0 = kb.pred();
  kb.setp(warp0, CmpOp::kLtU, ctx.tid(), 32);
  kb.if_(warp0, [&] {
    Reg s = kb.imm(16);
    kb.while_(
        [&] {
          Pred p = kb.pred();
          kb.setp(p, CmpOp::kNe, s, 0);
          return p;
        },
        [&] {
          Reg t2 = kb.reg();
          kb.add(t2, ctx.tid(), s);
          Reg sa2 = ctx.word_bytes(t2);
          Reg v = kb.reg();
          kb.ld_shared(v, sa2, s_off * 4);
          Reg v2 = kb.reg();
          kb.ld_shared(v2, sa, s_off * 4);
          kb.add(v2, v2, v);
          kb.st_shared(sa, v2, s_off * 4);
          kb.shr(s, s, 1);
        });
  });
}

void emit_atomic_counter(EmitCtx& ctx, u32 s_off, u32 g_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Reg d = kb.reg();
  kb.atom_shared(d, AtomicOp::kAdd, ctx.zero(), ctx.one(), s_off * 4);
  kb.atom_global(d, AtomicOp::kAdd, ctx.arena(), ctx.one(), g_off * 4);
}

void emit_locked_rmw(EmitCtx& ctx, u32 g_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Reg la = kb.reg();
  kb.add(la, ctx.arena(), g_off * 4);
  kb.with_lock(la, [&] {
    Reg da = kb.reg();
    kb.add(da, ctx.arena(), (g_off + 1) * 4);
    Reg v = kb.reg();
    kb.ld_global(v, da);
    kb.add(v, v, 1);
    kb.st_global(da, v);
  });
}

/// Store / (fence) / atomic arrival counter / last block consumes every
/// slot. Slots are one L1 line apart so each consume load misses and
/// the verdict is carried purely by the fence gate.
void emit_publish(EmitCtx& ctx, u32 s_off, u32 g_off, bool fenced, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  const u32 counter_off = g_off + ctx.grid_dim * kArenaSlotStride;
  Reg k0 = kb.reg();
  kb.shl(k0, ctx.bid(), 5);
  Reg a = kb.addr(ctx.arena(), k0, 4);
  Pred t0 = kb.pred();
  kb.setp(t0, CmpOp::kEq, ctx.tid(), 0);
  Reg flag = kb.reg();
  kb.mov(flag, 0u);
  u32 pc_store = 0;
  kb.if_(t0, [&] {
    pc_store = kb.here();
    kb.st_global(a, ctx.bid(), g_off * 4);
    if (fenced) kb.memfence();
    Reg d = kb.reg();
    kb.atom_global(d, AtomicOp::kAdd, ctx.arena(), ctx.one(), counter_off * 4);
    Pred last = kb.pred();
    kb.setp(last, CmpOp::kEq, d, ctx.grid_dim - 1);
    kb.sel(flag, last, ctx.one(), ctx.zero());
    kb.st_shared(ctx.zero(), flag, s_off * 4);
  });
  kb.barrier();
  Reg f2 = kb.reg();
  kb.ld_shared(f2, ctx.zero(), s_off * 4);
  Pred consume = kb.pred();
  kb.setp(consume, CmpOp::kNe, f2, 0);
  u32 pc_load = 0;
  kb.if_(consume, [&] {
    Reg i = kb.reg();
    kb.for_range(i, 0u, ctx.grid_dim, 1u, [&] {
      Reg k = kb.reg();
      kb.shl(k, i, 5);
      Reg a2 = kb.addr(ctx.arena(), k, 4);
      pc_load = kb.here();
      Reg v = kb.reg();
      kb.ld_global(v, a2, g_off * 4);
    });
  });
  if (!fenced)
    note_pair(oracle, OracleClass::kFence, rd::MemSpace::kGlobal, {pc_store, pc_load}, true,
              "missing_fence: unfenced cross-block publish/consume");
}

/// The fence gate (Sec. III-C) reports a cross-block read only while the
/// writer warp's fence ID still equals the one stored with the write.
/// Producer blocks skip the consume loop and run on, so a fence in any
/// later fragment may advance that ID before the last block's loads:
/// whether the unfenced publish is reported then depends on the schedule.
void mark_schedule_dependent(const isa::Program& program, RaceOracle& oracle) {
  for (OraclePair& pair : oracle.pairs) {
    if (pair.cls != OracleClass::kFence) continue;
    const u32 last_pc = *std::max_element(pair.pcs.begin(), pair.pcs.end());
    for (u32 pc = last_pc + 1; pc < program.size(); ++pc) {
      const isa::Opcode op = program.at(pc).op;
      if (op == isa::Opcode::kMemBar || op == isa::Opcode::kMemBarBlock) {
        pair.schedule_dependent = true;
        break;
      }
    }
  }
}

void emit_divergent_halves(EmitCtx& ctx, u32 s_off, u32 g_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Pred lower = kb.pred();
  kb.setp(lower, CmpOp::kLtU, ctx.tid(), ctx.block_dim / 2);
  kb.if_else(
      lower,
      [&] {
        Reg sa = ctx.word_bytes(ctx.tid());
        kb.st_shared(sa, ctx.tid(), s_off * 4);
      },
      [&] {
        // Index by gtid: a tid index would collide across blocks.
        Reg a = kb.addr(ctx.arena(), ctx.gtid(), 4);
        kb.st_global(a, ctx.tid(), g_off * 4);
      });
}

void emit_uniform_if_barrier(EmitCtx& ctx, u32 s_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Pred always = kb.pred();
  kb.setp(always, CmpOp::kLtU, ctx.zero(), 1);  // uniformly true
  kb.if_(always, [&] {
    Reg sa = ctx.word_bytes(ctx.tid());
    kb.st_shared(sa, ctx.tid(), s_off * 4);
    kb.barrier();
    Reg r = kb.reg();
    kb.add(r, ctx.tid(), 1);
    kb.and_(r, r, ctx.block_dim - 1);
    Reg sa2 = ctx.word_bytes(r);
    Reg v = kb.reg();
    kb.ld_shared(v, sa2, s_off * 4);
  });
}

void emit_loop_nest_affine(EmitCtx& ctx, const FragmentSpec& frag, u32 g_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  const u32 ti = 1 + (frag.arg[0] & 3);
  const u32 tj = 2;
  Reg i = kb.reg();
  kb.for_range(i, 0u, ti, 1u, [&] {
    Reg j = kb.reg();
    kb.for_range(j, 0u, tj, 1u, [&] {
      Reg k = kb.reg();
      kb.mul(k, ctx.gtid(), ti);
      kb.add(k, k, i);
      kb.mul(k, k, tj);
      kb.add(k, k, j);
      Reg a = kb.addr(ctx.arena(), k, 4);
      kb.st_global(a, k, g_off * 4);
    });
  });
}

void emit_broadcast_read(EmitCtx& ctx, u32 s_off, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  Pred t0 = kb.pred();
  kb.setp(t0, CmpOp::kEq, ctx.tid(), 0);
  kb.if_(t0, [&] { kb.st_shared(ctx.zero(), ctx.one(), s_off * 4); });
  kb.barrier();
  Reg v = kb.reg();
  kb.ld_shared(v, ctx.zero(), s_off * 4);
}

void emit_lane_mask_barrier(EmitCtx& ctx, RaceOracle&) {
  KernelBuilder& kb = ctx.kb;
  // Statically divergence-shaped (the predicate reads the lane id) but
  // uniformly true at runtime: every warp arrives with a full mask, so
  // the barrier is dynamically safe. Lint bait for the static verifier.
  Pred p = kb.pred();
  kb.setp(p, CmpOp::kLtU, ctx.lane(), 32);
  kb.if_(p, [&] { kb.barrier(); });
}

// --- Racy fragments ---------------------------------------------------------

void emit_shared_waw(EmitCtx& ctx, u32 s_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  // tid mod 32: lane l of every warp writes the same word. Same-warp
  // lanes write distinct words (no intra-warp collision); warps collide
  // pairwise in the same epoch -> shared WAW through the RDU.
  Reg w = kb.reg();
  kb.and_(w, ctx.tid(), 31);
  Reg sa = ctx.word_bytes(w);
  const u32 pc = kb.here();
  kb.st_shared(sa, ctx.tid(), s_off * 4);
  note_pair(oracle, OracleClass::kSharedEpoch, rd::MemSpace::kShared, {pc}, true,
            "shared_waw: cross-warp same-word stores");
}

void emit_missing_barrier(EmitCtx& ctx, u32 s_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  Reg sa = ctx.word_bytes(ctx.tid());
  const u32 pc_st = kb.here();
  kb.st_shared(sa, ctx.tid(), s_off * 4);
  // no barrier: the neighbour exchange races at every warp boundary
  Reg r = kb.reg();
  kb.add(r, ctx.tid(), 1);
  kb.and_(r, r, ctx.block_dim - 1);
  Reg sa2 = ctx.word_bytes(r);
  const u32 pc_ld = kb.here();
  Reg v = kb.reg();
  kb.ld_shared(v, sa2, s_off * 4);
  note_pair(oracle, OracleClass::kSharedEpoch, rd::MemSpace::kShared, {pc_st, pc_ld}, true,
            "missing_barrier: neighbour exchange without a barrier");
}

void emit_cross_block_waw(EmitCtx& ctx, u32 g_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  Pred t0 = kb.pred();
  kb.setp(t0, CmpOp::kEq, ctx.tid(), 0);
  u32 pc_own = 0;
  u32 pc_rogue = 0;
  kb.if_(t0, [&] {
    Reg a = kb.addr(ctx.arena(), ctx.bid(), 4);
    pc_own = kb.here();
    kb.st_global(a, ctx.bid(), g_off * 4);
    Reg nb = kb.reg();
    kb.add(nb, ctx.bid(), 1);
    kb.and_(nb, nb, ctx.grid_dim - 1);
    Reg a2 = kb.addr(ctx.arena(), nb, 4);
    pc_rogue = kb.here();
    kb.st_global(a2, ctx.tid(), g_off * 4);
  });
  note_pair(oracle, OracleClass::kGlobalEpoch, rd::MemSpace::kGlobal, {pc_own, pc_rogue}, true,
            "cross_block_waw: rogue store into the neighbour block's slot");
}

void emit_rogue_unlocked(EmitCtx& ctx, u32 g_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  Reg la = kb.reg();
  kb.add(la, ctx.arena(), g_off * 4);
  u32 pc_cs_ld = 0;
  u32 pc_cs_st = 0;
  // The rogue thread's whole warp sits out the locked round: a CS store
  // by a warp-mate just before the rogue store would transfer granule
  // ownership warp-internally and keep the protected sig, erasing the
  // mixed-protection evidence (shadow.cpp state 3, ordered_by_warp).
  // With only cross-warp lockers, whichever side accesses the counter
  // second reports the lockset race.
  Pred locker = kb.pred();
  kb.setp(locker, CmpOp::kGeU, ctx.gtid(), 32);
  kb.if_(locker, [&] {
    kb.with_lock(la, [&] {
      Reg da = kb.reg();
      kb.add(da, ctx.arena(), (g_off + 1) * 4);
      pc_cs_ld = kb.here();
      Reg v = kb.reg();
      kb.ld_global(v, da);
      kb.add(v, v, 1);
      pc_cs_st = kb.here();
      kb.st_global(da, v);
    });
  });
  // Shadow detection only flags the SECOND access of a conflicting
  // pair: if thread 0 wins the lock last, its rogue store is the final
  // access to the counter granule and nothing ever observes the mixed
  // protection. Hand off through a flag (atomics are invisible to the
  // detector) so an observer in another block is ordered after the
  // rogue store and its locked access witnesses the race every time.
  Reg fa = kb.reg();
  kb.add(fa, ctx.arena(), (g_off + 2) * 4);
  Pred rogue = kb.pred();
  kb.setp(rogue, CmpOp::kEq, ctx.gtid(), 0);
  u32 pc_rogue = 0;
  kb.if_(rogue, [&] {
    Reg da2 = kb.reg();
    kb.add(da2, ctx.arena(), (g_off + 1) * 4);
    Reg val = ctx.tid();  // materialize before the pc capture
    pc_rogue = kb.here();
    kb.st_global(da2, val);
    Reg d = kb.reg();
    kb.atom_global(d, AtomicOp::kExch, fa, ctx.one());
  });
  Pred obs = kb.pred();
  kb.setp(obs, CmpOp::kEq, ctx.gtid(), ctx.block_dim);  // thread 0 of block 1
  u32 pc_obs_ld = 0;
  u32 pc_obs_st = 0;
  kb.if_(obs, [&] {
    Reg seen = kb.reg();
    Pred wait = kb.pred();
    kb.while_(
        [&] {
          kb.atom_global(seen, AtomicOp::kAdd, fa, ctx.zero());
          kb.setp(wait, CmpOp::kEq, seen, 0);
          return wait;
        },
        [&] {});
    kb.with_lock(la, [&] {
      Reg da3 = kb.reg();
      kb.add(da3, ctx.arena(), (g_off + 1) * 4);
      pc_obs_ld = kb.here();
      Reg v2 = kb.reg();
      kb.ld_global(v2, da3);
      kb.add(v2, v2, 1);
      pc_obs_st = kb.here();
      kb.st_global(da3, v2);
    });
  });
  note_pair(oracle, OracleClass::kLockset, rd::MemSpace::kGlobal,
            {pc_cs_ld, pc_cs_st, pc_rogue, pc_obs_ld, pc_obs_st}, true,
            "rogue_unlocked: unprotected store onto lock-protected data");
}

void emit_loop_carried_waw(EmitCtx& ctx, u32 s_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  u32 pc_st = 0;
  Reg i = kb.reg();
  kb.for_range(i, 0u, 3u, 1u, [&] {
    Reg t = kb.reg();
    kb.shl(t, i, 3);
    kb.add(t, t, ctx.tid());
    kb.and_(t, t, ctx.block_dim - 1);
    Reg sa = ctx.word_bytes(t);
    pc_st = kb.here();
    kb.st_shared(sa, i, s_off * 4);
  });
  note_pair(oracle, OracleClass::kSharedEpoch, rd::MemSpace::kShared, {pc_st}, true,
            "loop_carried_waw: (tid + 8i) mod block_dim collides across warps");
}

void emit_warp_collision(EmitCtx& ctx, u32 s_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  // Lanes 2k and 2k+1 of one warp write the same word in the same
  // instruction: the pre-issue exact-address check fires (Sec. III-A).
  Reg h = kb.reg();
  kb.shr(h, ctx.tid(), 1);
  Reg sa = ctx.word_bytes(h);
  const u32 pc = kb.here();
  kb.st_shared(sa, ctx.tid(), s_off * 4);
  note_pair(oracle, OracleClass::kIntraWarpWaw, rd::MemSpace::kShared, {pc}, true,
            "warp_collision: paired lanes store the same word");
}

void emit_atomic_plain_mix(EmitCtx& ctx, u32 g_off, RaceOracle& oracle) {
  KernelBuilder& kb = ctx.kb;
  Reg aa = kb.reg();
  kb.add(aa, ctx.arena(), g_off * 4);
  const u32 pc_atom = kb.here();
  Reg d = kb.reg();
  kb.atom_global(d, AtomicOp::kAdd, aa, ctx.one());
  Pred t0 = kb.pred();
  kb.setp(t0, CmpOp::kEq, ctx.gtid(), 0);
  u32 pc_ld = 0;
  kb.if_(t0, [&] {
    pc_ld = kb.here();
    Reg v = kb.reg();
    kb.ld_global(v, aa);
  });
  note_pair(oracle, OracleClass::kAtomicBlind, rd::MemSpace::kGlobal, {pc_atom, pc_ld}, false,
            "atomic_plain_mix: atomic writers vs plain reader (atomics are "
            "treated as synchronization by every detector)");
}

/// Shared/global words one fragment instance consumes at this geometry.
struct FragmentFootprint {
  u32 shared_words = 0;
  u32 arena_words = 0;
};

FragmentFootprint footprint(FragmentKind kind, u32 grid_dim, u32 block_dim) {
  switch (kind) {
    case FragmentKind::kGlobalAffine: return {0, grid_dim * block_dim};
    case FragmentKind::kSharedXor: return {block_dim, 0};
    case FragmentKind::kReduceTree: return {block_dim, 0};
    case FragmentKind::kWarpReduce: return {block_dim, 0};
    case FragmentKind::kAtomicCounter: return {1, 1};
    case FragmentKind::kLockedRmw: return {0, 2};
    case FragmentKind::kFencePublish:
    case FragmentKind::kMissingFence:
      return {1, (grid_dim + 1) * kArenaSlotStride};
    case FragmentKind::kDivergentHalves: return {block_dim, grid_dim * block_dim};
    case FragmentKind::kUniformIfBarrier: return {block_dim, 0};
    case FragmentKind::kLoopNestAffine: return {0, grid_dim * block_dim * 4 * 2};
    case FragmentKind::kBroadcastRead: return {1, 0};
    case FragmentKind::kLaneMaskBarrier: return {0, 0};
    case FragmentKind::kSharedWaw: return {32, 0};
    case FragmentKind::kMissingBarrier: return {block_dim, 0};
    case FragmentKind::kCrossBlockWaw: return {0, grid_dim};
    case FragmentKind::kRogueUnlocked: return {0, 3};
    case FragmentKind::kLoopCarriedWaw: return {block_dim, 0};
    case FragmentKind::kWarpCollision: return {block_dim / 2, 0};
    case FragmentKind::kAtomicPlainMix: return {0, 1};
  }
  return {0, 0};
}

u32 align_up(u32 v, u32 a) { return (v + a - 1) / a * a; }

}  // namespace

GeneratedKernel generate(const KernelSpec& spec) {
  const Status valid = spec.validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "fuzz::generate: %s\n", valid.message().c_str());
    std::abort();
  }

  GeneratedKernel out;
  out.grid_dim = spec.grid_dim;
  out.block_dim = spec.block_dim;

  KernelBuilder kb(spec.name);
  EmitCtx ctx{kb, spec.grid_dim, spec.block_dim};
  // Uniform prelude: force every cached register into existence while
  // all threads are active (see the EmitCtx hazard note above).
  ctx.arena();
  ctx.tid();
  ctx.bid();
  ctx.gtid();
  ctx.lane();
  ctx.zero();
  ctx.one();

  u32 s_off = 0;
  u32 g_off = 0;
  for (size_t fi = 0; fi < spec.fragments.size(); ++fi) {
    const FragmentSpec& frag = spec.fragments[fi];
    const FragmentFootprint fp = footprint(frag.kind, spec.grid_dim, spec.block_dim);
    switch (frag.kind) {
      case FragmentKind::kGlobalAffine: emit_global_affine(ctx, s_off, g_off, out.oracle); break;
      case FragmentKind::kSharedXor: emit_shared_xor(ctx, frag, s_off, out.oracle); break;
      case FragmentKind::kReduceTree: emit_reduce_tree(ctx, s_off, out.oracle); break;
      case FragmentKind::kWarpReduce: emit_warp_reduce(ctx, s_off, out.oracle); break;
      case FragmentKind::kAtomicCounter: emit_atomic_counter(ctx, s_off, g_off, out.oracle); break;
      case FragmentKind::kLockedRmw: emit_locked_rmw(ctx, g_off, out.oracle); break;
      case FragmentKind::kFencePublish: emit_publish(ctx, s_off, g_off, true, out.oracle); break;
      case FragmentKind::kMissingFence: emit_publish(ctx, s_off, g_off, false, out.oracle); break;
      case FragmentKind::kDivergentHalves:
        emit_divergent_halves(ctx, s_off, g_off, out.oracle);
        break;
      case FragmentKind::kUniformIfBarrier: emit_uniform_if_barrier(ctx, s_off, out.oracle); break;
      case FragmentKind::kLoopNestAffine: emit_loop_nest_affine(ctx, frag, g_off, out.oracle); break;
      case FragmentKind::kBroadcastRead: emit_broadcast_read(ctx, s_off, out.oracle); break;
      case FragmentKind::kLaneMaskBarrier: emit_lane_mask_barrier(ctx, out.oracle); break;
      case FragmentKind::kSharedWaw: emit_shared_waw(ctx, s_off, out.oracle); break;
      case FragmentKind::kMissingBarrier: emit_missing_barrier(ctx, s_off, out.oracle); break;
      case FragmentKind::kCrossBlockWaw: emit_cross_block_waw(ctx, g_off, out.oracle); break;
      case FragmentKind::kRogueUnlocked: emit_rogue_unlocked(ctx, g_off, out.oracle); break;
      case FragmentKind::kLoopCarriedWaw: emit_loop_carried_waw(ctx, s_off, out.oracle); break;
      case FragmentKind::kWarpCollision: emit_warp_collision(ctx, s_off, out.oracle); break;
      case FragmentKind::kAtomicPlainMix: emit_atomic_plain_mix(ctx, g_off, out.oracle); break;
    }
    s_off += fp.shared_words;
    g_off = align_up(g_off + fp.arena_words, kArenaSlotStride);
    // Epoch hygiene: shared-RDU state never crosses a fragment boundary.
    if (fi + 1 < spec.fragments.size()) kb.barrier();

    const FragmentTraits& traits = fragment_traits(frag.kind);
    out.oracle.sw_expected = out.oracle.sw_expected || traits.sw_flags;
    out.oracle.grace_expected = out.oracle.grace_expected || traits.shared_store;
  }

  out.program = kb.build();
  mark_schedule_dependent(out.program, out.oracle);
  out.shared_mem_bytes = std::max<u32>(s_off, 1) * 4;
  out.arena_words = std::max<u32>(g_off, 1);
  return out;
}

kernels::PreparedKernel prepare_generated(sim::Gpu& gpu, const GeneratedKernel& kernel) {
  kernels::PreparedKernel prep;
  prep.program = kernel.program;
  prep.grid_dim = kernel.grid_dim;
  prep.block_dim = kernel.block_dim;
  prep.shared_mem_bytes = kernel.shared_mem_bytes;
  const Addr arena = gpu.allocator().alloc(kernel.arena_words * 4, "fuzz.arena");
  prep.params[0] = arena;
  return prep;
}

}  // namespace haccrg::fuzz
