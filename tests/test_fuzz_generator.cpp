// Fuzz generator invariants: fragment traits pinned against the
// builder's actual allocation, spec serialization round-trips, seeded
// generation is deterministic, every generated program leaves room for
// both instrumentation schemes, the oracle agrees with the traits
// table, and the shrinker only ever returns valid specs that still
// satisfy the predicate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/spec.hpp"
#include "swrace/grace.hpp"
#include "swrace/sw_haccrg.hpp"

namespace haccrg::fuzz {
namespace {

KernelSpec single(FragmentKind kind, u32 grid = 4, u32 block = 128, u32 a0 = 7, u32 a1 = 3) {
  KernelSpec spec;
  spec.name = std::string("t-") + std::string(fragment_kind_name(kind));
  spec.grid_dim = grid;
  spec.block_dim = block;
  FragmentSpec frag;
  frag.kind = kind;
  frag.arg = {a0, a1};
  spec.fragments.push_back(frag);
  return spec;
}

std::vector<FragmentKind> all_kinds() {
  std::vector<FragmentKind> kinds;
  for (u32 i = 0; i < kNumFragmentKinds; ++i) kinds.push_back(static_cast<FragmentKind>(i));
  return kinds;
}

// --- Traits pinned against the builder ---------------------------------------

// The packing budget assumes every emitter stays within its declared
// register/predicate cost. Measure the real cost of each kind as the
// delta over a minimal one-fragment baseline and require the traits to
// dominate it — a drifting emitter fails here, not as a register-file
// overflow under instrumentation.
TEST(FuzzTraits, DominateActualBuilderAllocation) {
  // lane_mask_barrier allocates the least on top of the shared prologue.
  const GeneratedKernel base = generate(single(FragmentKind::kLaneMaskBarrier));
  for (FragmentKind kind : all_kinds()) {
    KernelSpec spec = single(kind);
    // Worst-case args: loop trips and masks saturate at small moduli,
    // so any byte exercises the max register shape.
    spec.fragments[0].arg = {0xff, 0xff};
    const GeneratedKernel one = generate(spec);
    const FragmentTraits& t = fragment_traits(kind);
    // The prologue (arena/tid/bid/gtid/lane/zero/one) is shared across
    // fragments; 7 registers + the baseline fragment's 2 bound it.
    EXPECT_LE(one.program.regs_used(), t.regs + 9)
        << fragment_kind_name(kind) << " exceeds its register trait";
    EXPECT_LE(one.program.preds_used(), t.preds + 1)
        << fragment_kind_name(kind) << " exceeds its predicate trait";
    (void)base;
  }
}

TEST(FuzzTraits, EveryProgramFitsBothInstrumentationSchemes) {
  for (FragmentKind kind : all_kinds()) {
    const GeneratedKernel one = generate(single(kind));
    EXPECT_TRUE(swrace::sw_haccrg_fits(one.program)) << fragment_kind_name(kind);
    EXPECT_TRUE(swrace::grace_fits(one.program)) << fragment_kind_name(kind);
  }
  // Seeded multi-fragment kernels respect the same headroom: the spec
  // budget (48 regs / 10 preds) plus the prologue stays under the
  // register file minus the larger scratch claim.
  for (u64 seed = 1; seed <= 64; ++seed) {
    const GeneratedKernel kernel = generate(spec_from_seed(seed));
    EXPECT_TRUE(swrace::sw_haccrg_fits(kernel.program)) << "seed " << seed;
    EXPECT_TRUE(swrace::grace_fits(kernel.program)) << "seed " << seed;
  }
}

TEST(FuzzTraits, OracleAgreesWithRacyFlag) {
  for (FragmentKind kind : all_kinds()) {
    const GeneratedKernel one = generate(single(kind));
    const FragmentTraits& t = fragment_traits(kind);
    EXPECT_EQ(!one.oracle.pairs.empty(), t.racy) << fragment_kind_name(kind);
    EXPECT_EQ(one.oracle.sw_expected, t.sw_flags) << fragment_kind_name(kind);
    EXPECT_EQ(one.oracle.grace_expected, t.shared_store) << fragment_kind_name(kind);
    for (const OraclePair& pair : one.oracle.pairs) {
      EXPECT_FALSE(pair.pcs.empty());
      EXPECT_EQ(pair.hw_visible, pair.cls != OracleClass::kAtomicBlind);
      for (u32 pc : pair.pcs) EXPECT_LT(pc, one.program.size());
    }
  }
}

TEST(FuzzTraits, SharedFootprintFitsTheScratchpad) {
  // Worst case: six copies of the hungriest shared fragment at block 128
  // must fit the 16 KB per-SM scratchpad.
  u32 worst = 0;
  for (FragmentKind kind : all_kinds())
    worst = std::max(worst, fragment_traits(kind).shared_words);
  EXPECT_LE(kMaxFragmentsPerKernel * worst * 4, 16u * 1024u);
}

// --- Spec serialization ------------------------------------------------------

TEST(FuzzSpec, SerializeParseRoundTrips) {
  for (u64 seed = 1; seed <= 32; ++seed) {
    const KernelSpec spec = spec_from_seed(seed);
    KernelSpec back;
    ASSERT_TRUE(KernelSpec::parse(spec.serialize(), back).ok()) << spec.serialize();
    EXPECT_EQ(back.serialize(), spec.serialize());
  }
}

TEST(FuzzSpec, ParseRejectsMalformedInput) {
  const char* cases[] = {
      "",                                                        // no header
      "haccrg-fuzz-spec v2\nend\n",                              // wrong version
      "haccrg-fuzz-spec v1\n",                                   // missing end
      "haccrg-fuzz-spec v1\nend\n",                              // no fragments
      "haccrg-fuzz-spec v1\nfragment nope 0 0\nend\n",           // unknown kind
      "haccrg-fuzz-spec v1\nfragment shared_waw 0\nend\n",       // short fragment
      "haccrg-fuzz-spec v1\ngrid 3\nfragment shared_waw 0 0\nend\n",   // bad geometry
      "haccrg-fuzz-spec v1\nblock 13\nfragment shared_waw 0 0\nend\n", // bad geometry
      "haccrg-fuzz-spec v1\nbogus 1\nend\n",                     // unknown directive
  };
  for (const char* text : cases) {
    KernelSpec out;
    out.name = "sentinel";
    EXPECT_FALSE(KernelSpec::parse(text, out).ok()) << text;
    EXPECT_EQ(out.name, "sentinel") << "out must be untouched on error";
  }
}

TEST(FuzzSpec, ValidateEnforcesPackingBudget) {
  KernelSpec spec;
  // fence_publish costs 14 regs; four of them blow the 48-reg budget.
  for (int i = 0; i < 4; ++i) {
    FragmentSpec frag;
    frag.kind = FragmentKind::kFencePublish;
    spec.fragments.push_back(frag);
  }
  EXPECT_FALSE(spec.validate().ok());
  spec.fragments.resize(3);
  EXPECT_TRUE(spec.validate().ok());
}

TEST(FuzzSpec, SeededSpecsAreDeterministicAndValid) {
  for (u64 seed = 1; seed <= 128; ++seed) {
    const KernelSpec a = spec_from_seed(seed);
    const KernelSpec b = spec_from_seed(seed);
    EXPECT_EQ(a.serialize(), b.serialize());
    EXPECT_TRUE(a.validate().ok()) << a.serialize();
  }
}

TEST(FuzzSpec, GenerationIsDeterministic) {
  for (u64 seed = 1; seed <= 16; ++seed) {
    const GeneratedKernel a = generate(spec_from_seed(seed));
    const GeneratedKernel b = generate(spec_from_seed(seed));
    EXPECT_EQ(a.program.disassemble(), b.program.disassemble());
    EXPECT_EQ(a.shared_mem_bytes, b.shared_mem_bytes);
    EXPECT_EQ(a.arena_words, b.arena_words);
    ASSERT_EQ(a.oracle.pairs.size(), b.oracle.pairs.size());
    for (size_t i = 0; i < a.oracle.pairs.size(); ++i)
      EXPECT_EQ(a.oracle.pairs[i].pcs, b.oracle.pairs[i].pcs);
  }
}

TEST(FuzzSpec, ConfigRestrictsTheLibrary) {
  FuzzConfig safe_only;
  safe_only.racy_fragments = false;
  FuzzConfig racy_only;
  racy_only.safe_fragments = false;
  for (u64 seed = 1; seed <= 32; ++seed) {
    for (const FragmentSpec& f : spec_from_seed(seed, safe_only).fragments)
      EXPECT_FALSE(fragment_traits(f.kind).racy);
    for (const FragmentSpec& f : spec_from_seed(seed, racy_only).fragments)
      EXPECT_TRUE(fragment_traits(f.kind).racy);
  }
}

// --- Oracle helpers ----------------------------------------------------------

TEST(FuzzOracle, MechanismMapping) {
  EXPECT_TRUE(mechanism_matches(OracleClass::kSharedEpoch, rd::RaceMechanism::kBarrier));
  EXPECT_TRUE(mechanism_matches(OracleClass::kGlobalEpoch, rd::RaceMechanism::kBarrier));
  EXPECT_TRUE(mechanism_matches(OracleClass::kFence, rd::RaceMechanism::kFence));
  EXPECT_TRUE(mechanism_matches(OracleClass::kFence, rd::RaceMechanism::kL1Stale));
  EXPECT_TRUE(mechanism_matches(OracleClass::kLockset, rd::RaceMechanism::kLockset));
  EXPECT_TRUE(mechanism_matches(OracleClass::kIntraWarpWaw, rd::RaceMechanism::kIntraWarpWaw));
  EXPECT_FALSE(mechanism_matches(OracleClass::kSharedEpoch, rd::RaceMechanism::kLockset));
  EXPECT_FALSE(mechanism_matches(OracleClass::kAtomicBlind, rd::RaceMechanism::kBarrier));
  EXPECT_FALSE(mechanism_matches(OracleClass::kAtomicBlind, rd::RaceMechanism::kFence));
}

TEST(FuzzOracle, CompletenessFlagsAnEmptyLog) {
  const GeneratedKernel racy = generate(single(FragmentKind::kSharedWaw));
  ASSERT_TRUE(racy.oracle.any_hw_visible());
  rd::RaceLog empty;
  EXPECT_FALSE(racy.oracle.check_hw_complete(empty).empty());
  EXPECT_TRUE(racy.oracle.check_hw_precise(empty).empty());
}

TEST(FuzzOracle, PrecisionFlagsAForeignRecord) {
  const GeneratedKernel safe = generate(single(FragmentKind::kGlobalAffine));
  rd::RaceLog log;
  rd::RaceRecord record;
  record.space = rd::MemSpace::kGlobal;
  record.mechanism = rd::RaceMechanism::kBarrier;
  record.pc = 2;
  log.record(record);
  EXPECT_FALSE(safe.oracle.check_hw_precise(log).empty());
}

TEST(FuzzOracle, LaterFenceMakesAnUnfencedPublishScheduleDependent) {
  // A fence after missing_fence (here locked_rmw's release fence) may
  // advance the producer's fence ID before the last block reads, as in
  // tests/corpus/fuzz-1542.spec: completeness must not demand a report,
  // and precision must still accept one.
  KernelSpec spec = single(FragmentKind::kMissingFence, 2, 64, 0, 0);
  const GeneratedKernel alone = generate(spec);
  ASSERT_EQ(alone.oracle.pairs.size(), 1u);
  EXPECT_FALSE(alone.oracle.pairs[0].schedule_dependent);

  FragmentSpec lock;
  lock.kind = FragmentKind::kLockedRmw;
  spec.fragments.push_back(lock);
  const GeneratedKernel fenced_after = generate(spec);
  ASSERT_EQ(fenced_after.oracle.pairs.size(), 1u);
  const OraclePair& pair = fenced_after.oracle.pairs[0];
  EXPECT_EQ(pair.cls, OracleClass::kFence);
  EXPECT_TRUE(pair.schedule_dependent);
  EXPECT_TRUE(pair.hw_visible);

  rd::RaceLog log;
  EXPECT_TRUE(fenced_after.oracle.check_hw_complete(log).empty());
  rd::RaceRecord record;
  record.space = rd::MemSpace::kGlobal;
  record.mechanism = rd::RaceMechanism::kFence;
  record.pc = pair.pcs.back();
  log.record(record);
  EXPECT_TRUE(fenced_after.oracle.check_hw_precise(log).empty());
}

// --- Shrinking ---------------------------------------------------------------

TEST(FuzzShrink, ReducesToTheSmallestSpecSatisfyingThePredicate) {
  // Start big; the property is "contains a shared_waw fragment".
  KernelSpec spec;
  spec.grid_dim = 4;
  spec.block_dim = 128;
  for (FragmentKind kind : {FragmentKind::kReduceTree, FragmentKind::kSharedWaw,
                            FragmentKind::kGlobalAffine, FragmentKind::kBroadcastRead}) {
    FragmentSpec frag;
    frag.kind = kind;
    frag.arg = {9, 9};
    spec.fragments.push_back(frag);
  }
  const SpecPredicate has_waw = [](const KernelSpec& s) {
    for (const FragmentSpec& f : s.fragments)
      if (f.kind == FragmentKind::kSharedWaw) return true;
    return false;
  };
  const ShrinkResult result = shrink(spec, has_waw);
  EXPECT_TRUE(has_waw(result.spec));
  EXPECT_TRUE(result.spec.validate().ok());
  EXPECT_EQ(result.spec.fragments.size(), 1u);
  EXPECT_EQ(result.spec.grid_dim, 2u);
  EXPECT_EQ(result.spec.block_dim, 64u);
  EXPECT_EQ(result.spec.fragments[0].arg[0], 0u);
  EXPECT_EQ(result.spec.fragments[0].arg[1], 0u);
  EXPECT_GE(result.steps, 3u);
  EXPECT_GE(result.evaluations, result.steps);
}

TEST(FuzzShrink, FixpointOnAnAlreadyMinimalSpec) {
  const KernelSpec minimal = single(FragmentKind::kSharedWaw, 2, 64, 0, 0);
  const ShrinkResult result = shrink(minimal, [](const KernelSpec&) { return true; });
  EXPECT_EQ(result.spec.serialize(), minimal.serialize());
  EXPECT_EQ(result.steps, 0u);
}

}  // namespace
}  // namespace haccrg::fuzz
