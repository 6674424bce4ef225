// Ground-truth race oracle for generated kernels. The generator knows,
// by construction, exactly which program counters can conflict and
// through which HAccRG mechanism, so each emitted fragment contributes
// OraclePairs: the pc set involved, the memory space, the expected race
// class, and whether the hardware RDUs can see it at all (atomics are
// treated as synchronization by every detector in the repo — a
// documented blind spot the oracle records rather than hides). The
// campaign asserts both directions against a run's RaceLog:
// completeness (every hw-visible pair that no schedule can hide produces
// a matching record) and precision (no record lands outside the oracle's
// racy pc set).
#pragma once

#include <string>
#include <vector>

#include "haccrg/race.hpp"

namespace haccrg::fuzz {

/// Expected race class of an oracle pair, mapped onto the detector
/// mechanisms that may legally report it.
enum class OracleClass : u8 {
  kSharedEpoch = 0,  ///< same-epoch shared conflict (RaceMechanism::kBarrier)
  kGlobalEpoch,      ///< cross-block global conflict (kBarrier)
  kFence,            ///< unfenced cross-block publish (kFence or kL1Stale)
  kLockset,          ///< lock-protection violation (kLockset)
  kIntraWarpWaw,     ///< same-instruction lane collision (kIntraWarpWaw)
  kAtomicBlind,      ///< real race through atomics: invisible to all detectors
};

inline constexpr u32 kNumOracleClasses = 6;

std::string_view oracle_class_name(OracleClass cls);

/// One by-construction conflicting access pair (or clique: locksets and
/// rogue stores involve up to three pcs).
struct OraclePair {
  OracleClass cls = OracleClass::kSharedEpoch;
  rd::MemSpace space = rd::MemSpace::kShared;
  std::vector<u32> pcs;     ///< every pc a matching record may carry
  bool hw_visible = true;   ///< false only for kAtomicBlind
  /// The hardware reports the pair only in some schedules: completeness
  /// does not require a record of it, precision still accepts one. Set
  /// for an unfenced publish followed by a later fence (see generate()).
  bool schedule_dependent = false;
  std::string note;         ///< fragment provenance for failure messages
};

/// Does `mechanism` legally witness `cls`?
bool mechanism_matches(OracleClass cls, rd::RaceMechanism mechanism);

struct RaceOracle {
  std::vector<OraclePair> pairs;
  /// The sw-HAccRG per-thread tag scheme reports >= 1 race (true for
  /// every sw-visible racy fragment and for the pinned over-report
  /// patterns from test_hw_sw_differential).
  bool sw_expected = false;
  /// >= 1 plain shared store executes, so the GRace-add emulator's
  /// own-bit artifact reports >= 1 race.
  bool grace_expected = false;

  bool any_hw_visible() const;

  /// Union of pcs over hw-visible pairs — the only pcs a hardware race
  /// record may carry.
  std::vector<u32> hw_racy_pcs() const;

  /// Union of pcs over all pairs (static soundness: none of these may
  /// be classified provably safe, except the kAtomicBlind pcs, which
  /// the static verifier excludes by the same atomics-as-sync rule).
  std::vector<u32> racy_pcs() const;

  /// Completeness: every hw-visible, schedule-independent pair has >= 1
  /// record in `log` with matching space, a legal mechanism, and a pc
  /// from the pair. Returns violation messages (empty == pass).
  std::vector<std::string> check_hw_complete(const rd::RaceLog& log) const;

  /// Precision: every record in `log` is explained by some hw-visible
  /// pair (pc + space + mechanism). Returns violation messages.
  std::vector<std::string> check_hw_precise(const rd::RaceLog& log) const;
};

}  // namespace haccrg::fuzz
