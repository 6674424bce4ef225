// Race records and the deduplicating race log.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace haccrg::rd {

/// Dependence flavor of the race (Figure 3).
enum class RaceType : u8 { kWaw, kWar, kRaw };

/// Which detection mechanism fired.
enum class RaceMechanism : u8 {
  kBarrier,       ///< happens-before between barriers (Section III-A)
  kLockset,       ///< critical-section lockset (Section III-B)
  kFence,         ///< missing memory fence (Section III-C)
  kL1Stale,       ///< cross-SM RAW observed through a stale L1 hit (Sec. IV-B)
  kIntraWarpWaw,  ///< same-warp same-granule WAW caught before issue
};

/// Memory space the racy granule lives in.
enum class MemSpace : u8 { kShared, kGlobal };

std::string_view race_type_name(RaceType t);
std::string_view race_mechanism_name(RaceMechanism m);

/// One detected race.
struct RaceRecord {
  RaceType type = RaceType::kWaw;
  RaceMechanism mechanism = RaceMechanism::kBarrier;
  MemSpace space = MemSpace::kGlobal;
  Addr granule_addr = 0;  ///< granule base address (SM-local for shared)
  u32 sm_id = 0;
  u16 first_thread = 0;   ///< thread slot recorded in the shadow entry
  u16 second_thread = 0;  ///< thread slot of the access that triggered it
  u32 pc = 0;             ///< pc of the triggering access
  Cycle cycle = 0;

  std::string describe() const;
};

/// Collects races, deduplicating by (space, granule, type, mechanism, pc).
///
/// Dedup lookups sit on the detection hot path (every dynamic race of a
/// buggy or injected kernel lands here), so the seen-set is a flat
/// open-addressing hash table rather than a node-based map: one pow2
/// array of 16-byte slots, linear probing, no per-insert allocation.
class RaceLog {
 public:
  explicit RaceLog(u32 max_recorded = 4096) : max_recorded_(max_recorded) {
    seen_.resize(kInitialSlots);
  }

  /// Saturation bound on the dedup table itself: once `max_unique`
  /// distinct keys are tracked, further *new* keys are dropped (counted
  /// in `saturated()`) instead of growing the table without bound.
  /// 0 = unbounded. Existing keys still deduplicate normally.
  void set_max_unique(u32 max_unique) { max_unique_ = max_unique; }

  /// Record a race; returns true if it was new (not a duplicate).
  bool record(const RaceRecord& race);

  u64 total() const { return total_; }
  /// New race keys dropped because the dedup table was saturated — each
  /// is a distinct race location the log could not account for, so it
  /// feeds rd.coverage_lost.
  u64 saturated() const { return saturated_; }
  u64 unique() const { return static_cast<u64>(races_.size()); }
  u64 count(RaceMechanism m) const;
  u64 count(RaceType t) const;
  u64 count(MemSpace s) const;
  const std::vector<RaceRecord>& races() const { return races_; }
  bool empty() const { return races_.empty(); }
  void clear();

  std::string summary() const;

 private:
  /// One dedup slot. `count` doubles as the occupancy flag (0 == empty;
  /// a recorded key always has count >= 1), so the table needs no
  /// separate metadata array and clear() is a plain fill.
  struct Slot {
    u64 key_lo = 0;  ///< granule | pc << 32
    u32 key_hi = 0;  ///< space | type << 8 | mechanism << 16
    u32 count = 0;
  };
  static constexpr u32 kInitialSlots = 1024;  // pow2; grown at 70% load

  void grow();

  u32 max_recorded_;
  u32 max_unique_ = 0;  ///< 0 = unbounded
  u64 total_ = 0;
  u64 saturated_ = 0;
  u64 occupied_ = 0;  ///< live slots in seen_ (load-factor bookkeeping)
  std::vector<Slot> seen_;
  std::vector<RaceRecord> races_;
};

/// A racy location: (space, granule address).
using RaceLocation = std::pair<MemSpace, Addr>;

/// The set of racy locations in `log`, the key for comparing which
/// locations two runs report racy. The SM is left out on purpose:
/// RaceLog dedups without it, so a shared race's sm_id names whichever
/// SM logged the race first, which is a timing artifact, not a location.
std::set<RaceLocation> race_locations(const RaceLog& log);

}  // namespace haccrg::rd
