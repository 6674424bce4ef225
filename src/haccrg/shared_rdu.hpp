// Shared-memory Race Detection Unit (Section IV-A). One per SM. In the
// default hardware placement the shadow entries are dedicated per-SM
// storage checked in parallel with the banks (no per-access cycle cost;
// the visible overhead is the barrier-time invalidation). In the
// global-memory placement (Figure 8) the entries live in device memory
// and are fetched through the L1 — the RDU then reports which shadow
// lines each warp access touches so the SM can model that traffic.
//
// The table is fully provisioned (one entry per granule) by default.
// `HaccrgConfig::shared_shadow_capacity` models a cost-reduced table:
// a direct-mapped slot array where conflicting granules evict each
// other. An eviction resets the displaced entry to its initial state —
// a potential false negative — and is therefore counted in
// "rd.evictions"; degradation is always counted, never silent.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "haccrg/id_regs.hpp"
#include "haccrg/options.hpp"
#include "haccrg/race.hpp"
#include "haccrg/shadow.hpp"

namespace haccrg::rd {

class SharedRdu {
 public:
  /// Races are recorded straight into `log`: the RDU runs in the serial
  /// event sweep of its trace::Detector.
  SharedRdu(u32 sm_id, u32 smem_bytes, const HaccrgConfig& config, const DetectPolicy& policy,
            RaceLog& log);

  /// Arm fault injection (null = off). The injector's shared-shadow
  /// stream for this RDU's SM id is rolled once per granule check, in
  /// that SM's check order, so placement is deterministic.
  void set_faults(fault::FaultInjector* faults) { faults_ = faults; }

  /// Address-sharded replay (trace/replay.hpp): execute only granule
  /// checks owned by shard `index` of `count` (see shard_of_addr).
  /// Skipped granules are untouched — no state read/write, no counters —
  /// so the owning shard reproduces the serial sequence exactly.
  void set_shard(u32 count, u32 index) {
    shard_count_ = count;
    shard_index_ = index;
  }

  /// Check one lane's shared-memory access and update the shadow state.
  void check(const AccessInfo& access);

  /// Shadow lines (offsets into an SM's software shadow, in lines of
  /// `line_bytes`) covering the granules of the given lane addresses.
  /// Only the kGlobalMemory placement fetches them, through the L1.
  static std::vector<u32> shadow_lines(const std::vector<u32>& lane_addrs, u32 granularity,
                                       u32 line_bytes);

  /// Barrier reached or block slot turned over: invalidate the shadow
  /// entries of the block's shared region.
  void reset_region(u32 base, u32 bytes);

  /// Cycles the invalidation of [base, base + bytes) costs: entries reset
  /// `banks` at a time, matching the parallel comparators. The sweep
  /// covers the address range whatever the table's capacity.
  static u32 reset_cycles(u32 base, u32 bytes, u32 granularity, u32 banks);

  /// Return every entry and counter to its construction state, keeping
  /// the allocations (a reused detector's next kernel).
  void reset();

  u64 checks() const { return checks_; }
  u64 races_found() const { return races_; }
  u64 evictions() const { return evictions_; }
  void export_stats(StatSet& stats) const;

  /// Direct shadow inspection for tests.
  SharedShadowEntry entry_at(u32 addr) const {
    const u32 g = addr / granularity_;
    if (capacity_ != 0) {
      const u32 slot = g % capacity_;
      return SharedShadowEntry::unpack(tags_[slot] == g ? shadow_[slot] : u16{0});
    }
    return SharedShadowEntry::unpack(shadow_[g]);
  }

 private:
  u32 sm_id_;
  u32 granularity_;
  u32 num_granules_;
  u32 capacity_;  // 0 = fully provisioned (shadow_[g] addressed directly)
  u32 shard_count_ = 1;
  u32 shard_index_ = 0;
  DetectPolicy policy_;
  RaceLog* log_;
  fault::FaultInjector* faults_ = nullptr;
  std::vector<u16> shadow_;  // one packed entry per granule (or per slot); 0 == initial
  std::vector<u32> tags_;    // granule owning each slot (finite mode only)
  u64 checks_ = 0;
  u64 races_ = 0;
  u64 resets_ = 0;
  u64 evictions_ = 0;
};

}  // namespace haccrg::rd
