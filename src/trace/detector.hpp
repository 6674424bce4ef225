// The HAccRG detector as one consumer of trace::Events: the per-SM ID
// registers and block-slot table, one SharedRdu per SM, the GlobalRdu
// and the race log they record into. Live runs and trace replay drive
// the same class:
//  - a live launch feeds it the events its SMs build, at the points the
//    trace writer receives them (staged issue-phase events in the
//    engine's SM-order flush sweep, each global event at commit, block
//    launches from the scheduler);
//  - replay feeds it a recorded trace, event by event.
// Either way it sees one sequence in one order (format.hpp's ordering
// contract), so live and replay keep the same race log by construction,
// recording cap included.
//
// Detection outcomes never feed back into timing, which is what lets the
// SM hand checking over to a consumer: GlobalRdu::check touches one
// shadow entry per checked granule whatever the outcome, and the shared
// shadow's software traffic and barrier-reset cost depend only on
// addresses (SharedRdu::shadow_lines, SharedRdu::reset_cycles).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "haccrg/global_rdu.hpp"
#include "haccrg/id_regs.hpp"
#include "haccrg/options.hpp"
#include "haccrg/race.hpp"
#include "haccrg/shared_rdu.hpp"
#include "mem/coalescer.hpp"
#include "mem/device_memory.hpp"
#include "trace/format.hpp"

namespace haccrg::trace {

/// What the detector knows about a block slot's current tenant (from its
/// kBlockLaunch).
struct BlockSlot {
  u32 block_id = 0;
  u32 thread_base = 0;
  u32 smem_base = 0;
};

class Detector {
 public:
  /// `machine` supplies the modelled geometry (its detector fields are
  /// not read). `config` selects the detectors and every knob, including
  /// the ones a trace header does not carry (shared_shadow_capacity,
  /// max_unique_races). A detector with neither space enabled still
  /// tracks block slots and ID registers. Sharded replay passes its
  /// shard: only granules the shard owns are checked (haccrg/sharding.hpp).
  Detector(const TraceHeader& machine, const rd::HaccrgConfig& config, u32 shard_count = 1,
           u32 shard_index = 0);

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  /// Arm the RDUs' shadow fault sites (null = off).
  void set_faults(fault::FaultInjector* faults);

  /// Start a kernel of `block_dim` threads per block: every register,
  /// slot, shadow entry and the race log return to their construction
  /// state (allocations kept). With global detection on, the shadow for
  /// `app_heap_bytes` of heap lives at `shadow_base` in `memory`, which
  /// must outlive the kernel; it is zeroed here.
  void begin_kernel(u32 block_dim, mem::DeviceMemory* memory, Addr shadow_base,
                    u32 app_heap_bytes);

  /// Consume one event between a kernel's begin and end records. Global
  /// checks append the address of every shadow entry they touch to
  /// `shadow_out` when given. False when the event carries impossible
  /// state (a damaged trace); error() says why.
  bool consume(const Event& event, std::vector<Addr>* shadow_out = nullptr);

  /// Apply a bloom_flip or racereg_drop fault rolled on SM `sm` with
  /// draw `pick`. The SM rolls once per issued instruction; the caller
  /// applies the effect in its place among that SM's staged events.
  void apply_id_fault(u32 sm, fault::FaultSite site, u64 pick);

  const BlockSlot& slot(u32 sm, u32 block_slot) const { return sms_[sm].slots[block_slot]; }
  rd::RaceLog& log() { return log_; }
  const rd::RaceLog& log() const { return log_; }
  /// Granule checks run since begin_kernel (shard-owned granules only,
  /// so shard counts sum to the serial count).
  u64 shared_checks() const { return shared_checks_; }
  u64 global_checks() const { return global_checks_; }
  const std::string& error() const { return error_; }

  /// The live run's detector counters: shared_rdu.*, rd.evictions,
  /// ids.*, global_rdu.*.
  void export_stats(StatSet& stats) const;

 private:
  struct SmState {
    rd::SmIdRegisters ids;
    std::unique_ptr<rd::SharedRdu> shared_rdu;
    std::vector<BlockSlot> slots;
  };

  bool fail(const char* what);
  /// Bounds-check the identifiers an event carries before they index
  /// detector state (a bit-flipped trace must fail, not corrupt).
  bool check_context(const Event& event, bool need_slot);
  u32 thread_slot(const BlockSlot& slot, const Event& event, u8 lane) const {
    return slot.thread_base + event.warp_in_block * machine_.warp_size + lane;
  }
  /// The access fields an event's lanes share; each check adds the
  /// lane's address and thread slot, a global one also its lock set and
  /// L1 facts.
  rd::AccessInfo event_access(const Event& event, bool is_write) const;
  /// Load the event's lanes into lanes_ (the coalescer's input).
  void load_lanes(const Event& event);
  /// Record the intra-warp WAWs of a store event (Sec. III-A).
  void record_waw(const BlockSlot& slot, const Event& event, rd::MemSpace space);
  bool on_shared(const Event& event);
  bool on_global(const Event& event, std::vector<Addr>& shadow_out);

  TraceHeader machine_;
  rd::HaccrgConfig config_;
  rd::DetectPolicy policy_;
  u32 shard_count_;
  u32 shard_index_;
  fault::FaultInjector* faults_ = nullptr;
  u32 block_dim_ = 0;
  rd::RaceLog log_;
  std::vector<SmState> sms_;
  mem::DeviceMemory* memory_ = nullptr;  ///< holds the global shadow
  std::unique_ptr<rd::GlobalRdu> global_rdu_;
  u64 shared_checks_ = 0;
  u64 global_checks_ = 0;
  std::string error_;

  // Per-event scratch, reused so the steady-state event loop never
  // allocates.
  std::vector<mem::LaneAccess> lanes_;
  mem::WawBuffer waw_;
  mem::CoalesceBuffer coalesce_;
  std::vector<Addr> shadow_scratch_;
};

}  // namespace haccrg::trace
