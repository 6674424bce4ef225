// Streaming multiprocessor: warp contexts, a round-robin scheduler, the
// functional executor for the mini-PTX ISA, banked shared memory, a
// non-coherent L1, and the HAccRG timing hooks (software shared-shadow
// traffic, barrier-time shadow invalidation, global shadow packets).
//
// Functional/timing split: an instruction's architectural effects are
// applied when it issues; the memory system then moves data-less packets
// whose completions wake the warp.
//
// Detection: the SM checks nothing itself. When detection or tracing is
// on it builds a trace::Event per memory, sync and block event (those
// the detector would only bounds-check — barrier arrivals, fence issues,
// unchecked shared accesses — only for the trace writer), and the run's
// trace::Detector and TraceWriter consume them serially, in file order:
// staged issue-phase events in flush_events(), global events in
// commit_epoch(), block launches in try_launch_block(). Detection
// outcomes never feed back into timing, so the SM only needs addresses.
//
// Parallel epochs: cycle() may run concurrently with other SMs' cycles,
// so it only touches SM-local state plus thread-confined staging (the
// per-SM interconnect queue, staged events, deferred_). Every effect
// that crosses the SM boundary — detector input, device-memory
// functional ops, packet injection — is replayed by flush_events() and
// commit_epoch(), which the engine calls serially in SM-id order at the
// end of the cycle. That order matches the sequential engine's SM loop,
// so results are bit-identical for any thread count. Deferring the
// functional effects to the same cycle's barrier is invisible to the
// program: an SM issues at most one instruction per cycle, so nothing
// can read a deferred register or memory value before it lands.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "arch/config.hpp"
#include "fault/fault.hpp"
#include "haccrg/options.hpp"
#include "isa/program.hpp"
#include "mem/cache.hpp"
#include "mem/coalescer.hpp"
#include "mem/device_memory.hpp"
#include "mem/interconnect.hpp"
#include "mem/packets.hpp"
#include "mem/shared_memory.hpp"
#include "sim/launch.hpp"
#include "sim/warp.hpp"
#include "trace/detector.hpp"
#include "trace/writer.hpp"

namespace haccrg::sim {

/// Per-SM view of the shared run infrastructure, owned by Gpu.
struct SmEnv {
  const arch::GpuConfig* gpu = nullptr;
  const rd::HaccrgConfig* haccrg = nullptr;
  mem::DeviceMemory* memory = nullptr;
  mem::Interconnect* icnt = nullptr;
  /// The launch's race detector; null unless detection is on. It
  /// consumes the events this SM builds, in the serial phases only.
  trace::Detector* detector = nullptr;
  const isa::Program* program = nullptr;
  const LaunchConfig* launch = nullptr;
  Addr sw_shared_shadow_base = 0;  ///< device base of this SM's sw shadow
  /// Optional sink recording every coalesced global transaction address
  /// (used by the virtual-memory TLB study).
  std::vector<Addr>* global_trace = nullptr;
  /// Optional access-trace recorder (SimConfig::trace_path). It receives
  /// the same events as the detector, at the same points.
  trace::TraceWriter* trace = nullptr;
  /// Optional fault injector (SimConfig::faults); null = no faults. The
  /// SM only draws from its own per-SM streams during cycle(), keeping
  /// the parallel phase thread-confined.
  fault::FaultInjector* faults = nullptr;
};

class Sm {
 public:
  Sm(u32 sm_id, const SmEnv& env);

  /// Try to start `block_id`; returns false if no capacity. Runs in the
  /// serial scheduler context, so its event is consumed directly.
  bool try_launch_block(u32 block_id, Cycle now);

  /// Advance one core cycle. Safe to call concurrently with other SMs'
  /// cycle()/deliver(); cross-SM effects are staged until commit_epoch.
  void cycle(Cycle now);

  /// End-of-cycle barrier (serial, engine calls SMs in id order): replay
  /// deferred global-memory work, whose events the detector checks here.
  /// This SM's staged packets are injected by the engine's interconnect
  /// sweep that follows. Most SM-cycles defer nothing.
  void commit_epoch() {
    if (deferred_count_ != 0) commit_deferred();
  }

  /// Hand this SM's staged issue-phase events to the detector and trace
  /// writer, with the cycle's ID-register faults in their place. Called
  /// serially in SM-id order between the parallel SM phase and the
  /// commit loop, so the order matches the engine's phase order.
  void flush_events() {
    if (staged_count_ != 0 || !staged_faults_.empty()) flush_staged();
  }

  bool busy() const { return resident_blocks_ > 0; }
  u32 blocks_completed() const { return blocks_completed_; }
  /// A detector or trace writer consumes this SM's events.
  bool recording() const { return recording_; }

  /// Deliver a memory response routed back by the GPU.
  void deliver(const mem::Response& rsp, Cycle now);

  // Statistics the GPU aggregates at the end of the run.
  void export_stats(StatSet& stats) const;
  u64 warp_instructions() const { return warp_instructions_; }
  u64 lane_instructions() const { return lane_instructions_; }
  u64 shared_reads() const { return shared_reads_; }
  u64 shared_writes() const { return shared_writes_; }
  u64 shared_atomics() const { return shared_atomics_; }
  u64 global_reads() const { return global_reads_; }
  u64 global_writes() const { return global_writes_; }
  u64 global_atomics() const { return global_atomics_; }
  u64 barriers() const { return barriers_; }
  u64 fences() const { return fences_; }

  const mem::Cache& l1() const { return l1_; }

  /// One line per live warp ("sm0.w1 pc=33 state=WaitMem pend=1 stores=0"),
  /// appended to `out`. The watchdog calls this so a hung kernel reports
  /// where every warp was stuck instead of just "exceeded max cycles".
  void append_hang_summary(std::string& out) const;

 private:
  // --- Scheduling -----------------------------------------------------------
  WarpContext* pick_ready_warp(Cycle now);
  void execute(WarpContext& warp, Cycle now);

  // --- Execution helpers ------------------------------------------------------
  u32 operand_value(const WarpContext& warp, const isa::Instr& ins, u32 lane) const;
  u32 special_value(const WarpContext& warp, isa::SpecialReg which, u32 lane) const;
  void exec_alu(WarpContext& warp, const isa::Instr& ins);
  void exec_shared_mem(WarpContext& warp, const isa::Instr& ins, Cycle now);
  void exec_global_mem(WarpContext& warp, const isa::Instr& ins, Cycle now);
  void exec_barrier(WarpContext& warp, Cycle now);
  void exec_fence(WarpContext& warp, Cycle now);
  void exec_exit(WarpContext& warp, Cycle now);

  u32 apply_atomic(isa::AtomicOp op, u32 old, u32 operand, u32 compare) const;

  /// True when the opt-in static filter suppresses the RDU check at `pc`.
  bool static_filtered(u32 pc) const;

  /// Roll the ID-register fault sites once per issued instruction
  /// (Bloom signature flips, fence/sync ID drops) and stage the effects
  /// for the detector behind the events already staged this cycle.
  void inject_id_faults();

  /// Stage a packet on this SM's interconnect queue (sent at commit).
  void send_packet(mem::Packet pkt);

  /// Software-placed shared shadow: model the L1 fetch of each shadow
  /// line; returns extra issue-port cycles and may add pending responses.
  u32 sw_shadow_traffic(WarpContext& warp, const std::vector<u32>& lane_addrs);

  void block_finished(u32 block_slot, Cycle now);

  /// A global-memory instruction whose shared-state effects (device
  /// memory, global trace, detector) wait for the epoch barrier. The
  /// SM-local side — coalescing, L1 state, wait/wakeup bookkeeping, and
  /// the application packets — already happened at issue; only what the
  /// commit needs is captured here.
  struct DeferredGlobalOp {
    u32 warp_slot = 0;
    bool is_store = false;
    bool is_atomic = false;
    u8 width = 4;
    u8 dst = 0;
    isa::AtomicOp atomic_op = isa::AtomicOp::kAdd;
    struct Lane {
      u32 lane;
      Addr addr;
      u32 operand;  ///< store value or atomic operand (captured at issue)
      u32 compare;  ///< atomic CAS comparand
    };
    std::vector<Lane> lanes;
    std::vector<Addr> trace_addrs;  ///< coalesced segments, issue order
    trace::Event event;             ///< consumed at commit when recording
    bool has_event = false;
  };
  void commit(DeferredGlobalOp& op);
  void commit_deferred();
  void flush_staged();

  /// Next pooled deferred-op slot: inner vectors are cleared, not freed,
  /// so steady-state global-memory issue performs no heap allocation.
  DeferredGlobalOp& acquire_deferred();

  /// Single mutation point for warp scheduling state; keeps the ready
  /// count the scheduler's early-out relies on exact.
  void set_state(WarpContext& warp, WarpState s) {
    if (warp.state == WarpState::kReady) --num_ready_;
    if (s == WarpState::kReady) ++num_ready_;
    warp.state = s;
  }

  /// Next pooled staged-event slot, reset to a `kind` event of this SM
  /// at `now` (call only when recording). Pooled like deferred_: each
  /// slot keeps its lane vector's capacity.
  trace::Event& stage_event(trace::EventKind kind, Cycle now);

  /// Hand one event to the detector and the trace writer.
  void emit(const trace::Event& event);

  u32 sm_id_;
  SmEnv env_;
  std::vector<WarpContext> warps_;
  std::vector<BlockContext> blocks_;
  mem::SharedMemory smem_;
  mem::Cache l1_;
  bool recording_ = false;  ///< env_.detector or env_.trace set

  u32 resident_blocks_ = 0;
  u32 blocks_completed_ = 0;
  u32 rr_cursor_ = 0;
  u32 num_ready_ = 0;  ///< warps in WarpState::kReady (scheduler early-out)
  Cycle issue_free_at_ = 0;
  u64 token_counter_ = 0;

  // Thread-confined epoch staging, replayed by flush_events() and
  // commit_epoch(). Both arenas are slot-pooled: the serial phase resets
  // the count, capacity (including inner vectors) persists across cycles.
  std::vector<DeferredGlobalOp> deferred_;
  u32 deferred_count_ = 0;
  std::vector<trace::Event> staged_;  ///< issue-phase events; the first staged_count_ are live
  u32 staged_count_ = 0;
  /// An ID-register fault rolled this cycle, applied after the first
  /// `at` staged events: a fence commit staged by deliver() precedes the
  /// roll, and dropping a fence ID does not commute with bumping it.
  struct StagedIdFault {
    u32 at = 0;
    fault::FaultSite site = fault::FaultSite::kBloomFlip;
    u64 pick = 0;
  };
  std::vector<StagedIdFault> staged_faults_;

  // Scratch buffers reused across instructions to avoid per-issue churn.
  std::vector<mem::LaneAccess> scratch_accesses_;
  std::vector<Addr> scratch_shadow_;
  std::vector<u32> scratch_smem_addrs_;  ///< shared-mem lane addresses
  mem::CoalesceBuffer coalesce_buf_;

  // Counters.
  u64 warp_instructions_ = 0;
  u64 lane_instructions_ = 0;
  u64 shared_reads_ = 0;
  u64 shared_writes_ = 0;
  u64 shared_atomics_ = 0;
  u64 global_reads_ = 0;
  u64 global_writes_ = 0;
  u64 global_atomics_ = 0;
  u64 barriers_ = 0;
  u64 fences_ = 0;
  u64 bank_conflict_cycles_ = 0;
  u64 barrier_reset_cycles_ = 0;
  u64 static_filtered_ = 0;  ///< lane accesses whose RDU check was filtered
  u64 static_filtered_shared_ = 0;  ///< the shared-space share of the above
  u64 static_filtered_global_ = 0;  ///< the global-space share
};

}  // namespace haccrg::sim
