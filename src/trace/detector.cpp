#include "trace/detector.hpp"

#include <algorithm>

#include "haccrg/sharding.hpp"

namespace haccrg::trace {

Detector::Detector(const TraceHeader& machine, const rd::HaccrgConfig& config, u32 shard_count,
                   u32 shard_index)
    : machine_(machine), config_(config), shard_count_(shard_count), shard_index_(shard_index),
      log_(config.max_recorded_races) {
  policy_.warp_size = machine.warp_size;
  policy_.warp_regrouping = config.warp_regrouping;
  policy_.fence_gating = !config.disable_fence_gate;
  policy_.bloom = {config.bloom_bits, config.bloom_bins};
  log_.set_max_unique(config.max_unique_races);
  sms_.reserve(machine.num_sms);
  for (u32 s = 0; s < machine.num_sms; ++s) {
    SmState sm{rd::SmIdRegisters(machine.max_blocks_per_sm, machine.warps_per_sm(),
                                 machine.max_threads_per_sm),
               nullptr, std::vector<BlockSlot>(machine.max_blocks_per_sm)};
    if (config.enable_shared) {
      sm.shared_rdu =
          std::make_unique<rd::SharedRdu>(s, machine.shared_mem_per_sm, config, policy_, log_);
      sm.shared_rdu->set_shard(shard_count, shard_index);
    }
    sms_.push_back(std::move(sm));
  }
}

void Detector::set_faults(fault::FaultInjector* faults) {
  faults_ = faults;
  for (SmState& sm : sms_)
    if (sm.shared_rdu != nullptr) sm.shared_rdu->set_faults(faults);
  if (global_rdu_ != nullptr) global_rdu_->set_faults(faults);
}

void Detector::begin_kernel(u32 block_dim, mem::DeviceMemory* memory, Addr shadow_base,
                            u32 app_heap_bytes) {
  block_dim_ = block_dim;
  error_.clear();
  shared_checks_ = 0;
  global_checks_ = 0;
  log_.clear();
  for (SmState& sm : sms_) {
    sm.ids.reset();
    std::fill(sm.slots.begin(), sm.slots.end(), BlockSlot{});
    if (sm.shared_rdu != nullptr) sm.shared_rdu->reset();
  }
  if (!config_.enable_global) return;
  if (global_rdu_ == nullptr || memory != memory_) {
    // The race register file: a global check reads the current fence ID
    // of the warp that made the stored access, on any SM.
    memory_ = memory;
    global_rdu_ = std::make_unique<rd::GlobalRdu>(
        *memory, config_, policy_, log_,
        [this](u32 sm, u32 warp_slot) -> u8 { return sms_[sm].ids.fence_id(warp_slot); });
    global_rdu_->set_shard(shard_count_, shard_index_);
    global_rdu_->set_faults(faults_);
  }
  global_rdu_->init_shadow(shadow_base, app_heap_bytes);
}

bool Detector::fail(const char* what) {
  if (error_.empty()) error_ = what;
  return false;
}

bool Detector::check_context(const Event& event, bool need_slot) {
  if (event.sm >= machine_.num_sms) return fail("replay: event SM id out of range");
  if (need_slot && event.block_slot >= machine_.max_blocks_per_sm)
    return fail("replay: event block slot out of range");
  if (event.warp_slot >= machine_.warps_per_sm())
    return fail("replay: event warp slot out of range");
  return true;
}

rd::AccessInfo Detector::event_access(const Event& event, bool is_write) const {
  rd::AccessInfo a;
  a.size = event.width;
  a.is_write = is_write;
  a.warp_in_sm = event.warp_slot;
  a.block_slot = event.block_slot;
  a.sm_id = event.sm;
  a.pc = event.pc;
  a.cycle = event.cycle;
  return a;
}

void Detector::load_lanes(const Event& event) {
  lanes_.clear();
  // A damaged trace can carry width 0; coalescing it as one byte keeps
  // the segment walk bounded.
  const u8 size = std::max<u8>(event.width, 1);
  for (const TraceLane& lane : event.lanes) lanes_.push_back({lane.lane, lane.addr, size});
}

void Detector::record_waw(const BlockSlot& slot, const Event& event, rd::MemSpace space) {
  // Exact-address comparison at the access width, not the tracking
  // granularity: lanes writing different words of one shadow granule are
  // SIMD-synchronized and must not be reported (Sec. III-A, Table III).
  waw_.build(lanes_, event.width);
  for (const mem::IntraWarpConflict& c : waw_.conflicts()) {
    // Sharded replay: the granule's owner reports it, as for RDU checks.
    if (!rd::shard_owns(c.granule_addr, shard_count_, shard_index_)) continue;
    rd::RaceRecord race;
    race.type = rd::RaceType::kWaw;
    race.mechanism = rd::RaceMechanism::kIntraWarpWaw;
    race.space = space;
    race.granule_addr = c.granule_addr;
    race.sm_id = event.sm;
    race.first_thread = static_cast<u16>(thread_slot(slot, event, static_cast<u8>(c.lane_a)));
    race.second_thread = static_cast<u16>(thread_slot(slot, event, static_cast<u8>(c.lane_b)));
    race.pc = event.pc;
    race.cycle = event.cycle;
    log_.record(race);
  }
}

bool Detector::on_shared(const Event& event) {
  SmState& sm = sms_[event.sm];
  const BlockSlot& slot = sm.slots[event.block_slot];
  for (const TraceLane& lane : event.lanes)
    if (thread_slot(slot, event, lane.lane) >= machine_.max_threads_per_sm)
      return fail("replay: shared-access thread slot out of range");
  if (!event.checked || sm.shared_rdu == nullptr) return true;

  const bool is_store = event.kind == EventKind::kSharedStore;
  if (is_store) {
    load_lanes(event);
    record_waw(slot, event, rd::MemSpace::kShared);
  }
  const u64 before = sm.shared_rdu->checks();
  // The shared state machine reads no ID register (Sec. III-A).
  rd::AccessInfo a = event_access(event, is_store);
  for (const TraceLane& lane : event.lanes) {
    a.addr = lane.addr;
    a.thread_slot = static_cast<u16>(thread_slot(slot, event, lane.lane));
    sm.shared_rdu->check(a);
  }
  shared_checks_ += sm.shared_rdu->checks() - before;
  return true;
}

bool Detector::on_global(const Event& event, std::vector<Addr>& shadow_out) {
  SmState& sm = sms_[event.sm];
  const BlockSlot& slot = sm.slots[event.block_slot];
  for (const TraceLane& lane : event.lanes)
    if (thread_slot(slot, event, lane.lane) >= machine_.max_threads_per_sm)
      return fail("replay: global-access thread slot out of range");

  // The ID registers see every global access, even one whose shadow
  // check the static filter skipped: they order the other accesses.
  if (config_.enable_global && !event.lanes.empty()) sm.ids.note_global_access(event.block_slot);
  // Atomics are synchronization, not checked accesses.
  if (!event.checked || global_rdu_ == nullptr || event.kind == EventKind::kGlobalAtomic)
    return true;

  const bool is_store = event.kind == EventKind::kGlobalStore;
  if (is_store) {
    load_lanes(event);
    record_waw(slot, event, rd::MemSpace::kGlobal);
  }
  rd::AccessInfo a = event_access(event, is_store);
  a.sync_id = sm.ids.sync_id(event.block_slot);
  a.fence_id = sm.ids.fence_id(event.warp_slot);
  const u64 before = global_rdu_->checks();
  const auto check = [&](const TraceLane& lane) {
    a.addr = lane.addr;
    a.thread_slot = static_cast<u16>(thread_slot(slot, event, lane.lane));
    a.sig = sm.ids.sig(a.thread_slot);
    a.in_cs = sm.ids.in_cs(a.thread_slot);
    a.l1_hit = lane.l1_hit;
    a.l1_fill_cycle = lane.l1_fill;
    global_rdu_->check(a, shadow_out);
  };
  // Check order is the coalescer's: line segments in first-touch order,
  // lanes in touch order within each segment (a lane repeated back to
  // back within a segment counts once). When each lane sits in one line
  // and the lines never go back, as in a coalesced or strided warp, that
  // is the lanes' own order.
  const Addr mask = ~(machine_.l1_line - 1);
  const auto line = [&](size_t i) { return event.lanes[i].addr & mask; };
  const u8 last_byte = std::max<u8>(event.width, 1) - 1;
  bool in_order = true;
  for (size_t i = 0; in_order && i < event.lanes.size(); ++i)
    in_order = ((event.lanes[i].addr + last_byte) & mask) == line(i) &&
               (i == 0 || line(i - 1) <= line(i));
  if (in_order) {
    for (size_t i = 0; i < event.lanes.size(); ++i)
      if (i == 0 || event.lanes[i].lane != event.lanes[i - 1].lane || line(i) != line(i - 1))
        check(event.lanes[i]);
  } else {
    if (!is_store) load_lanes(event);
    coalesce_.build(lanes_, machine_.l1_line);
    for (u32 s = 0; s < coalesce_.size(); ++s)
      for (u32 idx : coalesce_[s].access_indices) check(event.lanes[idx]);
  }
  global_checks_ += global_rdu_->checks() - before;
  return true;
}

bool Detector::consume(const Event& event, std::vector<Addr>* shadow_out) {
  switch (event.kind) {
    case EventKind::kBlockLaunch: {
      if (!check_context(event, /*need_slot=*/true)) return false;
      SmState& sm = sms_[event.sm];
      sm.slots[event.block_slot] = {event.block_id, event.thread_base, event.smem_base};
      if (event.thread_base + block_dim_ > machine_.max_threads_per_sm)
        return fail("replay: block launch thread range out of bounds");
      // Fresh tenant: new sync epoch, clean thread registers and shadow.
      sm.ids.on_block_launch(event.block_slot);
      for (u32 t = 0; t < block_dim_; ++t) sm.ids.reset_thread(event.thread_base + t);
      if (sm.shared_rdu != nullptr && event.smem_bytes > 0)
        sm.shared_rdu->reset_region(event.smem_base, event.smem_bytes);
      return true;
    }
    case EventKind::kBarrierArrive:
      return check_context(event, /*need_slot=*/true);
    case EventKind::kBlockFinish:
    case EventKind::kBarrierRelease: {
      if (!check_context(event, /*need_slot=*/true)) return false;
      SmState& sm = sms_[event.sm];
      if (sm.shared_rdu != nullptr && event.smem_bytes > 0)
        sm.shared_rdu->reset_region(event.smem_base, event.smem_bytes);
      if (event.kind == EventKind::kBarrierRelease && config_.enable_global)
        sm.ids.on_barrier(event.block_slot);
      return true;
    }
    case EventKind::kFence:
      return check_context(event, /*need_slot=*/false);
    case EventKind::kFenceCommit:
      if (!check_context(event, /*need_slot=*/false)) return false;
      sms_[event.sm].ids.on_fence(event.warp_slot);
      return true;
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease: {
      if (!check_context(event, /*need_slot=*/true)) return false;
      SmState& sm = sms_[event.sm];
      const BlockSlot& slot = sm.slots[event.block_slot];
      const rd::BloomGeometry geom{config_.bloom_bits, config_.bloom_bins};
      for (const TraceLane& lane : event.lanes) {
        const u32 thread = thread_slot(slot, event, lane.lane);
        if (thread >= machine_.max_threads_per_sm)
          return fail("replay: lock-event thread slot out of range");
        if (event.kind == EventKind::kLockAcquire)
          sm.ids.on_lock_acquired(thread, lane.addr, geom);
        else
          sm.ids.on_lock_releasing(thread);
      }
      return true;
    }
    case EventKind::kKernelBegin:
    case EventKind::kKernelEnd:
      return fail("replay: kernel boundary inside a kernel's events");
    default:
      break;
  }

  if (!check_context(event, /*need_slot=*/true)) return false;
  if (is_shared_access(event.kind)) return on_shared(event);
  if (shadow_out == nullptr) {
    shadow_scratch_.clear();
    shadow_out = &shadow_scratch_;
  }
  return on_global(event, *shadow_out);
}

void Detector::apply_id_fault(u32 sm, fault::FaultSite site, u64 pick) {
  rd::SmIdRegisters& ids = sms_[sm].ids;
  if (site == fault::FaultSite::kBloomFlip) {
    ids.corrupt_sig(static_cast<u32>(pick % machine_.max_threads_per_sm),
                    static_cast<u32>((pick >> 32) % 32));
  } else if ((pick & 1) == 0) {
    // Even picks lose a fence ID, odd picks a sync ID: one site exercises
    // both halves of the race register file.
    ids.drop_fence_id(static_cast<u32>((pick >> 1) % machine_.warps_per_sm()));
  } else {
    ids.drop_sync_id(static_cast<u32>((pick >> 1) % machine_.max_blocks_per_sm));
  }
}

void Detector::export_stats(StatSet& stats) const {
  u64 barrier_events = 0;
  u64 sync_increments = 0;
  for (const SmState& sm : sms_) {
    if (sm.shared_rdu != nullptr) sm.shared_rdu->export_stats(stats);
    barrier_events += sm.ids.barrier_events();
    sync_increments += sm.ids.sync_increments();
  }
  stats.add("ids.barrier_events", barrier_events);
  stats.add("ids.sync_increments", sync_increments);
  if (global_rdu_ != nullptr) global_rdu_->export_stats(stats);
}

}  // namespace haccrg::trace
