#include "trace/format.hpp"

#include <cassert>
#include <cstring>

#include "haccrg/bloom.hpp"

namespace haccrg::trace {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kKernelBegin: return "kernel.begin";
    case EventKind::kKernelEnd: return "kernel.end";
    case EventKind::kBlockLaunch: return "block.launch";
    case EventKind::kBlockFinish: return "block.finish";
    case EventKind::kSharedLoad: return "shared.load";
    case EventKind::kSharedStore: return "shared.store";
    case EventKind::kSharedAtomic: return "shared.atom";
    case EventKind::kGlobalLoad: return "global.load";
    case EventKind::kGlobalStore: return "global.store";
    case EventKind::kGlobalAtomic: return "global.atom";
    case EventKind::kBarrierArrive: return "barrier.arrive";
    case EventKind::kBarrierRelease: return "barrier.release";
    case EventKind::kFence: return "fence";
    case EventKind::kFenceCommit: return "fence.commit";
    case EventKind::kLockAcquire: return "lock.acq";
    case EventKind::kLockRelease: return "lock.rel";
  }
  return "?";
}

rd::HaccrgConfig TraceHeader::haccrg_config() const {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = enable_shared;
  cfg.enable_global = enable_global;
  cfg.shared_granularity = shared_granularity;
  cfg.global_granularity = global_granularity;
  cfg.bloom_bits = bloom_bits;
  cfg.bloom_bins = bloom_bins;
  cfg.shared_shadow = static_cast<rd::SharedShadowPlacement>(shared_shadow);
  cfg.warp_regrouping = warp_regrouping;
  cfg.disable_fence_gate = disable_fence_gate;
  cfg.static_filter = static_filter;
  cfg.max_recorded_races = max_recorded_races;
  return cfg;
}

void put_varint(std::vector<u8>& out, u64 value) {
  while (value >= 0x80) {
    out.push_back(static_cast<u8>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<u8>(value));
}

bool DecodeCursor::fail(std::string_view what, StatusCode why) {
  if (error.empty()) {
    error = std::string(what);
    code = why;
  }
  return false;
}

bool DecodeCursor::get_u8(u8& out) {
  if (pos >= size) return fail("truncated: expected byte past end of data");
  out = data[pos++];
  return true;
}

bool DecodeCursor::get_varint(u64& out) {
  out = 0;
  u32 shift = 0;
  for (u32 i = 0; i < 10; ++i) {
    if (pos >= size) return fail("truncated: varint runs past end of data");
    const u8 byte = data[pos++];
    out |= static_cast<u64>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return fail("corrupt: varint longer than 10 bytes");
}

bool DecodeCursor::get_varint_u32(u32& out) {
  u64 wide = 0;
  if (!get_varint(wide)) return false;
  if (wide > 0xffffffffULL) return fail("corrupt: varint exceeds 32-bit field");
  out = static_cast<u32>(wide);
  return true;
}

// --- Header -----------------------------------------------------------------

namespace {

u8 header_flags(const TraceHeader& h) {
  return static_cast<u8>((h.enable_shared ? 1u : 0u) | (h.enable_global ? 2u : 0u) |
                         (h.warp_regrouping ? 4u : 0u) | (h.disable_fence_gate ? 8u : 0u) |
                         (h.static_filter ? 16u : 0u));
}

}  // namespace

void encode_header(const TraceHeader& header, std::vector<u8>& out) {
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  out.push_back(static_cast<u8>(header.version & 0xff));
  out.push_back(static_cast<u8>(header.version >> 8));
  put_varint(out, header.num_sms);
  put_varint(out, header.warp_size);
  put_varint(out, header.max_blocks_per_sm);
  put_varint(out, header.max_threads_per_sm);
  put_varint(out, header.shared_mem_per_sm);
  put_varint(out, header.shared_mem_banks);
  put_varint(out, header.l1_line);
  put_varint(out, header.device_mem_bytes);
  out.push_back(header_flags(header));
  out.push_back(header.shared_shadow);
  put_varint(out, header.shared_granularity);
  put_varint(out, header.global_granularity);
  put_varint(out, header.bloom_bits);
  put_varint(out, header.bloom_bins);
  put_varint(out, header.max_recorded_races);
}

bool decode_header(DecodeCursor& cursor, TraceHeader& out) {
  if (cursor.size - cursor.pos < sizeof(kMagic) + 2)
    return cursor.fail("truncated: file shorter than the trace header");
  if (std::memcmp(cursor.data + cursor.pos, kMagic, sizeof(kMagic)) != 0)
    return cursor.fail("bad magic: not a HAccRG access trace", StatusCode::kBadMagic);
  cursor.pos += sizeof(kMagic);
  u8 lo = 0;
  u8 hi = 0;
  if (!cursor.get_u8(lo) || !cursor.get_u8(hi)) return false;
  out.version = static_cast<u16>(lo | (hi << 8));
  if (out.version < kFormatVersion || out.version > kMaxFormatVersion)
    return cursor.fail("unsupported trace version", StatusCode::kVersionMismatch);
  u64 device_mem = 0;
  u8 flags = 0;
  if (!cursor.get_varint_u32(out.num_sms) || !cursor.get_varint_u32(out.warp_size) ||
      !cursor.get_varint_u32(out.max_blocks_per_sm) ||
      !cursor.get_varint_u32(out.max_threads_per_sm) ||
      !cursor.get_varint_u32(out.shared_mem_per_sm) ||
      !cursor.get_varint_u32(out.shared_mem_banks) || !cursor.get_varint_u32(out.l1_line) ||
      !cursor.get_varint(device_mem) || !cursor.get_u8(flags) ||
      !cursor.get_u8(out.shared_shadow) || !cursor.get_varint_u32(out.shared_granularity) ||
      !cursor.get_varint_u32(out.global_granularity) || !cursor.get_varint_u32(out.bloom_bits) ||
      !cursor.get_varint_u32(out.bloom_bins) || !cursor.get_varint_u32(out.max_recorded_races))
    return false;
  out.device_mem_bytes = device_mem;
  out.enable_shared = (flags & 1) != 0;
  out.enable_global = (flags & 2) != 0;
  out.warp_regrouping = (flags & 4) != 0;
  out.disable_fence_gate = (flags & 8) != 0;
  out.static_filter = (flags & 16) != 0;
  if (out.num_sms == 0 || out.warp_size == 0 || out.warp_size > 32)
    return cursor.fail("corrupt header: implausible machine geometry");
  if (out.max_threads_per_sm == 0 || out.max_threads_per_sm % out.warp_size != 0)
    return cursor.fail("corrupt header: max_threads_per_sm not a warp multiple");
  // Bound everything replay sizes allocations by. A bit-flipped varint can
  // otherwise inflate a field to ~4G and turn a damaged trace into an OOM
  // instead of a structured decode error. The caps are an order of
  // magnitude past any machine the simulator models.
  if (out.num_sms > 1024 || out.max_blocks_per_sm == 0 || out.max_blocks_per_sm > 256 ||
      out.max_threads_per_sm > 16384 || out.shared_mem_per_sm > (64u << 20) ||
      out.l1_line == 0 || out.l1_line > 4096)
    return cursor.fail("corrupt header: implausible machine geometry");
  if (out.shared_granularity == 0 || out.shared_granularity > 4096 ||
      !is_pow2(out.shared_granularity) || out.global_granularity == 0 ||
      out.global_granularity > 4096 || !is_pow2(out.global_granularity))
    return cursor.fail("corrupt header: implausible detector granularity");
  if (!rd::BloomGeometry{out.bloom_bits, out.bloom_bins}.valid())
    return cursor.fail("corrupt header: invalid bloom signature geometry");
  if (out.max_recorded_races == 0 || out.max_recorded_races > (1u << 24))
    return cursor.fail("corrupt header: implausible race log capacity");
  return true;
}

// --- Events -----------------------------------------------------------------

namespace {

constexpr size_t kMaxLabelBytes = 4096;

void put_lanes(const Event& event, std::vector<u8>& out, bool with_addrs) {
  put_varint(out, event.lanes.size());
  Addr prev = 0;
  for (const TraceLane& lane : event.lanes) {
    out.push_back(lane.lane);
    if (with_addrs) {
      put_varint(out, zigzag_encode(static_cast<i64>(lane.addr) - static_cast<i64>(prev)));
      prev = lane.addr;
    }
  }
}

bool get_lanes(DecodeCursor& cursor, Event& out, bool with_addrs) {
  u64 count = 0;
  if (!cursor.get_varint(count)) return false;
  if (count > 32) return cursor.fail("corrupt event: more than 32 lanes");
  out.lanes.resize(static_cast<size_t>(count));
  Addr prev = 0;
  for (TraceLane& lane : out.lanes) {
    if (!cursor.get_u8(lane.lane)) return false;
    if (with_addrs) {
      u64 raw = 0;
      if (!cursor.get_varint(raw)) return false;
      lane.addr = static_cast<Addr>(static_cast<i64>(prev) + zigzag_decode(raw));
      prev = lane.addr;
    }
  }
  return true;
}

}  // namespace

void encode_event(const Event& event, Cycle& last_cycle, std::vector<u8>& out) {
  out.push_back(static_cast<u8>(event.kind));
  if (event.kind == EventKind::kKernelBegin) {
    // A kernel begin is the cycle-delta base: its own cycle is 0.
    last_cycle = 0;
  } else {
    assert(event.cycle >= last_cycle && "trace events must be cycle-ordered");
    put_varint(out, event.cycle - last_cycle);
    last_cycle = event.cycle;
  }

  switch (event.kind) {
    case EventKind::kKernelBegin:
      put_varint(out, event.grid_dim);
      put_varint(out, event.block_dim);
      put_varint(out, event.shared_mem_bytes);
      put_varint(out, event.app_heap_bytes);
      put_varint(out, event.shadow_base);
      put_varint(out, event.label.size());
      out.insert(out.end(), event.label.begin(), event.label.end());
      return;
    case EventKind::kKernelEnd:
      return;
    case EventKind::kBlockLaunch:
      put_varint(out, event.sm);
      put_varint(out, event.block_slot);
      put_varint(out, event.block_id);
      put_varint(out, event.warp_base);
      put_varint(out, event.num_warps);
      put_varint(out, event.thread_base);
      put_varint(out, event.smem_base);
      put_varint(out, event.smem_bytes);
      return;
    case EventKind::kBlockFinish:
      put_varint(out, event.sm);
      put_varint(out, event.block_slot);
      put_varint(out, event.smem_base);
      put_varint(out, event.smem_bytes);
      return;
    case EventKind::kBarrierArrive:
      put_varint(out, event.sm);
      put_varint(out, event.block_slot);
      put_varint(out, event.warp_slot);
      return;
    case EventKind::kBarrierRelease:
      put_varint(out, event.sm);
      put_varint(out, event.block_slot);
      put_varint(out, event.smem_base);
      put_varint(out, event.smem_bytes);
      return;
    case EventKind::kFence:
    case EventKind::kFenceCommit:
      put_varint(out, event.sm);
      put_varint(out, event.warp_slot);
      return;
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
      put_varint(out, event.sm);
      put_varint(out, event.block_slot);
      put_varint(out, event.warp_slot);
      put_varint(out, event.warp_in_block);
      put_varint(out, event.pc);
      put_lanes(event, out, /*with_addrs=*/event.kind == EventKind::kLockAcquire);
      return;
    default:
      break;
  }

  // Memory access kinds.
  put_varint(out, event.sm);
  put_varint(out, event.block_slot);
  put_varint(out, event.warp_slot);
  put_varint(out, event.warp_in_block);
  put_varint(out, event.pc);
  out.push_back(event.width);
  out.push_back(event.checked ? 1 : 0);
  put_lanes(event, out, /*with_addrs=*/true);
  if (event.kind == EventKind::kGlobalLoad) {
    u64 hit_mask = 0;
    for (size_t i = 0; i < event.lanes.size(); ++i)
      if (event.lanes[i].l1_hit) hit_mask |= u64{1} << i;
    put_varint(out, hit_mask);
    for (const TraceLane& lane : event.lanes) {
      if (!lane.l1_hit) continue;
      assert(lane.l1_fill <= event.cycle && "L1 fill cannot postdate the access");
      put_varint(out, event.cycle - lane.l1_fill);
    }
  }
}

void reset_event(Event& out) {
  out.kind = EventKind::kKernelBegin;
  out.cycle = 0;
  out.sm = 0;
  out.block_slot = 0;
  out.warp_slot = 0;
  out.warp_in_block = 0;
  out.pc = 0;
  out.width = 0;
  out.checked = false;
  out.grid_dim = 0;
  out.block_dim = 0;
  out.shared_mem_bytes = 0;
  out.app_heap_bytes = 0;
  out.shadow_base = 0;
  out.label.clear();
  out.block_id = 0;
  out.warp_base = 0;
  out.num_warps = 0;
  out.thread_base = 0;
  out.smem_base = 0;
  out.smem_bytes = 0;
  out.lanes.clear();
}

bool decode_event(DecodeCursor& cursor, Cycle& last_cycle, Event& out) {
  reset_event(out);
  u8 kind_byte = 0;
  if (!cursor.get_u8(kind_byte)) return false;
  if (kind_byte < kMinEventKind || kind_byte > kMaxEventKind)
    return cursor.fail("corrupt event: unknown kind byte");
  out.kind = static_cast<EventKind>(kind_byte);
  if (out.kind == EventKind::kKernelBegin) {
    last_cycle = 0;
    out.cycle = 0;
  } else {
    u64 delta = 0;
    if (!cursor.get_varint(delta)) return false;
    out.cycle = last_cycle + delta;
    last_cycle = out.cycle;
  }

  switch (out.kind) {
    case EventKind::kKernelBegin: {
      u64 label_len = 0;
      if (!cursor.get_varint_u32(out.grid_dim) || !cursor.get_varint_u32(out.block_dim) ||
          !cursor.get_varint_u32(out.shared_mem_bytes) ||
          !cursor.get_varint_u32(out.app_heap_bytes) || !cursor.get_varint_u32(out.shadow_base) ||
          !cursor.get_varint(label_len))
        return false;
      if (label_len > kMaxLabelBytes) return cursor.fail("corrupt event: oversized kernel label");
      if (cursor.size - cursor.pos < label_len)
        return cursor.fail("truncated: kernel label runs past end of data");
      out.label.assign(reinterpret_cast<const char*>(cursor.data + cursor.pos),
                       static_cast<size_t>(label_len));
      cursor.pos += static_cast<size_t>(label_len);
      return true;
    }
    case EventKind::kKernelEnd:
      return true;
    case EventKind::kBlockLaunch:
      return cursor.get_varint_u32(out.sm) && cursor.get_varint_u32(out.block_slot) &&
             cursor.get_varint_u32(out.block_id) && cursor.get_varint_u32(out.warp_base) &&
             cursor.get_varint_u32(out.num_warps) && cursor.get_varint_u32(out.thread_base) &&
             cursor.get_varint_u32(out.smem_base) && cursor.get_varint_u32(out.smem_bytes);
    case EventKind::kBlockFinish:
      return cursor.get_varint_u32(out.sm) && cursor.get_varint_u32(out.block_slot) &&
             cursor.get_varint_u32(out.smem_base) && cursor.get_varint_u32(out.smem_bytes);
    case EventKind::kBarrierArrive:
      return cursor.get_varint_u32(out.sm) && cursor.get_varint_u32(out.block_slot) &&
             cursor.get_varint_u32(out.warp_slot);
    case EventKind::kBarrierRelease:
      return cursor.get_varint_u32(out.sm) && cursor.get_varint_u32(out.block_slot) &&
             cursor.get_varint_u32(out.smem_base) && cursor.get_varint_u32(out.smem_bytes);
    case EventKind::kFence:
    case EventKind::kFenceCommit:
      return cursor.get_varint_u32(out.sm) && cursor.get_varint_u32(out.warp_slot);
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
      if (!cursor.get_varint_u32(out.sm) || !cursor.get_varint_u32(out.block_slot) ||
          !cursor.get_varint_u32(out.warp_slot) || !cursor.get_varint_u32(out.warp_in_block) ||
          !cursor.get_varint_u32(out.pc))
        return false;
      return get_lanes(cursor, out, /*with_addrs=*/out.kind == EventKind::kLockAcquire);
    default:
      break;
  }

  // Memory access kinds.
  u8 checked = 0;
  if (!cursor.get_varint_u32(out.sm) || !cursor.get_varint_u32(out.block_slot) ||
      !cursor.get_varint_u32(out.warp_slot) || !cursor.get_varint_u32(out.warp_in_block) ||
      !cursor.get_varint_u32(out.pc) || !cursor.get_u8(out.width) || !cursor.get_u8(checked))
    return false;
  if (checked > 1) return cursor.fail("corrupt event: bad checked flag");
  out.checked = checked != 0;
  if (!get_lanes(cursor, out, /*with_addrs=*/true)) return false;
  if (out.kind == EventKind::kGlobalLoad) {
    u64 hit_mask = 0;
    if (!cursor.get_varint(hit_mask)) return false;
    if (out.lanes.size() < 64 && (hit_mask >> out.lanes.size()) != 0)
      return cursor.fail("corrupt event: L1 hit mask wider than the lane list");
    for (size_t i = 0; i < out.lanes.size(); ++i) {
      if ((hit_mask & (u64{1} << i)) == 0) continue;
      out.lanes[i].l1_hit = true;
      u64 age = 0;
      if (!cursor.get_varint(age)) return false;
      if (age > out.cycle) return cursor.fail("corrupt event: L1 fill postdates the access");
      out.lanes[i].l1_fill = out.cycle - age;
    }
  }
  return true;
}

}  // namespace haccrg::trace
