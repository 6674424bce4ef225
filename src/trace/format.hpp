// Access-trace binary format (the src/trace subsystem's wire layer).
//
// A trace file is:
//
//   magic "HACCRGTR" (8 bytes) | version (u16 LE) | header | event*
//
// The header pins everything the detectors need to be reconstructed
// exactly — the modelled machine's geometry and the HaccrgConfig the
// recording run used — so a replay is a closed computation over the file.
// Events are varint-packed (LEB128) records; per-warp lane addresses are
// zigzag-delta encoded against the previous lane and event cycles are
// delta encoded against the previous event (file order is non-decreasing
// in cycle; a kKernelBegin resets the base). Encoding is canonical: the
// same event sequence always produces the same bytes, which the
// round-trip tests assert.
//
// Ordering contract (what replay relies on): within one simulated cycle
// the recorder emits every SM's issue-phase events in SM-id order first,
// then every SM's global-memory events in SM-id order — mirroring the
// engine's parallel-phase/commit-phase split. Any state a global RDU
// check reads across SMs (fence IDs) is therefore updated by earlier
// events in the file, exactly as the live commit phase observes it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "haccrg/options.hpp"

namespace haccrg::trace {

inline constexpr char kMagic[8] = {'H', 'A', 'C', 'C', 'R', 'G', 'T', 'R'};
inline constexpr u16 kFormatVersion = 1;

// Version 2 appends a seekable index section after the last event:
//
//   event* | 0x00 "IDX0" index-payload | index_offset (u64 LE) "HACCRGIX"
//
// The section starts with byte 0 — not a valid event kind, so a decoder
// that overruns the event stream fails structurally instead of
// misparsing the index — and the fixed 16-byte footer lets a reader find
// the section without decoding anything. Version-1 files (the default;
// golden traces stay byte-identical) simply lack the section, and every
// index consumer falls back to a linear scan (see trace/index.hpp).
inline constexpr u16 kIndexedFormatVersion = 2;
inline constexpr u16 kMaxFormatVersion = kIndexedFormatVersion;
inline constexpr char kIndexTailMagic[8] = {'H', 'A', 'C', 'C', 'R', 'G', 'I', 'X'};
inline constexpr char kIndexSectionTag[4] = {'I', 'D', 'X', '0'};
inline constexpr size_t kIndexFooterBytes = 16;  // u64 offset + tail magic

/// Every record class a trace can contain. Memory events carry the full
/// active-lane address vector; sync events carry the identifiers the
/// HAccRG ID registers key on.
enum class EventKind : u8 {
  kKernelBegin = 1,   ///< launch geometry + heap layout; resets the cycle base
  kKernelEnd,         ///< kernel drained; cycle = total simulated cycles
  kBlockLaunch,       ///< a block became resident in an SM slot
  kBlockFinish,       ///< the slot's tenant retired
  kSharedLoad,
  kSharedStore,
  kSharedAtomic,
  kGlobalLoad,
  kGlobalStore,
  kGlobalAtomic,
  kBarrierArrive,     ///< one warp reached bar.sync
  kBarrierRelease,    ///< the whole block passed it (shadow reset + sync-ID bump)
  kFence,             ///< a warp issued membar
  kFenceCommit,       ///< the warp's stores drained; its fence ID bumped
  kLockAcquire,       ///< critical-section enter (per-lane lock addresses)
  kLockRelease,       ///< critical-section exit
};

inline constexpr u8 kMinEventKind = 1;
inline constexpr u8 kMaxEventKind = static_cast<u8>(EventKind::kLockRelease);

std::string_view event_kind_name(EventKind kind);

/// True for the six per-warp memory-access kinds.
inline bool is_access_kind(EventKind kind) {
  return kind >= EventKind::kSharedLoad && kind <= EventKind::kGlobalAtomic;
}

inline bool is_shared_access(EventKind kind) {
  return kind >= EventKind::kSharedLoad && kind <= EventKind::kSharedAtomic;
}

inline bool is_global_access(EventKind kind) {
  return kind >= EventKind::kGlobalLoad && kind <= EventKind::kGlobalAtomic;
}

/// One active lane of a memory event. `addr` is SM-local for shared
/// events, a device address for global ones. The L1 fields are only
/// meaningful on kGlobalLoad (the stale-hit rule's inputs).
struct TraceLane {
  u8 lane = 0;
  Addr addr = 0;
  bool l1_hit = false;
  Cycle l1_fill = 0;  ///< fill cycle of the hit line (0 unless l1_hit)

  bool operator==(const TraceLane&) const = default;
};

/// A decoded trace record. One struct covers every kind; fields a kind
/// does not encode decode as their defaults, so value equality against a
/// freshly-built event is exact (the round-trip tests depend on it).
struct Event {
  EventKind kind = EventKind::kKernelBegin;
  Cycle cycle = 0;

  // Issuing context (access, sync, lock, block events).
  u32 sm = 0;
  u32 block_slot = 0;
  u32 warp_slot = 0;      ///< hardware warp slot within the SM
  u32 warp_in_block = 0;
  u32 pc = 0;
  u8 width = 0;           ///< access bytes (memory events)
  bool checked = false;   ///< the live run ran RDU checks for this access

  // kKernelBegin.
  u32 grid_dim = 0;
  u32 block_dim = 0;
  u32 shared_mem_bytes = 0;
  u32 app_heap_bytes = 0;  ///< allocator heap top at launch
  Addr shadow_base = 0;    ///< global shadow region base (0 if global det. off)
  std::string label;

  // kBlockLaunch / kBlockFinish / kBarrierRelease.
  u32 block_id = 0;
  u32 warp_base = 0;
  u32 num_warps = 0;
  u32 thread_base = 0;
  u32 smem_base = 0;
  u32 smem_bytes = 0;

  // Memory events: active lanes in lane-index order (canonical; replay
  // re-derives the live run's coalesced check order with mem::coalesce,
  // which is deterministic on this vector). kLockAcquire reuses the
  // vector for per-lane lock addresses, kLockRelease for bare lanes.
  std::vector<TraceLane> lanes;

  bool operator==(const Event&) const = default;
};

/// Reset an event to its default-constructed value while keeping the
/// lane vector's (and label's) heap capacity: decoders and the SMs'
/// pooled event slots reuse one Event per record.
void reset_event(Event& out);

/// Trace header: the machine and detector the recording run modelled.
/// Enough to rebuild SharedRdu/GlobalRdu/SmIdRegisters byte-exactly.
struct TraceHeader {
  u16 version = kFormatVersion;

  // Modelled machine (the arch::GpuConfig fields detection depends on).
  u32 num_sms = 0;
  u32 warp_size = 0;
  u32 max_blocks_per_sm = 0;
  u32 max_threads_per_sm = 0;
  u32 shared_mem_per_sm = 0;
  u32 shared_mem_banks = 0;
  u32 l1_line = 0;
  u64 device_mem_bytes = 0;

  // Detector configuration of the recording run.
  bool enable_shared = false;
  bool enable_global = false;
  bool warp_regrouping = false;
  bool disable_fence_gate = false;
  bool static_filter = false;
  u8 shared_shadow = 0;  ///< rd::SharedShadowPlacement as an integer
  u32 shared_granularity = 0;
  u32 global_granularity = 0;
  u32 bloom_bits = 0;
  u32 bloom_bins = 0;
  u32 max_recorded_races = 0;

  u32 warps_per_sm() const { return max_threads_per_sm / warp_size; }

  /// Rebuild the recording run's detector config.
  rd::HaccrgConfig haccrg_config() const;

  bool operator==(const TraceHeader&) const = default;
};

// --- Varint primitives (shared by writer, reader, and tests) -----------------

void put_varint(std::vector<u8>& out, u64 value);

inline u64 zigzag_encode(i64 value) {
  return (static_cast<u64>(value) << 1) ^ static_cast<u64>(value >> 63);
}

inline i64 zigzag_decode(u64 value) {
  return static_cast<i64>((value >> 1) ^ (~(value & 1) + 1));
}

// --- Canonical encode / decode ----------------------------------------------

/// Append magic + version + header fields to `out`.
void encode_header(const TraceHeader& header, std::vector<u8>& out);

/// Append one event. `last_cycle` is the running delta base: the caller
/// threads it through consecutive calls (kKernelBegin resets it to 0).
/// Event cycles must be non-decreasing between kernel begins.
void encode_event(const Event& event, Cycle& last_cycle, std::vector<u8>& out);

/// Bounded cursor over an encoded byte range; decode helpers fail softly
/// (set `error`, return false) on truncation or malformed varints so a
/// corrupt trace is a diagnosis, never UB.
struct DecodeCursor {
  const u8* data = nullptr;
  size_t size = 0;
  size_t pos = 0;
  std::string error;
  /// Failure class of `error` (kCorrupt for plain fail(); bad magic and
  /// version mismatches are tagged so callers — the CLI's exit codes,
  /// the reader's Status — can distinguish "wrong file" from "damaged
  /// file" without string matching.
  StatusCode code = StatusCode::kOk;

  bool failed() const { return !error.empty(); }
  bool at_end() const { return pos >= size; }
  bool fail(std::string_view what, StatusCode why = StatusCode::kCorrupt);
  bool get_u8(u8& out);
  bool get_varint(u64& out);
  bool get_varint_u32(u32& out);
};

/// Parse magic + version + header at the cursor. False on mismatch or
/// truncation (cursor.error says why).
bool decode_header(DecodeCursor& cursor, TraceHeader& out);

/// Decode one event at the cursor; mirrors encode_event's `last_cycle`
/// protocol. False on truncation/corruption.
bool decode_event(DecodeCursor& cursor, Cycle& last_cycle, Event& out);

}  // namespace haccrg::trace
