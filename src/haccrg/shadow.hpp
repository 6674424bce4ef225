// Shadow-memory entries and the HAccRG detection state machine.
//
// Every tracked granule of application memory has a shadow entry holding
// {modified (M), shared (S), first-accessor tid} plus, for global memory,
// {bid, sid, sync ID, fence ID, atomic ID, cs-seen}. The Figure-3 state
// machine interprets {M,S} as:
//   state 1: M=1,S=1  no access since the last barrier (initial)
//   state 2: M=0,S=0  read-only, single thread (tid)
//   state 3: M=1,S=0  written by tid
//   state 4: M=0,S=1  read by multiple warps
//
// The functions here are pure on the entry + access descriptor, which
// keeps the state machine exhaustively unit-testable; the RDUs own the
// surrounding storage, timing, and traffic generation.
#pragma once

#include <functional>
#include <optional>

#include "common/types.hpp"
#include "haccrg/bloom.hpp"
#include "haccrg/race.hpp"

namespace haccrg::rd {

/// Identity and metadata of one lane access, as delivered to an RDU.
struct AccessInfo {
  Addr addr = 0;       ///< byte address (SM-local for shared space)
  u8 size = 4;         ///< bytes
  bool is_write = false;
  u16 thread_slot = 0; ///< hardware thread slot within the SM (the tid field)
  u32 warp_in_sm = 0;  ///< hardware warp slot within the SM
  u32 block_slot = 0;  ///< hardware block slot within the SM (the bid field)
  u32 sm_id = 0;       ///< SM of the access (the sid field)
  u8 sync_id = 0;      ///< issuing block's sync ID (global only)
  u8 fence_id = 0;     ///< issuing warp's fence ID (global only)
  BloomSignature sig;  ///< locks held (zero when unprotected)
  bool in_cs = false;  ///< between acquire/release markers
  bool l1_hit = false; ///< global loads: the data came from the local L1
  Cycle l1_fill_cycle = 0;  ///< when the hit L1 line was filled
  u32 pc = 0;
  Cycle cycle = 0;
};

inline constexpr u16 kShadowTidMask = 0x3ff;  ///< 10-bit thread slot

// Packing: M and S are stored inverted so the initial {M=1,S=1} state is
// all-zero: barrier resets and cudaMemset-style initialization are plain
// memsets. Every check unpacks and repacks an entry, so these are inline.

/// Shared-memory shadow entry: 12 bits of architectural state (M, S,
/// 10-bit tid). Packed so that an all-zero word encodes the initial
/// {M=1,S=1} state — barrier-time invalidation is then a memset.
struct SharedShadowEntry {
  bool m = true;
  bool s = true;
  u16 tid = 0;

  static SharedShadowEntry unpack(u16 raw) {
    return {(raw & 0x1) == 0, (raw & 0x2) == 0, static_cast<u16>((raw >> 2) & kShadowTidMask)};
  }
  u16 pack() const {
    return static_cast<u16>((m ? 0 : 0x1) | (s ? 0 : 0x2) | ((tid & kShadowTidMask) << 2));
  }
};

/// Global-memory shadow entry (Section IV-B): adds bid/sid/sync/fence/
/// atomic-ID fields. Packs into a u64 stored in the device-memory shadow
/// region; all-zero again encodes the initial state.
struct GlobalShadowEntry {
  bool m = true;
  bool s = true;
  u16 tid = 0;     ///< 10-bit thread slot
  u8 bid = 0;      ///< 3-bit block slot
  u8 sid = 0;      ///< 5-bit SM id
  u8 sync_id = 0;  ///< 8-bit block logical barrier clock
  u8 fence_id = 0; ///< 8-bit writer-warp fence clock
  u16 sig = 0;     ///< 16-bit atomic-ID intersection so far
  bool cs_seen = false;  ///< some recorded access was inside a critical section

  static GlobalShadowEntry unpack(u64 raw) {
    return {(raw & 0x1) == 0, (raw & 0x2) == 0, static_cast<u16>((raw >> 2) & kShadowTidMask),
            static_cast<u8>((raw >> 12) & 0x7), static_cast<u8>((raw >> 15) & 0x1f),
            static_cast<u8>(raw >> 20), static_cast<u8>(raw >> 28), static_cast<u16>(raw >> 36),
            ((raw >> 52) & 0x1) != 0};
  }
  u64 pack() const {
    return (m ? 0 : u64{0x1}) | (s ? 0 : u64{0x2}) | static_cast<u64>(tid & kShadowTidMask) << 2 |
           static_cast<u64>(bid & 0x7) << 12 | static_cast<u64>(sid & 0x1f) << 15 |
           u64{sync_id} << 20 | u64{fence_id} << 28 | u64{sig} << 36 | u64{cs_seen} << 52;
  }
};

/// Result of one shadow check: the (possibly) updated entry plus an
/// optional race. `entry_changed` lets RDUs decide whether the shadow
/// write-back consumes bandwidth.
struct CheckOutcome {
  std::optional<RaceRecord> race;
  bool entry_changed = false;
};

/// Knobs shared by both state machines.
struct DetectPolicy {
  u32 warp_size = 32;
  bool warp_regrouping = false;  ///< report even intra-warp pairs
  bool fence_gating = true;      ///< ablation: false reports every RAW
  BloomGeometry bloom;
};

/// Shared-memory check (Section III-A, warp-aware). Mutates `entry` in
/// place and reports at most one race.
CheckOutcome check_shared_access(SharedShadowEntry& entry, const AccessInfo& access,
                                 const DetectPolicy& policy);

/// Reads the *current* fence ID of a warp (race register file lookup):
/// args are (sm_id, warp_in_sm).
using FenceIdReader = std::function<u8(u32, u32)>;

/// Global-memory check (Sections III-B/III-C/IV-B): sync-ID ordering,
/// lockset priority inside critical sections, fence-gated RAW reporting,
/// and the stale-L1 cross-SM rule.
CheckOutcome check_global_access(GlobalShadowEntry& entry, const AccessInfo& access,
                                 const DetectPolicy& policy, const FenceIdReader& fence_reader);

}  // namespace haccrg::rd
