#include "haccrg/shadow.hpp"

namespace haccrg::rd {

namespace {

constexpr u16 kTidMask = kShadowTidMask;

/// Two accesses count as "same warp" (and therefore ordered by SIMD
/// lockstep) only within the same SM, block slot, and warp slot.
bool same_warp(u16 stored_tid, const AccessInfo& a, const DetectPolicy& policy) {
  return (stored_tid / policy.warp_size) == a.warp_in_sm;
}

RaceRecord make_race(RaceType type, RaceMechanism mech, MemSpace space, u16 first,
                     const AccessInfo& a) {
  RaceRecord r;
  r.type = type;
  r.mechanism = mech;
  r.space = space;
  r.granule_addr = a.addr;
  r.sm_id = a.sm_id;
  r.first_thread = first;
  r.second_thread = a.thread_slot;
  r.pc = a.pc;
  r.cycle = a.cycle;
  return r;
}

}  // namespace

// --- Shared-memory state machine (Section III-A) ------------------------------

CheckOutcome check_shared_access(SharedShadowEntry& entry, const AccessInfo& access,
                                 const DetectPolicy& policy) {
  CheckOutcome out;
  const u16 t = access.thread_slot & kTidMask;

  // State 1: no access since the last barrier — claim the entry.
  if (entry.m && entry.s) {
    entry.s = false;
    entry.m = access.is_write;
    entry.tid = t;
    out.entry_changed = true;
    return out;
  }

  const bool same_thread = entry.tid == t;
  const bool ordered_by_warp =
      !policy.warp_regrouping && same_warp(entry.tid, access, policy);

  if (!entry.m && !entry.s) {
    // State 2: read-only by tid.
    if (!access.is_write) {
      if (!same_thread && !ordered_by_warp) {
        entry.s = true;  // a second *warp* is reading
        out.entry_changed = true;
      }
      return out;
    }
    if (same_thread || ordered_by_warp) {
      entry.m = true;
      entry.tid = t;  // warp-ordered writer becomes the owner
      out.entry_changed = true;
      return out;
    }
    out.race = make_race(RaceType::kWar, RaceMechanism::kBarrier, MemSpace::kShared, entry.tid,
                         access);
  } else if (entry.m && !entry.s) {
    // State 3: written by tid.
    if (same_thread || ordered_by_warp) {
      if (!same_thread) {
        entry.tid = t;
        out.entry_changed = true;
      }
      return out;
    }
    out.race = make_race(access.is_write ? RaceType::kWaw : RaceType::kRaw,
                         RaceMechanism::kBarrier, MemSpace::kShared, entry.tid, access);
  } else {
    // State 4: read by multiple warps. Any write races with some reader.
    if (!access.is_write) return out;
    out.race = make_race(RaceType::kWar, RaceMechanism::kBarrier, MemSpace::kShared, entry.tid,
                         access);
  }

  // After reporting, re-own the entry with the racing access so one buggy
  // location does not flood the log with the same pair forever.
  entry.m = access.is_write;
  entry.s = false;
  entry.tid = t;
  out.entry_changed = true;
  return out;
}

// --- Global-memory state machine (Sections III-B, III-C, IV-B) ----------------

namespace {

/// Overwrite the entry with the current access (used for the first access,
/// for barrier-ordered epochs, and after a reported race).
void claim_global(GlobalShadowEntry& entry, const AccessInfo& access) {
  entry.m = access.is_write;
  entry.s = false;
  entry.tid = access.thread_slot & kTidMask;
  entry.bid = static_cast<u8>(access.block_slot & 0x7);
  entry.sid = static_cast<u8>(access.sm_id & 0x1f);
  entry.sync_id = access.sync_id;
  entry.fence_id = access.fence_id;
  entry.sig = static_cast<u16>(access.sig.bits() & 0xffff);
  entry.cs_seen = access.in_cs;
}

}  // namespace

CheckOutcome check_global_access(GlobalShadowEntry& entry, const AccessInfo& access,
                                 const DetectPolicy& policy, const FenceIdReader& fence_reader) {
  CheckOutcome out;
  const u16 t = access.thread_slot & kTidMask;

  // State 1: first access since shadow initialization.
  if (entry.m && entry.s) {
    claim_global(entry, access);
    out.entry_changed = true;
    return out;
  }

  const bool same_block =
      entry.bid == (access.block_slot & 0x7) && entry.sid == (access.sm_id & 0x1f);
  const bool same_thread = same_block && entry.tid == t;
  const bool ordered_by_warp = !policy.warp_regrouping && same_block &&
                               same_warp(entry.tid, access, policy);

  // Sync-ID ordering (Section IV-B): within one block, accesses from
  // different barrier epochs are ordered — refresh the entry, no race.
  // Barriers do not order accesses across blocks, so the check is skipped
  // for cross-block pairs.
  if (same_block && entry.sync_id != access.sync_id) {
    claim_global(entry, access);
    out.entry_changed = true;
    return out;
  }

  // Lockset detection has priority inside critical sections (Sec. III-B).
  if (access.in_cs || entry.cs_seen) {
    const bool entry_protected = entry.sig != 0;
    const bool access_protected = !access.sig.empty();
    const BloomSignature stored(entry.sig);
    const bool anyone_wrote = entry.m || access.is_write;

    if (!same_thread && !ordered_by_warp && anyone_wrote) {
      if (entry_protected && access_protected) {
        if (BloomSignature::intersection_null(stored, access.sig, policy.bloom)) {
          out.race = make_race(access.is_write ? (entry.m ? RaceType::kWaw : RaceType::kWar)
                                               : RaceType::kRaw,
                               RaceMechanism::kLockset, MemSpace::kGlobal, entry.tid, access);
        }
      } else if (entry_protected != access_protected) {
        // Protected/unprotected mix on a written location.
        out.race = make_race(access.is_write ? (entry.m ? RaceType::kWaw : RaceType::kWar)
                                             : RaceType::kRaw,
                             RaceMechanism::kLockset, MemSpace::kGlobal, entry.tid, access);
      }
    }
    if (out.race) {
      claim_global(entry, access);
      out.entry_changed = true;
      return out;
    }
    // No lockset race: fold the access into the entry — keep the running
    // lock intersection and let M/S evolve below.
    if (entry_protected && access_protected) {
      const u16 inter =
          static_cast<u16>(BloomSignature::intersect(stored, access.sig).bits() & 0xffff);
      if (inter != entry.sig) {
        entry.sig = inter;
        out.entry_changed = true;
      }
    }
    if (access.in_cs && !entry.cs_seen) {
      entry.cs_seen = true;
      out.entry_changed = true;
    }
    // Properly locked accesses are mutually ordered; update ownership and
    // stop — the happens-before rules below must not re-flag them.
    if (entry_protected && access_protected) {
      const u16 keep_sig = entry.sig;
      const bool keep_cs = entry.cs_seen;
      claim_global(entry, access);
      entry.sig = keep_sig;
      entry.cs_seen = keep_cs;
      out.entry_changed = true;
      return out;
    }
  }

  // Happens-before rules (Figure 3), extended with the fence and stale-L1
  // checks for global memory.
  if (!entry.m && !entry.s) {
    // State 2: read-only by tid.
    if (!access.is_write) {
      if (!same_thread && !ordered_by_warp) {
        entry.s = true;
        out.entry_changed = true;
      }
      return out;
    }
    if (same_thread || ordered_by_warp) {
      entry.m = true;
      entry.tid = t;
      entry.fence_id = access.fence_id;
      out.entry_changed = true;
      return out;
    }
    out.race =
        make_race(RaceType::kWar, RaceMechanism::kBarrier, MemSpace::kGlobal, entry.tid, access);
  } else if (entry.m && !entry.s) {
    // State 3: written by tid.
    if (same_thread || ordered_by_warp) {
      if (access.is_write) entry.fence_id = access.fence_id;
      if (!same_thread) entry.tid = t;
      out.entry_changed = true;
      return out;
    }
    if (!access.is_write) {
      // Cross-SM read that hit in the reader's non-coherent L1: the
      // reader may consume stale data regardless of fences (Sec. IV-B).
      const bool cross_sm = entry.sid != (access.sm_id & 0x1f);
      if (cross_sm && access.l1_hit) {
        out.race = make_race(RaceType::kRaw, RaceMechanism::kL1Stale, MemSpace::kGlobal,
                             entry.tid, access);
      } else {
        // Fence gate (Section III-C): compare the stored fence ID with
        // the writer warp's current fence ID. A match means the writer
        // has not fenced since the write — report; a mismatch means the
        // update was published and may be consumed safely.
        const u32 writer_warp = entry.tid / policy.warp_size;
        const u8 current = (policy.fence_gating && fence_reader)
                               ? fence_reader(entry.sid, writer_warp)
                               : entry.fence_id;
        if (current == entry.fence_id) {
          out.race = make_race(RaceType::kRaw, RaceMechanism::kFence, MemSpace::kGlobal,
                               entry.tid, access);
        } else {
          // Safe consumption starts a fresh epoch owned by the reader.
          claim_global(entry, access);
          out.entry_changed = true;
          return out;
        }
      }
    } else {
      out.race = make_race(RaceType::kWaw, RaceMechanism::kBarrier, MemSpace::kGlobal, entry.tid,
                           access);
    }
  } else {
    // State 4: read by multiple warps/blocks.
    if (!access.is_write) return out;
    out.race =
        make_race(RaceType::kWar, RaceMechanism::kBarrier, MemSpace::kGlobal, entry.tid, access);
  }

  claim_global(entry, access);
  out.entry_changed = true;
  return out;
}

}  // namespace haccrg::rd
