// Global-memory access coalescer: merges the active lanes' addresses of a
// warp memory instruction into line-sized transactions, as CUDA hardware
// does. Also reports lanes whose accesses fall into the same
// race-detection granule — the intra-warp write-after-write check HAccRG
// performs before a request is issued (Section III-A).
//
// The SM issue path runs one coalesce per global-memory instruction, so
// both operations come in an allocation-free flavor (CoalesceBuffer /
// WawBuffer) that reuses caller-owned scratch across instructions; the
// vector-returning forms below are convenience wrappers for tests and
// microbenchmarks.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace haccrg::mem {

/// One lane's memory access within a warp instruction.
struct LaneAccess {
  u32 lane = 0;
  Addr addr = 0;
  u8 size = 4;
};

/// A coalesced transaction: the segment-aligned address plus the lanes it
/// serves.
struct CoalescedSegment {
  Addr addr = 0;  ///< aligned to segment_bytes
  std::vector<u32> lanes;
};

/// Reusable coalescer scratch: segments store *indices into the access
/// array* (so callers can reach the full LaneAccess without a search).
/// Slots and their index vectors are pooled across calls — steady-state
/// coalescing performs no heap allocation.
class CoalesceBuffer {
 public:
  struct Segment {
    Addr addr = 0;
    std::vector<u32> access_indices;  ///< first-touch order, deduped like lanes
  };

  /// Recompute segments for `accesses`; previous contents are discarded.
  /// Segment order is first-touch order and, within a segment, indices
  /// follow access order — identical to the vector-returning coalesce().
  void build(const std::vector<LaneAccess>& accesses, u32 segment_bytes);

  u32 size() const { return count_; }
  const Segment& operator[](u32 i) const { return slots_[i]; }

 private:
  Segment& acquire(Addr addr);

  std::vector<Segment> slots_;
  u32 count_ = 0;
};

/// Merge lane accesses into `segment_bytes`-sized transactions.
std::vector<CoalescedSegment> coalesce(const std::vector<LaneAccess>& accesses,
                                       u32 segment_bytes);

/// Pairs of lanes writing to the same granule within one warp store
/// (intra-warp WAW). Returns one representative pair per granule.
struct IntraWarpConflict {
  u32 lane_a = 0;
  u32 lane_b = 0;
  Addr granule_addr = 0;
};

/// Reusable intra-warp WAW scratch (a flat table, no per-call allocation
/// in steady state). Conflicts are reported in the same order as
/// intra_warp_waw(): the order each granule's second writer is seen.
class WawBuffer {
 public:
  void build(const std::vector<LaneAccess>& accesses, u32 granule_bytes);

  const std::vector<IntraWarpConflict>& conflicts() const { return conflicts_; }

 private:
  struct Slot {
    u32 stamp = 0;  ///< the build that filled the slot (0 = never)
    Addr granule = 0;
    u32 first_lane = 0;  ///< the granule's first writer
    bool conflicted = false;  ///< a second writer was reported
  };
  std::vector<Slot> table_;  ///< granules seen this build, open addressing
  u32 stamp_ = 0;
  std::vector<IntraWarpConflict> conflicts_;
};

std::vector<IntraWarpConflict> intra_warp_waw(const std::vector<LaneAccess>& accesses,
                                              u32 granule_bytes);

}  // namespace haccrg::mem
