#include "mem/coalescer.hpp"

namespace haccrg::mem {

CoalesceBuffer::Segment& CoalesceBuffer::acquire(Addr addr) {
  if (count_ == slots_.size()) slots_.emplace_back();
  Segment& seg = slots_[count_++];
  seg.addr = addr;
  seg.access_indices.clear();
  return seg;
}

void CoalesceBuffer::build(const std::vector<LaneAccess>& accesses, u32 segment_bytes) {
  count_ = 0;
  for (u32 i = 0; i < static_cast<u32>(accesses.size()); ++i) {
    const LaneAccess& a = accesses[i];
    const Addr first = a.addr & ~(segment_bytes - 1);
    const Addr last = (a.addr + a.size - 1) & ~(segment_bytes - 1);
    for (Addr seg_addr = first; seg_addr <= last; seg_addr += segment_bytes) {
      Segment* seg = nullptr;
      for (u32 s = 0; s < count_; ++s) {
        if (slots_[s].addr == seg_addr) {
          seg = &slots_[s];
          break;
        }
      }
      if (seg == nullptr) {
        acquire(seg_addr).access_indices.push_back(i);
      } else if (seg->access_indices.empty() ||
                 accesses[seg->access_indices.back()].lane != a.lane) {
        seg->access_indices.push_back(i);
      }
      if (seg_addr > last - segment_bytes && seg_addr == last) break;  // avoid overflow wrap
    }
  }
}

std::vector<CoalescedSegment> coalesce(const std::vector<LaneAccess>& accesses,
                                       u32 segment_bytes) {
  CoalesceBuffer buffer;
  buffer.build(accesses, segment_bytes);
  std::vector<CoalescedSegment> segments(buffer.size());
  for (u32 s = 0; s < buffer.size(); ++s) {
    segments[s].addr = buffer[s].addr;
    segments[s].lanes.reserve(buffer[s].access_indices.size());
    for (u32 idx : buffer[s].access_indices) segments[s].lanes.push_back(accesses[idx].lane);
  }
  return segments;
}

void WawBuffer::build(const std::vector<LaneAccess>& accesses, u32 granule_bytes) {
  conflicts_.clear();
  // A warp whose granules rise lane by lane (the common unit-stride
  // store) has no two lanes on one granule.
  const Addr mask = ~(granule_bytes - 1);
  bool rising = true;
  for (size_t i = 1; i < accesses.size() && rising; ++i)
    rising = (accesses[i - 1].addr & mask) < (accesses[i].addr & mask);
  if (rising) return;
  // Otherwise look each granule up in an open-addressed table at most
  // half full; a per-build stamp marks the live slots, so the table is
  // never cleared.
  size_t size = table_.empty() ? 64 : table_.size();
  while (size < 2 * accesses.size()) size *= 2;
  if (table_.size() < size || ++stamp_ == 0) {
    table_.assign(size, Slot{});
    stamp_ = 1;
  }
  const u32 slots = static_cast<u32>(table_.size() - 1);  // index mask
  for (const LaneAccess& a : accesses) {
    const Addr granule = a.addr & mask;
    u32 h = ((granule * 0x9E3779B1u) >> 16) & slots;
    while (table_[h].stamp == stamp_ && table_[h].granule != granule) h = (h + 1) & slots;
    Slot& slot = table_[h];
    if (slot.stamp != stamp_) {
      slot = {stamp_, granule, a.lane, false};
    } else if (slot.first_lane != a.lane && !slot.conflicted) {
      slot.conflicted = true;
      conflicts_.push_back({slot.first_lane, a.lane, granule});
    }
  }
}

std::vector<IntraWarpConflict> intra_warp_waw(const std::vector<LaneAccess>& accesses,
                                              u32 granule_bytes) {
  WawBuffer buffer;
  buffer.build(accesses, granule_bytes);
  return buffer.conflicts();
}

}  // namespace haccrg::mem
