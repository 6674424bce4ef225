#include "haccrg/race.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace haccrg::rd {

std::string_view race_type_name(RaceType t) {
  switch (t) {
    case RaceType::kWaw: return "WAW";
    case RaceType::kWar: return "WAR";
    case RaceType::kRaw: return "RAW";
  }
  return "?";
}

std::string_view race_mechanism_name(RaceMechanism m) {
  switch (m) {
    case RaceMechanism::kBarrier: return "barrier";
    case RaceMechanism::kLockset: return "lockset";
    case RaceMechanism::kFence: return "fence";
    case RaceMechanism::kL1Stale: return "l1-stale";
    case RaceMechanism::kIntraWarpWaw: return "intra-warp-waw";
  }
  return "?";
}

std::string RaceRecord::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s race (%s) in %s memory at 0x%x: threads %u and %u on SM%u, pc %u, cycle %llu",
                std::string(race_type_name(type)).c_str(),
                std::string(race_mechanism_name(mechanism)).c_str(),
                space == MemSpace::kShared ? "shared" : "global", granule_addr, first_thread,
                second_thread, sm_id, pc, static_cast<unsigned long long>(cycle));
  return buf;
}

bool RaceLog::record(const RaceRecord& race) {
  ++total_;
  const u64 key_lo = static_cast<u64>(race.granule_addr) | (static_cast<u64>(race.pc) << 32);
  const u32 key_hi = static_cast<u32>(race.space) | (static_cast<u32>(race.type) << 8) |
                     (static_cast<u32>(race.mechanism) << 16);
  // Grow before probing so the table never saturates (keeps the probe
  // loop guaranteed to find an empty slot).
  if (occupied_ * 10 >= seen_.size() * 7) grow();
  const u64 mask = seen_.size() - 1;
  // FNV-1a style mix of the 96-bit key into a table index.
  u64 h = 1469598103934665603ull;
  h = (h ^ key_lo) * 1099511628211ull;
  h = (h ^ key_hi) * 1099511628211ull;
  for (u64 i = h & mask;; i = (i + 1) & mask) {
    Slot& slot = seen_[i];
    if (slot.count == 0) {
      if (max_unique_ != 0 && occupied_ >= max_unique_) {
        // Saturated: the key is new but the table is full. Dropping it is
        // a counted degradation, not silent loss — saturated() feeds the
        // run's rd.coverage_lost accounting.
        ++saturated_;
        return false;
      }
      slot.key_lo = key_lo;
      slot.key_hi = key_hi;
      slot.count = 1;
      ++occupied_;
      if (races_.size() < max_recorded_) races_.push_back(race);
      return true;
    }
    if (slot.key_lo == key_lo && slot.key_hi == key_hi) {
      ++slot.count;
      return false;
    }
  }
}

void RaceLog::grow() {
  std::vector<Slot> old = std::move(seen_);
  seen_.assign(old.size() * 2, Slot{});
  const u64 mask = seen_.size() - 1;
  for (const Slot& s : old) {
    if (s.count == 0) continue;
    u64 h = 1469598103934665603ull;
    h = (h ^ s.key_lo) * 1099511628211ull;
    h = (h ^ s.key_hi) * 1099511628211ull;
    for (u64 i = h & mask;; i = (i + 1) & mask) {
      if (seen_[i].count == 0) {
        seen_[i] = s;
        break;
      }
    }
  }
}

u64 RaceLog::count(RaceMechanism m) const {
  u64 n = 0;
  for (const auto& r : races_)
    if (r.mechanism == m) ++n;
  return n;
}

u64 RaceLog::count(RaceType t) const {
  u64 n = 0;
  for (const auto& r : races_)
    if (r.type == t) ++n;
  return n;
}

u64 RaceLog::count(MemSpace s) const {
  u64 n = 0;
  for (const auto& r : races_)
    if (r.space == s) ++n;
  return n;
}

void RaceLog::clear() {
  total_ = 0;
  saturated_ = 0;
  occupied_ = 0;
  // Keep capacity: clearing between kernels must not reallocate.
  std::fill(seen_.begin(), seen_.end(), Slot{});
  races_.clear();
}

std::string RaceLog::summary() const {
  std::ostringstream out;
  out << unique() << " unique races (" << total_ << " dynamic):";
  if (races_.empty()) {
    out << " none";
  } else {
    out << "\n";
    for (const auto& r : races_) out << "  " << r.describe() << "\n";
  }
  return out.str();
}

std::set<RaceLocation> race_locations(const RaceLog& log) {
  std::set<RaceLocation> out;
  for (const RaceRecord& race : log.races()) out.insert({race.space, race.granule_addr});
  return out;
}

}  // namespace haccrg::rd
