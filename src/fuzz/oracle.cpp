#include "fuzz/oracle.hpp"

#include <algorithm>
#include <sstream>

namespace haccrg::fuzz {

namespace {

const std::string_view kClassNames[kNumOracleClasses] = {
    "shared-epoch", "global-epoch", "fence", "lockset", "intra-warp-waw", "atomic-blind",
};

bool contains(const std::vector<u32>& pcs, u32 pc) {
  return std::find(pcs.begin(), pcs.end(), pc) != pcs.end();
}

std::string describe(const OraclePair& pair) {
  std::ostringstream out;
  out << oracle_class_name(pair.cls) << " ["
      << (pair.space == rd::MemSpace::kShared ? "shared" : "global") << " pcs";
  for (u32 pc : pair.pcs) out << " " << pc;
  out << "] (" << pair.note << ")";
  return out.str();
}

}  // namespace

std::string_view oracle_class_name(OracleClass cls) {
  return kClassNames[static_cast<u32>(cls)];
}

bool mechanism_matches(OracleClass cls, rd::RaceMechanism mechanism) {
  switch (cls) {
    case OracleClass::kSharedEpoch:
    case OracleClass::kGlobalEpoch:
      return mechanism == rd::RaceMechanism::kBarrier;
    case OracleClass::kFence:
      return mechanism == rd::RaceMechanism::kFence || mechanism == rd::RaceMechanism::kL1Stale;
    case OracleClass::kLockset:
      return mechanism == rd::RaceMechanism::kLockset;
    case OracleClass::kIntraWarpWaw:
      return mechanism == rd::RaceMechanism::kIntraWarpWaw;
    case OracleClass::kAtomicBlind:
      return false;  // nothing may witness it
  }
  return false;
}

bool RaceOracle::any_hw_visible() const {
  for (const OraclePair& p : pairs)
    if (p.hw_visible) return true;
  return false;
}

std::vector<u32> RaceOracle::hw_racy_pcs() const {
  std::vector<u32> out;
  for (const OraclePair& p : pairs)
    if (p.hw_visible)
      for (u32 pc : p.pcs)
        if (!contains(out, pc)) out.push_back(pc);
  return out;
}

std::vector<u32> RaceOracle::racy_pcs() const {
  std::vector<u32> out;
  for (const OraclePair& p : pairs)
    for (u32 pc : p.pcs)
      if (!contains(out, pc)) out.push_back(pc);
  return out;
}

std::vector<std::string> RaceOracle::check_hw_complete(const rd::RaceLog& log) const {
  std::vector<std::string> violations;
  for (const OraclePair& pair : pairs) {
    if (!pair.hw_visible || pair.schedule_dependent) continue;
    bool found = false;
    for (const rd::RaceRecord& race : log.races()) {
      if (race.space != pair.space) continue;
      if (!mechanism_matches(pair.cls, race.mechanism)) continue;
      if (!contains(pair.pcs, race.pc)) continue;
      found = true;
      break;
    }
    if (!found)
      violations.push_back("hw missed oracle race: " + describe(pair));
  }
  return violations;
}

std::vector<std::string> RaceOracle::check_hw_precise(const rd::RaceLog& log) const {
  std::vector<std::string> violations;
  for (const rd::RaceRecord& race : log.races()) {
    bool explained = false;
    for (const OraclePair& pair : pairs) {
      if (!pair.hw_visible) continue;
      if (race.space != pair.space) continue;
      if (!mechanism_matches(pair.cls, race.mechanism)) continue;
      if (!contains(pair.pcs, race.pc)) continue;
      explained = true;
      break;
    }
    if (!explained) {
      std::ostringstream out;
      out << "hw false positive: unexplained race pc=" << race.pc << " space="
          << (race.space == rd::MemSpace::kShared ? "shared" : "global")
          << " mechanism=" << rd::race_mechanism_name(race.mechanism) << " granule=0x" << std::hex
          << race.granule_addr;
      violations.push_back(out.str());
    }
  }
  return violations;
}

}  // namespace haccrg::fuzz
