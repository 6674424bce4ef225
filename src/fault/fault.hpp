// Seeded fault-injection layer for resilience campaigns (and nothing
// else: with an empty FaultPlan every hook is a null-pointer check and
// the simulation is byte-identical to a build without this subsystem).
//
// Determinism discipline (same as the epoch engine): every injection
// site gets one RNG stream per hardware unit — per SM for the SM and
// shared-shadow sites, per memory partition for the DRAM site, a single
// stream for the other sites rolled only in serial phases. A stream is
// advanced only by its own unit's deterministic event sequence, so a
// campaign's fault placement is bit-reproducible for any HACCRG_THREADS
// value; the fault-campaign determinism test asserts exactly this.
//
// Cross-unit effects are staged, not applied: the DRAM site records the
// flips a partition drew during its (parallel) step and the Gpu applies
// them to device memory in the serial post-step phase, in partition-id
// order — mirroring how the engine commits every other cross-SM effect.
#pragma once

#include <array>
#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace haccrg::fault {

/// Every place a fault can land. The order pins each site's RNG-stream
/// key and its HACCRG_FAULTS key, so it is append-only.
enum class FaultSite : u8 {
  kSharedShadowFlip = 0,  ///< bit flip in a SharedRdu shadow entry (pre-check)
  kGlobalShadowFlip,      ///< transient bit flip in a GlobalRdu shadow read
  kBloomFlip,             ///< bit flip in a thread's Bloom lockset signature
  kRaceRegDrop,           ///< race-register-file entry loss (fence/sync ID reset)
  kIcntDrop,              ///< request packet dropped (bounded retry re-sends it)
  kIcntDup,               ///< request packet duplicated
  kIcntDelay,             ///< request packet held one retry window
  kDramShadowFlip,        ///< persistent DRAM bit flip, confined to the shadow region
  kTraceCorrupt,          ///< byte corruption of a just-encoded trace record

  // Serving-layer sites (haccrg-served). Rolled by serve::Server through
  // a ServeFaults instance, never by the simulator's FaultInjector.
  kServeFrameTruncate,    ///< request frame loses its tail on the transport
  kServeFrameCorrupt,     ///< request frame takes a byte flip on the transport
  kServeDecodeCorrupt,    ///< a job's view of the decode cache is corrupted
  kServeWorkerStall,      ///< worker stalls before replaying a job
  kServeQueueReject,      ///< submit sees a spurious queue-full burst
};

inline constexpr u32 kNumFaultSites = 14;
/// First serving-layer site; [kFirstServeSite, kNumFaultSites) are the
/// sites ServeFaults rolls.
inline constexpr u32 kFirstServeSite = static_cast<u32>(FaultSite::kServeFrameTruncate);

/// Human name ("shared-shadow-flip") for reports.
std::string_view fault_site_name(FaultSite site);

/// HACCRG_FAULTS key ("shared_flip") for the config syntax.
std::string_view fault_site_key(FaultSite site);

/// A campaign configuration: one seed, one rate per site (parts per
/// million of that site's opportunities), and the interconnect retry
/// policy. Parsed from HACCRG_FAULTS ("seed=7,icnt_drop=500,...") or
/// built directly by the campaign harness.
struct FaultPlan {
  u64 seed = 0;
  std::array<u32, kNumFaultSites> rate_ppm{};

  /// Cycles a dropped/delayed packet waits before re-injection.
  u32 retry_timeout = 64;
  /// Drops/delays tolerated per packet before it is forced through
  /// (bounds worst-case latency; 0 disables the drop/delay sites).
  u32 max_retries = 4;

  u32 rate(FaultSite site) const { return rate_ppm[static_cast<u32>(site)]; }
  void set_rate(FaultSite site, u32 ppm) { rate_ppm[static_cast<u32>(site)] = ppm; }

  /// Any site armed?
  bool any() const;

  /// One-line rendering of the non-default knobs.
  std::string describe() const;

  /// Parse the HACCRG_FAULTS syntax: comma-separated key=value pairs.
  /// Keys: seed, retry_timeout, max_retries, and one key per site (see
  /// fault_site_key). Rates are ppm in [0, 1000000]. An empty string is
  /// a valid no-fault plan. On error, `out` is untouched.
  static Status parse(const std::string& text, FaultPlan& out);
};

/// One deterministic RNG stream (SplitMix64 keyed by seed/site/unit).
class FaultStream {
 public:
  FaultStream() = default;
  FaultStream(u64 seed, FaultSite site, u32 unit)
      : rng_(seed ^ (0x9e3779b97f4a7c15ULL *
                     (static_cast<u64>(site) * 1024 + unit + 1))) {}

  /// Bernoulli trial at `ppm` parts per million; advances the stream
  /// only when the site is armed so a zero-rate site costs nothing and
  /// never perturbs another site's placement.
  bool roll(u32 ppm) {
    if (ppm == 0) return false;
    const bool hit = rng_.next() % 1'000'000 < ppm;
    if (hit) ++injected_;
    return hit;
  }

  /// Auxiliary draw for fault parameters (which bit, which entry).
  u64 draw() { return rng_.next(); }

  u64 injected() const { return injected_; }

 private:
  SplitMix64 rng_{0};
  u64 injected_ = 0;
};

/// A staged DRAM shadow flip, applied serially by the Gpu.
struct DramFlip {
  Addr addr = 0;  ///< u64-aligned address inside the shadow region
  u32 bit = 0;    ///< bit index in [0, 64)
};

enum class IcntFaultKind : u8 { kNone = 0, kDrop, kDup, kDelay };

/// Per-launch injector: owns every site's streams and the DRAM-flip
/// staging. Wired into the simulator with raw pointers (null = off), so
/// the zero-fault hot path stays a single branch.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, u32 num_sms, u32 num_partitions);

  const FaultPlan& plan() const { return plan_; }

  // --- Per-SM sites (call only from SM `sm`'s thread) ------------------------
  /// True => flip `bit` (0..11, the architectural bits of a packed
  /// shared shadow entry) in the entry about to be checked. Rolled by the
  /// detector's SharedRdu in the serial flush sweep, in SM `sm`'s check
  /// order.
  bool shared_shadow_flip(u32 sm, u32& bit);
  /// bloom_flip and racereg_drop roll in the parallel SM phase, once per
  /// issued instruction; the SM stages their effects for the detector.
  /// True => corrupt a Bloom signature; `pick` seeds the thread/bit choice.
  bool bloom_flip(u32 sm, u64& pick);
  /// True => drop a race-register entry; `pick` seeds the warp/block choice.
  bool racereg_drop(u32 sm, u64& pick);

  // --- Serial commit-phase sites --------------------------------------------
  /// True => flip `bit` (0..63) in the global shadow word being read.
  bool global_shadow_flip(u32& bit);
  /// Fate of one request packet at commit (SM-id-ordered serial phase).
  IcntFaultKind icnt_fault(u32 sm);
  /// True => corrupt a freshly encoded trace record; `pick` seeds the
  /// byte offset and XOR mask.
  bool trace_corrupt(u64& pick);

  // --- Parallel partition-phase site (thread-confined staging) --------------
  /// Bounds within which DRAM flips are allowed (the shadow region).
  void set_shadow_region(Addr base, u64 bytes);
  /// Partition `partition` accepted a shadow packet covering
  /// [addr, addr+bytes); may stage a flip inside it. Thread-confined:
  /// touches only that partition's stream and staging slot.
  void note_shadow_packet(u32 partition, Addr addr, u32 bytes);
  /// Move every staged flip into `out` in partition-id order (the
  /// serial post-step phase). Returns true if any flip was staged.
  bool drain_dram_flips(std::vector<DramFlip>& out);

  // --- Accounting -----------------------------------------------------------
  u64 injected(FaultSite site) const;
  /// Injections that can silently suppress a detection (state corruption
  /// sites) — the fault half of the rd.coverage_lost invariant. The
  /// interconnect sites are excluded: packets are data-less, so their
  /// faults perturb timing, never detector state.
  u64 detector_state_injections() const;
  /// Adds one "fault.<key>" counter per site with a non-zero injection
  /// count (nothing for quiet sites, so zero-fault golden stats are
  /// byte-identical).
  void export_stats(StatSet& stats) const;

 private:
  FaultStream& stream(FaultSite site, u32 unit = 0) {
    return streams_[static_cast<u32>(site)][unit];
  }
  u32 rate(FaultSite site) const { return plan_.rate(site); }

  FaultPlan plan_;
  std::array<std::vector<FaultStream>, kNumFaultSites> streams_;
  std::vector<std::vector<DramFlip>> dram_staged_;  ///< one slot per partition
  Addr shadow_base_ = 0;
  u64 shadow_bytes_ = 0;
};

/// Injector for the serving-layer sites. Unlike FaultInjector's
/// per-unit advancing streams, every roll here is *stateless*: the
/// outcome is a pure function of (seed, site, event ordinal), so fault
/// placement does not depend on which worker thread handles which job
/// or how requests interleave — a chaos campaign replays bit-identically
/// from its seed and submission order alone. Counters are atomic; rolls
/// are safe from any thread.
class ServeFaults {
 public:
  explicit ServeFaults(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// Any serving site armed?
  bool any() const {
    for (u32 i = kFirstServeSite; i < kNumFaultSites; ++i)
      if (plan_.rate_ppm[i] != 0) return true;
    return false;
  }

  /// Bernoulli trial for `site` at event ordinal `event` (job id, frame
  /// ordinal, submit sequence — whatever identifies the opportunity).
  /// On a hit, `pick` (if non-null) receives a deterministic auxiliary
  /// draw for fault parameters (byte offset, XOR mask, ...).
  bool roll(FaultSite site, u64 event, u64* pick = nullptr) {
    const u32 ppm = plan_.rate(site);
    if (ppm == 0) return false;
    SplitMix64 rng(plan_.seed ^
                   (0x9e3779b97f4a7c15ULL * (static_cast<u64>(site) * 0x10001 + 1)) ^
                   (event * 0xd1342543de82ef95ULL));
    if (rng.next() % 1'000'000 >= ppm) return false;
    if (pick != nullptr) *pick = rng.next();
    injected_[static_cast<u32>(site)].fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  u64 injected(FaultSite site) const {
    return injected_[static_cast<u32>(site)].load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  std::array<std::atomic<u64>, kNumFaultSites> injected_{};
};

}  // namespace haccrg::fault
