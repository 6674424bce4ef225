// SM <-> memory-partition interconnect: per-partition request queues and
// per-SM response queues, each modelled as a fixed-latency pipe with a
// bounded per-cycle acceptance rate.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "mem/packets.hpp"

namespace haccrg::mem {

/// Fixed-latency, rate-limited pipe of T.
template <typename T>
class LatencyPipe {
 public:
  LatencyPipe(u32 latency, u32 per_cycle) : latency_(latency), per_cycle_(per_cycle) {}

  /// Can another item be accepted at `now`?
  bool can_push(Cycle now) const {
    return last_push_cycle_ != now || pushed_this_cycle_ < per_cycle_;
  }

  void push(Cycle now, T item) {
    if (last_push_cycle_ != now) {
      last_push_cycle_ = now;
      pushed_this_cycle_ = 0;
    }
    ++pushed_this_cycle_;
    queue_.push_back({now + latency_, std::move(item)});
  }

  /// Is an item ready to pop at `now`?
  bool has_ready(Cycle now) const { return !queue_.empty() && queue_.front().ready <= now; }

  /// Pop the next item whose latency has elapsed, if any.
  std::optional<T> pop_ready(Cycle now) {
    if (!has_ready(now)) return std::nullopt;
    T item = std::move(queue_.front().item);
    queue_.pop_front();
    return item;
  }

  bool empty() const { return queue_.empty(); }
  size_t depth() const { return queue_.size(); }

 private:
  struct Entry {
    Cycle ready;
    T item;
  };
  u32 latency_;
  u32 per_cycle_;
  std::deque<Entry> queue_;
  Cycle last_push_cycle_ = ~Cycle{0};
  u32 pushed_this_cycle_ = 0;
};

/// The on-chip network: one request pipe per memory partition and one
/// response pipe per SM, plus the per-worker staging queues the parallel
/// engine uses. During a parallel epoch phase each SM appends requests to
/// its own staging queue (and each partition to its own response slot);
/// at the epoch barrier the engine commits them into the shared pipes in
/// SM-id / partition-id order, so packet arrival order — and therefore
/// every downstream timing decision — is identical for any thread count.
class Interconnect {
 public:
  Interconnect(u32 num_sms, u32 num_partitions, u32 latency, u32 per_cycle);

  /// Arm fault injection on the request path (null = off). Faults are
  /// rolled in commit_requests — a serial phase — using the injector's
  /// per-SM interconnect streams, so placement depends only on each SM's
  /// own packet sequence. A dropped or delayed packet
  /// parks in a per-SM retry buffer and is re-injected after the plan's
  /// retry_timeout; after max_retries failed attempts it is forced
  /// through so a 100% fault rate still terminates.
  void set_faults(fault::FaultInjector* faults) {
    faults_ = faults;
    if (faults_ != nullptr && retry_.size() != request_staging_.size())
      retry_.resize(request_staging_.size());
  }

  // The per-cycle queries below run once per SM (or partition) per cycle
  // in the engine's hot loop, so they are defined inline.
  bool can_send_request(u32 partition, Cycle now) const {
    return to_partition_[partition].can_push(now);
  }
  void send_request(u32 partition, Cycle now, Packet pkt) {
    ++request_packets_;
    to_partition_[partition].push(now, std::move(pkt));
  }
  bool has_request(u32 partition, Cycle now) const {
    return to_partition_[partition].has_ready(now);
  }
  std::optional<Packet> recv_request(u32 partition, Cycle now) {
    return to_partition_[partition].pop_ready(now);
  }

  bool can_send_response(u32 sm, Cycle now) const { return to_sm_[sm].can_push(now); }
  void send_response(u32 sm, Cycle now, Response rsp) {
    ++response_packets_;
    to_sm_[sm].push(now, rsp);
  }
  std::optional<Response> recv_response(u32 sm, Cycle now) {
    return to_sm_[sm].pop_ready(now);
  }
  /// True when SM `sm` has a response ready this cycle (cheap pre-check
  /// that saves the optional machinery on the common empty path).
  bool has_response(u32 sm, Cycle now) const { return to_sm_[sm].has_ready(now); }

  // --- Epoch staging (thread-confined per SM / per partition) ---------------
  /// Append a request to SM `sm`'s staging queue (pkt.dest_partition must
  /// be set). Safe to call concurrently for distinct `sm`.
  void stage_request(u32 sm, Packet pkt) { request_staging_[sm].push_back(std::move(pkt)); }
  /// Requests still staged (or back-pressured) for SM `sm`.
  size_t staged_requests(u32 sm) const { return request_staging_[sm].size(); }
  /// Anything left to commit for SM `sm` — staged or awaiting retry.
  bool has_pending(u32 sm) const {
    return !request_staging_[sm].empty() || (!retry_.empty() && !retry_[sm].empty());
  }
  /// Total packets awaiting injection across all SMs (staged + parked
  /// retries, ripe or not). commit_requests uses it to return early on
  /// idle cycles; it is a pure census, so calling it does not perturb
  /// arbitration.
  u64 pending_requests() const {
    u64 pending = 0;
    for (const auto& queue : request_staging_) pending += queue.size();
    for (const auto& retries : retry_) pending += retries.size();
    return pending;
  }
  /// Push every SM's staged requests into the partition pipes with a
  /// round-robin grant (one packet per SM per round; within an SM oldest
  /// first, stalling at the first rate-limited packet — head-of-line
  /// blocking, like a real injection port). Serial phase only; the engine
  /// calls this once per cycle after the SM commit loop.
  void commit_requests(Cycle now);

  /// Stage a response produced by partition `partition` this cycle.
  /// Safe to call concurrently for distinct `partition`.
  void stage_response(u32 partition, Response rsp) {
    response_staging_[partition].push_back(rsp);
  }
  /// Push all staged responses into the SM pipes in partition-id order.
  /// Serial phase only.
  void commit_responses(Cycle now);

  u32 num_sms() const { return static_cast<u32>(to_sm_.size()); }

  bool idle() const;
  u64 request_packets() const { return request_packets_; }

  void export_stats(StatSet& stats) const;

 private:
  /// A dropped/delayed request waiting out its retry window.
  struct RetryEntry {
    Cycle ready = 0;  ///< earliest re-injection cycle
    u32 tries = 0;    ///< failed injection attempts so far
    Packet pkt;
  };

  /// Try to inject one packet, rolling the fault sites unless the packet
  /// has exhausted its retries. Returns false if the packet was parked
  /// in the retry buffer instead of entering the pipe.
  bool inject_request(u32 sm, Cycle now, Packet pkt, u32 tries);

  /// One arbitration-round step for SM `sm`: move its oldest pending
  /// packet (ripe retry, else staged) into its partition pipe. Returns
  /// false when the SM has nothing ripe or its head packet's pipe is
  /// rate-limited this cycle.
  bool inject_one(u32 sm, Cycle now);

  std::vector<LatencyPipe<Packet>> to_partition_;
  std::vector<LatencyPipe<Response>> to_sm_;
  std::vector<std::deque<Packet>> request_staging_;    ///< one queue per SM
  std::vector<std::vector<Response>> response_staging_;  ///< one slot per partition
  std::vector<std::deque<RetryEntry>> retry_;  ///< per SM; allocated when faults arm
  std::vector<u32> arb_active_;  ///< commit_requests scratch: SMs still in arbitration
  fault::FaultInjector* faults_ = nullptr;
  u64 request_packets_ = 0;
  u64 response_packets_ = 0;
  u64 fault_drops_ = 0;
  u64 fault_dups_ = 0;
  u64 fault_delays_ = 0;
  u64 fault_forced_ = 0;
  u64 retry_cycles_ = 0;  ///< total cycles packets spent parked for retry
};

}  // namespace haccrg::mem
