#include "trace/replay.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "haccrg/global_rdu.hpp"
#include "mem/device_memory.hpp"
#include "trace/detector.hpp"

namespace haccrg::trace {

RaceKey race_key(const rd::RaceRecord& r) {
  return {static_cast<u8>(r.space), static_cast<u8>(r.type), static_cast<u8>(r.mechanism),
          r.granule_addr, r.sm_id, r.first_thread, r.second_thread, r.pc, r.cycle};
}

std::set<RaceKey> race_identity_set(const rd::RaceLog& log) {
  std::set<RaceKey> keys;
  for (const rd::RaceRecord& r : log.races()) keys.insert(race_key(r));
  return keys;
}

std::string race_key_line(const RaceKey& key) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "space=%u type=%u mech=%u granule=0x%x sm=%u first=%u second=%u pc=%u cycle=%llu",
                static_cast<unsigned>(std::get<0>(key)), static_cast<unsigned>(std::get<1>(key)),
                static_cast<unsigned>(std::get<2>(key)),
                static_cast<unsigned>(std::get<3>(key)), std::get<4>(key),
                static_cast<unsigned>(std::get<5>(key)), static_cast<unsigned>(std::get<6>(key)),
                std::get<7>(key), static_cast<unsigned long long>(std::get<8>(key)));
  return buf;
}

std::vector<std::string> race_set_lines(const rd::RaceLog& log) {
  std::vector<std::string> lines;
  for (const RaceKey& key : race_identity_set(log)) lines.push_back(race_key_line(key));
  return lines;  // std::set iteration is already sorted
}

std::set<RaceKey> ReplayResult::race_set() const {
  std::set<RaceKey> all;
  for (const KernelReplay& k : kernels)
    for (const rd::RaceRecord& r : k.races.races()) all.insert(race_key(r));
  return all;
}

namespace {

/// One kernel's detector plus the shadow-only device memory its global
/// RDU reads (application data is functional state the detectors never
/// read). A ReplayArena caches these between kernels: begin() resets the
/// detector for the next kernel and grows the memory only when a larger
/// heap shows up.
struct KernelState {
  TraceHeader built_for;  ///< header the detector was sized by (version cleared)
  bool hw = true;
  std::unique_ptr<mem::DeviceMemory> memory;
  std::unique_ptr<Detector> detector;

  KernelState(const TraceHeader& header, const ReplayOptions& opts)
      : built_for(header), hw(opts.hw) {
    // v1 and v2 recordings of the same machine are interchangeable here:
    // the version picks the file framing, not the detector state.
    built_for.version = 0;
    rd::HaccrgConfig cfg = header.haccrg_config();
    // Without the hardware detectors the detector still tracks block
    // slots, which the software emulators read.
    if (!opts.hw) cfg.enable_shared = cfg.enable_global = false;
    detector = std::make_unique<Detector>(header, cfg, opts.shard_count, opts.shard_index);
  }

  /// Can this cached state replay a kernel of `header` under `opts`?
  bool serves(const TraceHeader& header, const ReplayOptions& opts) const {
    TraceHeader h = header;
    h.version = 0;
    return h == built_for && opts.hw == hw;
  }

  void begin(const Event& begin) {
    if (hw && built_for.enable_global) {
      const u64 need = u64{begin.shadow_base} +
                       rd::GlobalRdu::shadow_bytes_for(begin.app_heap_bytes,
                                                       built_for.global_granularity) +
                       8;
      if (memory == nullptr || memory->size() < need)
        memory = std::make_unique<mem::DeviceMemory>(static_cast<u32>(need));
    }
    detector->begin_kernel(begin.block_dim, memory.get(), begin.shadow_base,
                           begin.app_heap_bytes);
  }
};

}  // namespace

/// Arena internals: cached KernelStates keyed by shard assignment, so
/// concurrent shard engines sharing one arena never contend for the
/// same slot. The mutex guards only acquire/release (per kernel, not
/// per event).
struct ReplayArena::Impl {
  std::mutex mu;
  std::map<std::pair<u32, u32>, std::unique_ptr<KernelState>> slots;
  u64 reuses = 0;
  u64 builds = 0;
};

ReplayArena::ReplayArena() : impl_(std::make_unique<Impl>()) {}
ReplayArena::~ReplayArena() = default;

u64 ReplayArena::reuses() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->reuses;
}

u64 ReplayArena::builds() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->builds;
}

namespace {

class ReplayEngine {
 public:
  ReplayEngine(const TraceHeader& header, const ReplayOptions& opts)
      : header_(header), opts_(opts) {}

  /// Streaming replay: decode events from the reader one at a time.
  ReplayResult run(TraceReader& reader) {
    result_.header = header_;
    Event event;
    while (reader.next(event)) {
      if (check_cancel()) return std::move(result_);
      ++result_.total_events;
      if (!handle(event)) return std::move(result_);
    }
    if (!reader.error().empty()) {
      fail(reader.error(), reader.status().code());
      return std::move(result_);
    }
    finish_kernel();
    result_.ok = true;
    return std::move(result_);
  }

  /// Pre-decoded replay: the varint layer was paid once by decode_trace.
  ReplayResult run(const Event* events, size_t count) {
    result_.header = header_;
    for (size_t i = 0; i < count; ++i) {
      if (check_cancel()) return std::move(result_);
      ++result_.total_events;
      if (!handle(events[i])) return std::move(result_);
    }
    finish_kernel();
    result_.ok = true;
    return std::move(result_);
  }

 private:
  /// Cooperative cancellation poll, once per kCancelCheckInterval events
  /// (cheap: one predictable branch on the polled cycles). True when the
  /// replay must stop — the result is already marked failed.
  bool check_cancel() {
    if (opts_.cancel == nullptr || result_.total_events % kCancelCheckInterval != 0)
      return false;
    if (!opts_.cancel->cancelled()) return false;
    fail("replay: cancelled (deadline exceeded)", StatusCode::kDeadlineExceeded);
    return true;
  }

  bool fail(const std::string& what, StatusCode why = StatusCode::kCorrupt) {
    if (result_.error.empty()) {
      result_.error = what;
      result_.code = why;
    }
    result_.ok = false;
    return false;
  }

  void finish_kernel() {
    if (state_ == nullptr) return;
    Detector& detector = *state_->detector;
    if (opts_.arena != nullptr) {
      // The state goes back to the arena for the next kernel, so copy
      // the log out instead of gutting it.
      current_.races = detector.log();
    } else {
      current_.races = std::move(detector.log());
    }
    current_.shared_checks = detector.shared_checks();
    current_.global_checks = detector.global_checks();
    if (sw_ != nullptr) {
      current_.sw_haccrg_races = sw_->races();
      current_.sw_haccrg_locations = sw_->locations();
    }
    if (grace_ != nullptr) {
      current_.grace_races = grace_->races();
      current_.grace_locations = grace_->locations();
    }
    sw_.reset();
    grace_.reset();
    result_.kernels.push_back(std::move(current_));
    current_ = KernelReplay();
    if (opts_.arena != nullptr) {
      ReplayArena::Impl& arena = opts_.arena->impl();
      std::lock_guard<std::mutex> lock(arena.mu);
      arena.slots[{opts_.shard_count, opts_.shard_index}] = std::move(state_);
    }
    state_.reset();
  }

  bool begin_kernel(const Event& event) {
    finish_kernel();
    const TraceHeader& h = header_;
    if (event.block_dim == 0 || event.block_dim > h.max_threads_per_sm)
      return fail("replay: kernel block_dim outside the machine's limits");
    // The event's heap and shadow fields size real allocations below; a
    // bit-flipped kKernelBegin must become a structured failure, not an
    // out-of-memory crash. Computed in 64 bits: the u32 fields can sum
    // past 4 GiB. Legitimate traces use tens of MiB.
    constexpr u64 kMaxReplayFootprint = u64{1} << 30;  // 1 GiB
    const u32 gran = h.global_granularity;
    const u64 shadow_bytes =
        (u64{event.app_heap_bytes} + gran - 1) / gran * rd::GlobalRdu::kEntryBytes;
    if (event.app_heap_bytes > kMaxReplayFootprint ||
        u64{event.shadow_base} + shadow_bytes + 8 > kMaxReplayFootprint)
      return fail("replay: kernel memory footprint exceeds the replay cap");
    if (opts_.arena != nullptr) {
      ReplayArena::Impl& arena = opts_.arena->impl();
      {
        std::lock_guard<std::mutex> lock(arena.mu);
        auto it = arena.slots.find({opts_.shard_count, opts_.shard_index});
        if (it != arena.slots.end()) state_ = std::move(it->second);
      }
      const bool reused = state_ != nullptr && state_->serves(h, opts_);
      // An incompatible cached state is simply dropped; the fresh build
      // replaces it in the slot at the next finish_kernel.
      if (!reused) state_ = std::make_unique<KernelState>(h, opts_);
      std::lock_guard<std::mutex> lock(arena.mu);
      reused ? ++arena.reuses : ++arena.builds;
    } else {
      state_ = std::make_unique<KernelState>(h, opts_);
    }
    state_->begin(event);
    if (opts_.sw_haccrg)
      sw_ = std::make_unique<SwHaccrgReplay>(event.app_heap_bytes, event.grid_dim,
                                             event.block_dim, opts_.sw_is_safe);
    if (opts_.grace)
      grace_ = std::make_unique<GraceReplay>(event.grid_dim, event.block_dim, opts_.sw_is_safe);
    current_.label = event.label;
    current_.grid_dim = event.grid_dim;
    current_.block_dim = event.block_dim;
    current_.shared_mem_bytes = event.shared_mem_bytes;
    current_.app_heap_bytes = event.app_heap_bytes;
    current_.shadow_base = event.shadow_base;
    return true;
  }

  /// Feed the software emulators an event the detector accepted (so its
  /// identifiers are in range).
  void emulate(const Event& event) {
    const BlockSlot& slot = state_->detector->slot(event.sm, event.block_slot);
    if (event.kind == EventKind::kBarrierRelease) {
      if (sw_ != nullptr) sw_->on_barrier_release(slot.block_id);
      if (grace_ != nullptr) grace_->on_barrier_release(slot.block_id);
      return;
    }
    if (!is_access_kind(event.kind) || event.kind == EventKind::kSharedAtomic ||
        event.kind == EventKind::kGlobalAtomic)
      return;
    if (sw_ != nullptr) sw_->on_access(event, slot.block_id, slot.smem_base);
    if (grace_ != nullptr && is_shared_access(event.kind))
      grace_->on_access(event, slot.block_id, slot.smem_base);
  }

  bool handle(const Event& event) {
    if (event.kind == EventKind::kKernelBegin) return begin_kernel(event);
    if (state_ == nullptr) return fail("replay: event before any kernel begin");
    ++current_.events;
    if (event.kind == EventKind::kKernelEnd) {
      current_.cycles = event.cycle;
      return true;
    }
    if (!state_->detector->consume(event)) return fail(state_->detector->error());
    if (sw_ != nullptr || grace_ != nullptr) emulate(event);
    return true;
  }

  const TraceHeader& header_;
  const ReplayOptions& opts_;
  ReplayResult result_;
  KernelReplay current_;
  std::unique_ptr<KernelState> state_;
  std::unique_ptr<SwHaccrgReplay> sw_;
  std::unique_ptr<GraceReplay> grace_;
};

}  // namespace

ReplayResult replay_events(TraceReader& reader, const ReplayOptions& opts) {
  if (!reader.ok()) {
    ReplayResult result;
    result.error = reader.error();
    result.code = reader.status().code();
    return result;
  }
  return ReplayEngine(reader.header(), opts).run(reader);
}

ReplayResult replay_trace(const std::string& path, const ReplayOptions& opts) {
  TraceReader reader(path);
  return replay_events(reader, opts);
}

Status decode_trace(TraceReader& reader, DecodedTrace& out) {
  if (!reader.ok()) return reader.status();
  reader.rewind();
  DecodedTrace decoded;
  decoded.header = reader.header();
  decoded.bytes = reader.bytes_total();
  Event event;
  while (reader.next(event)) decoded.events.push_back(event);
  if (!reader.error().empty()) return reader.status();
  out = std::move(decoded);
  return Status();
}

Status decode_trace_kernel(TraceReader& reader, const TraceIndexKernel& kernel,
                           DecodedTrace& out) {
  if (!reader.ok()) return reader.status();
  // A kernel-begin record resets the cycle delta base to 0 (format.hpp),
  // so seeking to one needs no carried decode state.
  if (Status seek = reader.seek(kernel.begin_offset, /*cycle=*/0, /*events_before=*/0);
      !seek.ok())
    return seek;
  DecodedTrace decoded;
  decoded.header = reader.header();
  decoded.bytes = kernel.end_offset - kernel.begin_offset;
  Event event;
  if (!reader.next(event) || event.kind != EventKind::kKernelBegin)
    return reader.error().empty()
               ? Status::corrupt("trace index: kernel offset does not start a kernel")
               : reader.status();
  decoded.events.push_back(event);
  for (u64 i = 0; i < kernel.events; ++i) {
    if (!reader.next(event))
      return reader.error().empty() ? Status::corrupt("trace index: kernel shorter than indexed")
                                    : reader.status();
    decoded.events.push_back(event);
  }
  out = std::move(decoded);
  return Status();
}

ReplayResult replay_decoded(const DecodedTrace& trace, const ReplayOptions& opts) {
  return ReplayEngine(trace.header, opts).run(trace.events.data(), trace.events.size());
}

ReplayResult replay_sharded(const DecodedTrace& trace, u32 workers, const ReplayOptions& opts) {
  if (workers <= 1) {
    ReplayOptions serial = opts;
    serial.shard_count = 1;
    serial.shard_index = 0;
    return replay_decoded(trace, serial);
  }
  std::vector<ReplayResult> parts(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (u32 w = 0; w < workers; ++w) {
    threads.emplace_back([&trace, &parts, &opts, workers, w] {
      ReplayOptions shard = opts;
      shard.shard_count = workers;
      shard.shard_index = w;
      parts[w] = replay_decoded(trace, shard);
    });
  }
  for (std::thread& t : threads) t.join();
  for (u32 w = 0; w < workers; ++w)
    if (!parts[w].ok) return std::move(parts[w]);
  // Deterministic merge: shard race sets are disjoint (each granule has
  // exactly one owner), so union-in-shard-order rebuilds the serial
  // result independent of thread scheduling.
  ReplayResult merged = std::move(parts[0]);
  for (u32 w = 1; w < workers; ++w) {
    ReplayResult& part = parts[w];
    if (part.kernels.size() != merged.kernels.size()) {
      merged.ok = false;
      merged.error = "sharded replay: shard kernel counts diverge";
      merged.code = StatusCode::kCorrupt;
      return merged;
    }
    for (size_t k = 0; k < merged.kernels.size(); ++k) {
      KernelReplay& into = merged.kernels[k];
      const KernelReplay& from = part.kernels[k];
      for (const rd::RaceRecord& race : from.races.races()) into.races.record(race);
      into.shared_checks += from.shared_checks;
      into.global_checks += from.global_checks;
    }
  }
  return merged;
}

}  // namespace haccrg::trace
