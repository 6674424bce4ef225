#include "sim/gpu.hpp"

#include "sim/engine.hpp"

namespace haccrg::sim {

namespace {

/// The machine and detector a run models, as a trace header records them
/// (and the geometry a live detector is sized by).
trace::TraceHeader header_for(const arch::GpuConfig& gpu, const rd::HaccrgConfig& haccrg) {
  trace::TraceHeader header;
  header.num_sms = gpu.num_sms;
  header.warp_size = gpu.warp_size;
  header.max_blocks_per_sm = gpu.max_blocks_per_sm;
  header.max_threads_per_sm = gpu.max_threads_per_sm;
  header.shared_mem_per_sm = gpu.shared_mem_per_sm;
  header.shared_mem_banks = gpu.shared_mem_banks;
  header.l1_line = gpu.l1_line;
  header.device_mem_bytes = gpu.device_mem_bytes;
  header.enable_shared = haccrg.enable_shared;
  header.enable_global = haccrg.enable_global;
  header.warp_regrouping = haccrg.warp_regrouping;
  header.disable_fence_gate = haccrg.disable_fence_gate;
  header.static_filter = haccrg.static_filter;
  header.shared_shadow = static_cast<u8>(haccrg.shared_shadow);
  header.shared_granularity = haccrg.shared_granularity;
  header.global_granularity = haccrg.global_granularity;
  header.bloom_bits = haccrg.bloom_bits;
  header.bloom_bins = haccrg.bloom_bins;
  header.max_recorded_races = haccrg.max_recorded_races;
  return header;
}

}  // namespace

Gpu::Gpu(const arch::GpuConfig& gpu_config, const rd::HaccrgConfig& haccrg_config,
         const SimConfig& sim_config)
    : gpu_config_(gpu_config), haccrg_config_(haccrg_config), sim_config_(sim_config),
      memory_(gpu_config.device_mem_bytes), allocator_(memory_) {
  if (!sim_config_.trace_path.empty()) {
    trace_writer_ = std::make_unique<trace::TraceWriter>(sim_config_.trace_path);
    if (sim_config_.trace_index) trace_writer_->enable_index();
    trace_writer_->write_header(header_for(gpu_config_, haccrg_config_));
  }
}

Gpu::~Gpu() = default;

SimResult Gpu::launch(const LaunchConfig& launch) {
  SimResult result;
  if (launch.program == nullptr) {
    result.error = "no program";
    return result;
  }
  if (const std::string err = launch.program->validate(); !err.empty()) {
    result.error = "invalid program: " + err;
    return result;
  }
  if (const std::string err = gpu_config_.validate(); !err.empty()) {
    result.error = "invalid gpu config: " + err;
    return result;
  }
  if (const Status st = haccrg_config_.validate(); !st.ok()) {
    result.error = "invalid haccrg config: " + st.to_string();
    return result;
  }
  if (launch.block_dim == 0 || launch.block_dim > gpu_config_.max_threads_per_sm) {
    result.error = "block_dim out of range";
    return result;
  }
  if (launch.shared_mem_bytes > gpu_config_.shared_mem_per_sm) {
    result.error = "shared memory request exceeds capacity";
    return result;
  }
  if (haccrg_config_.static_filter && launch.static_report != nullptr) {
    // A report built for the wrong granularity (or warp grouping, or
    // geometry) silently skips checks the detector needed — reject the
    // launch instead of running unsound.
    if (const Status st = analysis::filter_compatible(launch.static_report->options,
                                                      haccrg_config_, launch.block_dim,
                                                      launch.grid_dim);
        !st.ok()) {
      result.error = "incompatible static report: " + st.message();
      return result;
    }
  }

  // Fault-injection campaign (SimConfig::faults / HACCRG_FAULTS). The
  // injector lives for one launch; every hook below is a null pointer
  // when no site is armed, so the zero-fault path is unchanged.
  std::unique_ptr<fault::FaultInjector> faults;
  if (sim_config_.faults.any()) {
    faults = std::make_unique<fault::FaultInjector>(sim_config_.faults, gpu_config_.num_sms,
                                                    gpu_config_.num_mem_partitions);
  }

  // Global shadow region: allocated at launch over the application heap
  // (the paper's cudaMalloc step).
  Addr shadow_base = 0;
  u32 shadow_bytes = 0;
  const u32 app_bytes = allocator_.heap_top();
  if (haccrg_config_.enable_global) {
    shadow_bytes = rd::GlobalRdu::shadow_bytes_for(app_bytes, haccrg_config_.global_granularity);
    shadow_base = static_cast<Addr>(align_up(app_bytes, 256));
    if (static_cast<u64>(shadow_base) + shadow_bytes > memory_.size()) {
      result.error = "device memory too small for the global shadow region";
      return result;
    }
    if (faults != nullptr) faults->set_shadow_region(shadow_base, shadow_bytes);
  }

  // One detector per launch consumes the events the SMs build. Its global
  // shadow lives in this Gpu's memory, which it invalidates (zeroes)
  // here, so DRAM shadow flips land in the entries it reads.
  std::unique_ptr<trace::Detector> detector;
  if (haccrg_config_.any_enabled()) {
    detector = std::make_unique<trace::Detector>(header_for(gpu_config_, haccrg_config_),
                                                 haccrg_config_);
    detector->set_faults(faults.get());
    detector->begin_kernel(launch.block_dim, &memory_, shadow_base, app_bytes);
  }

  // Software-placed shared shadow (Figure 8): a per-SM region of device
  // memory mirrors the scratchpad's shadow entries.
  Addr sw_shadow_base = 0;
  u32 sw_shadow_per_sm = 0;
  if (haccrg_config_.enable_shared &&
      haccrg_config_.shared_shadow == rd::SharedShadowPlacement::kGlobalMemory) {
    sw_shadow_per_sm = static_cast<u32>(
        align_up(ceil_div(gpu_config_.shared_mem_per_sm, haccrg_config_.shared_granularity) * 2,
                 gpu_config_.l1_line));
    u64 need = static_cast<u64>(sw_shadow_per_sm) * gpu_config_.num_sms;
    Addr base = static_cast<Addr>(
        align_up(app_bytes + (haccrg_config_.enable_global ? u64{shadow_bytes} + 256 : 0), 256));
    if (base + need > memory_.size()) {
      result.error = "device memory too small for the software shared shadow";
      return result;
    }
    sw_shadow_base = base;
  }

  mem::Interconnect icnt(gpu_config_.num_sms, gpu_config_.num_mem_partitions,
                         gpu_config_.icnt_latency, gpu_config_.icnt_flits_per_cycle);
  std::vector<mem::MemoryPartition> partitions;
  partitions.reserve(gpu_config_.num_mem_partitions);
  for (u32 p = 0; p < gpu_config_.num_mem_partitions; ++p) partitions.emplace_back(p, gpu_config_);
  if (faults != nullptr) {
    icnt.set_faults(faults.get());
    for (auto& part : partitions) part.set_faults(faults.get());
    if (trace_writer_ != nullptr) trace_writer_->set_faults(faults.get());
  }

  SmEnv env;
  env.gpu = &gpu_config_;
  env.haccrg = &haccrg_config_;
  env.memory = &memory_;
  env.icnt = &icnt;
  env.detector = detector.get();
  env.program = launch.program;
  env.launch = &launch;
  env.global_trace = global_trace_;
  env.trace = trace_writer_.get();
  env.faults = faults.get();
  std::vector<std::unique_ptr<Sm>> sms;
  sms.reserve(gpu_config_.num_sms);
  for (u32 s = 0; s < gpu_config_.num_sms; ++s) {
    SmEnv sm_env = env;
    sm_env.sw_shared_shadow_base = sw_shadow_base + s * sw_shadow_per_sm;
    sms.push_back(std::make_unique<Sm>(s, sm_env));
  }

  // Access-trace recording: a kernel-begin record pins the launch
  // geometry and heap layout before any block-launch events are written.
  if (trace_writer_ != nullptr) {
    trace::Event begin;
    begin.kind = trace::EventKind::kKernelBegin;
    begin.grid_dim = launch.grid_dim;
    begin.block_dim = launch.block_dim;
    begin.shared_mem_bytes = launch.shared_mem_bytes;
    begin.app_heap_bytes = app_bytes;
    begin.shadow_base = shadow_base;
    begin.label = trace_label_;
    trace_writer_->write_event(begin);
  }

  // CTA scheduler: hand out blocks round-robin, refilling as SMs drain.
  std::deque<u32> pending_blocks;
  for (u32 b = 0; b < launch.grid_dim; ++b) pending_blocks.push_back(b);
  auto refill = [&](Cycle at) {
    bool progress = true;
    while (progress && !pending_blocks.empty()) {
      progress = false;
      for (u32 s = 0; s < gpu_config_.num_sms && !pending_blocks.empty(); ++s) {
        if (sms[s]->try_launch_block(pending_blocks.front(), at)) {
          pending_blocks.pop_front();
          progress = true;
        }
      }
    }
  };
  refill(0);
  if (pending_blocks.size() == launch.grid_dim) {
    result.error = "no SM can fit a block (check block_dim / shared memory)";
    return result;
  }

  // --- Cycle loop -------------------------------------------------------------
  // The engine steps SMs and partitions (in parallel when
  // sim_config_.num_threads > 1) through the four epoch phases; see
  // engine.hpp for why the result is identical for any thread count.
  Engine engine(sms, partitions, icnt, sim_config_);
  Cycle now = 0;
  u32 completed_last = 0;
  std::vector<fault::DramFlip> dram_flips;
  for (;; ++now) {
    if (now > max_cycles_) {
      result.error = "watchdog: kernel exceeded max cycles";
      for (const auto& sm : sms) sm->append_hang_summary(result.error);
      break;
    }

    engine.step(now);

    // Apply DRAM shadow flips the partitions staged during their
    // (possibly parallel) step — serially, in partition-id order, the
    // same barrier discipline as every other cross-unit effect.
    if (faults != nullptr && faults->drain_dram_flips(dram_flips)) {
      for (const fault::DramFlip& flip : dram_flips) {
        memory_.write_u64(flip.addr, memory_.read_u64(flip.addr) ^ (u64{1} << flip.bit));
      }
      dram_flips.clear();
    }

    // Launch more blocks as slots free up.
    u32 completed = 0;
    for (const auto& sm : sms) completed += sm->blocks_completed();
    if (completed != completed_last) {
      completed_last = completed;
      refill(now);
    }

    // Done?
    bool busy = !pending_blocks.empty();
    if (!busy)
      for (const auto& sm : sms)
        if (sm->busy()) {
          busy = true;
          break;
        }
    if (!busy) busy = !icnt.idle();
    if (!busy)
      for (const auto& part : partitions)
        if (!part.idle()) {
          busy = true;
          break;
        }
    if (!busy) break;
  }

  if (trace_writer_ != nullptr) {
    trace::Event end;
    end.kind = trace::EventKind::kKernelEnd;
    end.cycle = now;
    trace_writer_->write_event(end);
    if (!trace_writer_->ok() && result.error.empty())
      result.error = trace_writer_->error();
    // The injector dies with this launch; the writer may outlive it.
    trace_writer_->set_faults(nullptr);
  }

  if (detector != nullptr && !detector->error().empty() && result.error.empty())
    result.error = "detector: " + detector->error();

  // --- Collect results ---------------------------------------------------------
  result.completed = result.error.empty();
  result.cycles = now;
  for (const auto& sm : sms) {
    result.warp_instructions += sm->warp_instructions();
    result.lane_instructions += sm->lane_instructions();
    result.shared_reads += sm->shared_reads();
    result.shared_writes += sm->shared_writes();
    result.shared_atomics += sm->shared_atomics();
    result.global_reads += sm->global_reads();
    result.global_writes += sm->global_writes();
    result.global_atomics += sm->global_atomics();
    result.barriers += sm->barriers();
    result.fences += sm->fences();
    sm->export_stats(result.stats);
  }
  icnt.export_stats(result.stats);
  f64 util_sum = 0.0;
  for (const auto& part : partitions) {
    part.export_stats(result.stats);
    util_sum += part.dram().utilization(now);
  }
  result.avg_dram_utilization = util_sum / static_cast<f64>(partitions.size());
  result.shadow_bytes = shadow_bytes;
  // Opt-in phase timing: never part of the default stat set, so golden
  // fingerprints are unaffected.
  if (sim_config_.profile) engine.profiler().export_stats(result.stats);
  if (detector != nullptr) {
    detector->export_stats(result.stats);
  } else {
    // The ID-register counters stay in the set (as zero) without a
    // detector, so its keys do not depend on detection.
    result.stats.add("ids.barrier_events", 0);
    result.stats.add("ids.sync_increments", 0);
  }

  // Coverage accounting: every event that can silently cost a detection
  // — shadow-table evictions, race-log saturation, detector-state fault
  // injections — is summed into one stat so a campaign can always
  // explain its gap to the zero-fault baseline. Exported only when
  // non-zero to keep zero-fault golden stat sets byte-identical.
  const u64 saturated = detector != nullptr ? detector->log().saturated() : 0;
  if (saturated != 0) result.stats.add("rd.race_log_saturated", saturated);
  // Static-filter accounting: how many pcs the report proved safe. Only
  // when the filter is actually driving skips, so unfiltered golden stat
  // sets are unchanged.
  if (haccrg_config_.static_filter && launch.static_report != nullptr)
    result.stats.add("rd.static_safe_pcs",
                     launch.static_report->count(analysis::AccessClass::kProvablySafe));
  u64 coverage_lost = saturated;
  if (result.stats.has("rd.evictions")) coverage_lost += result.stats.get("rd.evictions");
  if (faults != nullptr) {
    coverage_lost += faults->detector_state_injections();
    faults->export_stats(result.stats);
  }
  if (coverage_lost != 0) result.stats.set("rd.coverage_lost", coverage_lost);

  if (detector != nullptr) result.races = std::move(detector->log());
  return result;
}

}  // namespace haccrg::sim
