// Top-level GPU: owns device memory, SMs, interconnect and memory
// partitions; per launch it builds the HAccRG trace::Detector (when
// detection is on), schedules thread-blocks onto SMs and runs the cycle
// loop until the kernel drains.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "arch/config.hpp"
#include "haccrg/global_rdu.hpp"
#include "haccrg/options.hpp"
#include "mem/device_memory.hpp"
#include "mem/interconnect.hpp"
#include "mem/partition.hpp"
#include "sim/launch.hpp"
#include "sim/sim_config.hpp"
#include "sim/sm.hpp"
#include "trace/writer.hpp"

namespace haccrg::sim {

class Gpu {
 public:
  Gpu(const arch::GpuConfig& gpu_config, const rd::HaccrgConfig& haccrg_config,
      const SimConfig& sim_config = SimConfig::from_env());
  ~Gpu();

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  mem::DeviceMemory& memory() { return memory_; }
  const mem::DeviceMemory& memory() const { return memory_; }
  mem::DeviceAllocator& allocator() { return allocator_; }
  const arch::GpuConfig& config() const { return gpu_config_; }
  const rd::HaccrgConfig& haccrg() const { return haccrg_config_; }
  const SimConfig& sim_config() const { return sim_config_; }

  /// Run one kernel to completion; returns timing, stats, and races.
  SimResult launch(const LaunchConfig& launch);

  /// Watchdog limit (cycles) for runaway kernels.
  void set_max_cycles(Cycle limit) { max_cycles_ = limit; }

  /// Record every coalesced global transaction address into `sink`
  /// during subsequent launches (pass nullptr to stop).
  void set_global_trace(std::vector<Addr>* sink) { global_trace_ = sink; }

  /// Label stamped into the next launch's kernel-begin trace record
  /// (benchmark name; empty by default). No-op unless tracing.
  void set_trace_label(const std::string& label) { trace_label_ = label; }

  /// The access-trace writer, or null when SimConfig::trace_path is
  /// empty. Exposed so callers can check ok()/error() after a run.
  trace::TraceWriter* trace_writer() { return trace_writer_.get(); }

 private:
  arch::GpuConfig gpu_config_;
  rd::HaccrgConfig haccrg_config_;
  SimConfig sim_config_;
  mem::DeviceMemory memory_;
  mem::DeviceAllocator allocator_;
  Cycle max_cycles_ = 2'000'000'000ULL;
  std::vector<Addr>* global_trace_ = nullptr;
  std::unique_ptr<trace::TraceWriter> trace_writer_;
  std::string trace_label_;
};

}  // namespace haccrg::sim

namespace haccrg::sim {

/// Convenience: build a GPU, run one kernel, return the result. `setup`
/// receives the GPU before launch to allocate and fill buffers.
template <typename SetupFn>
SimResult run_kernel(const arch::GpuConfig& gpu_config, const rd::HaccrgConfig& haccrg_config,
                     SetupFn&& setup) {
  Gpu gpu(gpu_config, haccrg_config);
  LaunchConfig launch = setup(gpu);
  return gpu.launch(launch);
}

}  // namespace haccrg::sim
