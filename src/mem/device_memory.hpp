// Flat simulated device (global) memory plus a cudaMalloc-style bump
// allocator. Functional state lives here and is updated synchronously at
// instruction issue; the timing model moves data-less packets (see
// packets.hpp) so functional and timing concerns stay separated, the same
// split GPGPU-Sim uses.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace haccrg::mem {

/// Byte-addressable device memory with bounds-checked accessors.
///
/// Backed by one anonymous private mapping that lives as long as the
/// object (a zero-byte memory has none). It reads as zero without being
/// written, and a run faults in only the pages it touches (the
/// application heap, the global shadow and the software shared shadow),
/// not the whole device. Nothing re-zeroes it: code that reuses a region
/// clears it itself, as GlobalRdu::init_shadow does before every launch.
class DeviceMemory {
 public:
  explicit DeviceMemory(u32 bytes);
  ~DeviceMemory();

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;
  DeviceMemory(DeviceMemory&&) = delete;
  DeviceMemory& operator=(DeviceMemory&&) = delete;

  u32 size() const { return size_; }

  u8 read_u8(Addr addr) const;
  void write_u8(Addr addr, u8 value);
  u32 read_u32(Addr addr) const;          ///< addr must be 4-byte aligned
  void write_u32(Addr addr, u32 value);   ///< addr must be 4-byte aligned
  u64 read_u64(Addr addr) const;
  void write_u64(Addr addr, u64 value);

  f32 read_f32(Addr addr) const { return as_f32(read_u32(addr)); }
  void write_f32(Addr addr, f32 value) { write_u32(addr, as_u32(value)); }

  /// memset-style fill.
  void fill(Addr addr, u32 bytes, u8 value);

  /// Bulk host<->device style copies for workload setup / verification.
  void copy_in(Addr dst, const void* src, u32 bytes);
  void copy_out(void* dst, Addr src, u32 bytes) const;

 private:
  void check(Addr addr, u32 bytes) const;
  u8* data_ = nullptr;  ///< the mapping; null when size_ is 0
  u32 size_ = 0;
};

/// One named allocation made through the allocator (Table IV accounting).
struct Allocation {
  std::string name;
  Addr addr = 0;
  u32 bytes = 0;
};

/// Bump allocator over a DeviceMemory, cudaMalloc-equivalent. The HAccRG
/// global shadow region is reserved from the top of the heap at kernel
/// launch; `heap_top()` tells the shadow mapper how much application
/// memory needs shadowing.
class DeviceAllocator {
 public:
  explicit DeviceAllocator(DeviceMemory& memory) : memory_(&memory) {}

  /// Allocate `bytes` aligned to 256 (CUDA's cudaMalloc alignment).
  Addr alloc(u32 bytes, const std::string& name = "");

  /// Total bytes of application allocations so far.
  u32 heap_top() const { return top_; }

  const std::vector<Allocation>& allocations() const { return allocations_; }

  /// Reset the heap (between kernel launches in tests).
  void reset();

 private:
  DeviceMemory* memory_;
  Addr top_ = 0;
  std::vector<Allocation> allocations_;
};

}  // namespace haccrg::mem
