#include "mem/device_memory.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace haccrg::mem {

// mmap, not calloc: glibc hands out fresh zero pages only above its mmap
// threshold, and that threshold adapts upward (to 32 MiB on 64-bit hosts).
DeviceMemory::DeviceMemory(u32 bytes) : size_(bytes) {
  if (bytes == 0) return;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    std::fprintf(stderr, "DeviceMemory: cannot map %u bytes: %s\n", bytes, std::strerror(errno));
    std::abort();
  }
  data_ = static_cast<u8*>(p);
}

DeviceMemory::~DeviceMemory() {
  if (data_ != nullptr) munmap(data_, size_);
}

void DeviceMemory::check(Addr addr, u32 bytes) const {
  if (static_cast<u64>(addr) + bytes > size_) {
    std::fprintf(stderr, "DeviceMemory: out-of-bounds access at 0x%x (+%u), size 0x%x\n", addr,
                 bytes, size_);
    std::abort();
  }
}

u8 DeviceMemory::read_u8(Addr addr) const {
  check(addr, 1);
  return data_[addr];
}

void DeviceMemory::write_u8(Addr addr, u8 value) {
  check(addr, 1);
  data_[addr] = value;
}

u32 DeviceMemory::read_u32(Addr addr) const {
  check(addr & ~3u, 4);
  u32 v;
  std::memcpy(&v, data_ + (addr & ~3u), 4);
  return v;
}

void DeviceMemory::write_u32(Addr addr, u32 value) {
  check(addr & ~3u, 4);
  std::memcpy(data_ + (addr & ~3u), &value, 4);
}

u64 DeviceMemory::read_u64(Addr addr) const {
  check(addr & ~7u, 8);
  u64 v;
  std::memcpy(&v, data_ + (addr & ~7u), 8);
  return v;
}

void DeviceMemory::write_u64(Addr addr, u64 value) {
  check(addr & ~7u, 8);
  std::memcpy(data_ + (addr & ~7u), &value, 8);
}

void DeviceMemory::fill(Addr addr, u32 bytes, u8 value) {
  check(addr, bytes);
  std::memset(data_ + addr, value, bytes);
}

void DeviceMemory::copy_in(Addr dst, const void* src, u32 bytes) {
  check(dst, bytes);
  std::memcpy(data_ + dst, src, bytes);
}

void DeviceMemory::copy_out(void* dst, Addr src, u32 bytes) const {
  check(src, bytes);
  std::memcpy(dst, data_ + src, bytes);
}

Addr DeviceAllocator::alloc(u32 bytes, const std::string& name) {
  const Addr addr = static_cast<Addr>(align_up(top_, 256));
  if (static_cast<u64>(addr) + bytes > memory_->size()) {
    std::fprintf(stderr, "DeviceAllocator: out of device memory allocating %u bytes for '%s'\n",
                 bytes, name.c_str());
    std::abort();
  }
  top_ = addr + bytes;
  allocations_.push_back({name, addr, bytes});
  return addr;
}

void DeviceAllocator::reset() {
  top_ = 0;
  allocations_.clear();
}

}  // namespace haccrg::mem
