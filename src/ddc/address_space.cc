#include "ddc/address_space.h"

#include <bit>

namespace teleport::ddc {

std::string_view PlatformToString(Platform p) {
  switch (p) {
    case Platform::kLocal:
      return "Local";
    case Platform::kLinuxSsd:
      return "LinuxSSD";
    case Platform::kBaseDdc:
      return "BaseDDC";
  }
  return "Unknown";
}

std::string_view CachePolicyToString(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru:
      return "LRU";
    case CachePolicy::kFifo:
      return "FIFO";
    case CachePolicy::kClock:
      return "CLOCK";
  }
  return "Unknown";
}

AddressSpace::AddressSpace(uint64_t capacity_bytes, uint64_t page_size)
    : capacity_bytes_((capacity_bytes + page_size - 1) / page_size * page_size),
      page_size_(page_size),
      page_shift_(std::countr_zero(page_size)) {
  TELEPORT_CHECK(std::has_single_bit(page_size_))
      << "page size must be a power of two";
  // Reserve the full capacity up front so that growth in Alloc() never
  // reallocates: host pointers handed out by HostPtr() stay valid for the
  // lifetime of the space.
  mem_.reserve(capacity_bytes_);
}

VAddr AddressSpace::Alloc(uint64_t bytes, std::string name) {
  TELEPORT_CHECK(bytes > 0);
  const uint64_t rounded = (bytes + page_size_ - 1) / page_size_ * page_size_;
  TELEPORT_CHECK(used_bytes_ + rounded <= capacity_bytes_)
      << "address space exhausted allocating '" << name << "' (" << bytes
      << " bytes; used " << used_bytes_ << " of " << capacity_bytes_ << ")";
  const VAddr start = used_bytes_;
  used_bytes_ += rounded;
  mem_.resize(used_bytes_);  // zero-initialized growth
  regions_.push_back(Region{std::move(name), start, rounded});
  return start;
}

}  // namespace teleport::ddc
