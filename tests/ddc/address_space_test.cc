#include "ddc/address_space.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace teleport::ddc {
namespace {

TEST(AddressSpaceTest, AllocReturnsPageAlignedRegions) {
  AddressSpace as(1 << 20, 4096);
  const VAddr a = as.Alloc(100, "a");
  const VAddr b = as.Alloc(5000, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4096u);          // "a" rounded up to one page
  EXPECT_EQ(as.used_bytes(), 4096u + 8192u);
  EXPECT_EQ(as.num_pages(), 3u);
}

TEST(AddressSpaceTest, RegionsAreNamed) {
  AddressSpace as(1 << 20, 4096);
  as.Alloc(10, "lineitem.quantity");
  ASSERT_EQ(as.regions().size(), 1u);
  EXPECT_EQ(as.regions()[0].name, "lineitem.quantity");
  EXPECT_EQ(as.regions()[0].bytes, 4096u);
}

TEST(AddressSpaceTest, MemoryIsZeroInitialized) {
  AddressSpace as(1 << 20, 4096);
  const VAddr a = as.Alloc(4096, "z");
  const auto* p = static_cast<const unsigned char*>(as.HostPtr(a, 4096));
  for (int i = 0; i < 4096; ++i) EXPECT_EQ(p[i], 0);
}

TEST(AddressSpaceTest, HostPtrRoundTripsData) {
  AddressSpace as(1 << 20, 4096);
  const VAddr a = as.Alloc(8192, "data");
  int64_t v = 0x1122334455667788;
  std::memcpy(as.HostPtr(a + 100, sizeof(v)), &v, sizeof(v));
  int64_t out = 0;
  std::memcpy(&out, as.HostPtr(a + 100, sizeof(out)), sizeof(out));
  EXPECT_EQ(out, v);
}

TEST(AddressSpaceTest, PointersStableAcrossGrowth) {
  // Alloc must never reallocate the backing store (pointers are handed out).
  AddressSpace as(64 << 20, 4096);
  const VAddr a = as.Alloc(4096, "first");
  void* p0 = as.HostPtr(a, 1);
  for (int i = 0; i < 1000; ++i) as.Alloc(16384, "filler");
  EXPECT_EQ(as.HostPtr(a, 1), p0);
}

TEST(AddressSpaceTest, PageOf) {
  AddressSpace as(1 << 20, 4096);
  EXPECT_EQ(as.PageOf(0), 0u);
  EXPECT_EQ(as.PageOf(4095), 0u);
  EXPECT_EQ(as.PageOf(4096), 1u);
  EXPECT_EQ(as.PageOf(12345), 3u);
  // Translation is shift-and-mask; it must agree with division for every
  // power-of-two page size, at random addresses.
  Rng rng(0x9a6e);
  for (uint64_t ps = 512; ps <= 64 * 1024; ps *= 2) {
    AddressSpace space(64 * ps, ps);
    space.Alloc(1 + rng.Uniform(5 * ps), "a");
    space.Alloc(1 + rng.Uniform(7 * ps), "b");
    EXPECT_EQ(space.num_pages(), space.used_bytes() / ps) << ps;
    for (int i = 0; i < 1000; ++i) {
      const VAddr a = rng.Next();
      EXPECT_EQ(space.PageOf(a), a / ps) << ps << " " << a;
      EXPECT_EQ(space.PageOffset(a), a % ps) << ps << " " << a;
      EXPECT_EQ(space.PageStart(space.PageOf(a)), a / ps * ps) << ps;
    }
  }
}

TEST(AddressSpaceDeathTest, ExhaustionAborts) {
  AddressSpace as(8192, 4096);
  as.Alloc(8192, "all");
  EXPECT_DEATH(as.Alloc(1, "overflow"), "exhausted");
}

}  // namespace
}  // namespace teleport::ddc
