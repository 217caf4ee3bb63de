// Property test for the extent fast path: a randomized program of scalar
// accesses, spans, fills, cursors, and pushdown sessions is run on
// twin MemorySystems — one with the fast path live (default), one with
// TELEPORT's scalar data path forced (set_scalar_datapath) — and every
// observable must match bit for bit: loaded values, final memory image,
// both contexts' virtual clocks, and the full sim::Metrics of each side.
// Spans are drawn with random alignment and lengths that straddle pages;
// the sweep covers all four coherence modes, and one variant runs with
// network faults armed (drops, delays, dups, link flaps, a pool crash)
// so the fault paths are equivalence-checked too.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"
#include "net/faults.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kDataBytes = 16 * kPage;
constexpr uint64_t kWords = kDataBytes / 8;

struct Op {
  enum Kind {
    kLoad,
    kStore,
    kLoadSpan,
    kStoreSpan,
    kFill,
    kReadRange,
    kCursorWalk,     // short sequential cursor run (loads + stores)
    kSessionToggle,  // begin/end a pushdown session
    kMemLoad,        // memory-side accesses (only while a session is open)
    kMemStore,
  };
  Kind kind;
  uint64_t addr = 0;   // word-aligned offset into the region
  uint64_t count = 0;  // elements (spans) or bytes (ReadRange)
  int64_t value = 0;
};

std::vector<Op> MakeProgram(uint64_t seed, int n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  auto word_addr = [&](uint64_t max_words) {
    return rng.Uniform(kWords - max_words) * 8;
  };
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    op.kind = static_cast<Op::Kind>(rng.Uniform(10));
    switch (op.kind) {
      case Op::kLoad:
      case Op::kStore:
      case Op::kMemLoad:
      case Op::kMemStore:
        op.addr = word_addr(1);
        op.value = static_cast<int64_t>(rng.Uniform(1u << 30));
        break;
      case Op::kLoadSpan:
      case Op::kStoreSpan:
      case Op::kFill:
      case Op::kCursorWalk:
        // Up to ~1.5 pages of elements so runs regularly straddle pages.
        op.count = 1 + rng.Uniform(768);
        op.addr = word_addr(op.count);
        op.value = static_cast<int64_t>(rng.Uniform(1u << 30));
        break;
      case Op::kReadRange:
        // Unaligned, arbitrary-length reads (page-straddling included).
        op.count = 1 + rng.Uniform(300);
        op.addr = rng.Uniform(kDataBytes - op.count);
        break;
      case Op::kSessionToggle:
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

net::FaultSpec LossySpec() {
  net::FaultSpec spec;
  spec.drop_p = 0.10;
  spec.delay_p = 0.10;
  spec.delay_ns = 2 * kMicrosecond;
  spec.dup_p = 0.05;
  return spec;
}

struct Observed {
  uint64_t digest = 0;
  Nanos compute_now = 0;
  Nanos memory_now = 0;
  std::string compute_metrics;
  std::string memory_metrics;
  std::vector<std::byte> image;
};

Observed RunProgram(Platform platform, CoherenceMode mode, uint64_t seed,
                    bool scalar, bool faults) {
  DdcConfig c;
  c.platform = platform;
  c.compute_cache_bytes = 4 * kPage;  // tiny: constant eviction pressure
  c.memory_pool_bytes = 8 * kPage;    // pool evicts to storage too
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  if (scalar) ms.set_scalar_datapath(true);
  const VAddr base = ms.space().Alloc(kDataBytes, "prop");
  // Deterministic initial image, staged before SeedData.
  auto* host = static_cast<int64_t*>(ms.space().HostPtr(base, kDataBytes));
  for (uint64_t w = 0; w < kWords; ++w) {
    host[w] = static_cast<int64_t>(w * 2654435761u);
  }
  ms.SeedData();
  net::FaultInjector inj(seed);
  if (faults) {
    inj.SetSpecAll(LossySpec());
    inj.AddLinkFlaps(/*start=*/1 * kMillisecond,
                     /*duration=*/100 * kMicrosecond,
                     /*period=*/3 * kMillisecond, /*count=*/2);
    inj.ScheduleCrashRestart(/*at=*/5 * kMillisecond,
                             /*down_for=*/500 * kMicrosecond);
    ms.fabric().set_fault_injector(&inj);
    ms.set_retry_seed(0xb01);
  }
  const bool ddc = platform == Platform::kBaseDdc;
  auto cc = ms.CreateContext(Pool::kCompute);
  auto mc = ddc ? ms.CreateContext(Pool::kMemory) : nullptr;
  bool session = false;
  Observed o;
  auto mix = [&o](int64_t v) {
    o.digest = o.digest * 1099511628211ULL + static_cast<uint64_t>(v);
  };
  std::vector<int64_t> buf(768 + 1);
  for (const Op& op : MakeProgram(seed, 400)) {
    switch (op.kind) {
      case Op::kLoad:
        mix(cc->Load<int64_t>(base + op.addr));
        break;
      case Op::kStore:
        cc->Store<int64_t>(base + op.addr, op.value);
        break;
      case Op::kLoadSpan:
        cc->LoadSpan<int64_t>(base + op.addr, buf.data(), op.count);
        for (uint64_t i = 0; i < op.count; ++i) mix(buf[i]);
        break;
      case Op::kStoreSpan:
        for (uint64_t i = 0; i < op.count; ++i) {
          buf[i] = op.value + static_cast<int64_t>(i);
        }
        cc->StoreSpan<int64_t>(base + op.addr, buf.data(), op.count);
        break;
      case Op::kFill:
        cc->Fill<int64_t>(base + op.addr, op.value, op.count);
        break;
      case Op::kReadRange: {
        const auto* p =
            static_cast<const unsigned char*>(
                cc->ReadRange(base + op.addr, op.count));
        mix(p[0]);
        mix(p[op.count - 1]);
        break;
      }
      case Op::kCursorWalk: {
        Cursor cur(*cc);
        for (uint64_t i = 0; i < op.count; ++i) {
          const VAddr a = base + op.addr + i * 8;
          const int64_t v = cur.Load<int64_t>(a);
          if ((i & 3) == 0) cur.Store<int64_t>(a, v + 1);
          mix(v);
        }
        break;
      }
      case Op::kSessionToggle:
        if (!ddc) break;
        if (session) {
          ms.EndPushdownSession();
        } else {
          ms.BeginPushdownSession(mode);
        }
        session = !session;
        break;
      case Op::kMemLoad:
        if (session) mix(mc->Load<int64_t>(base + op.addr));
        break;
      case Op::kMemStore:
        if (session) mc->Store<int64_t>(base + op.addr, op.value);
        break;
    }
  }
  if (session) ms.EndPushdownSession();

  o.compute_now = cc->now();
  o.compute_metrics = cc->metrics().ToString();
  if (mc != nullptr) {
    o.memory_now = mc->now();
    o.memory_metrics = mc->metrics().ToString();
  }
  const auto* img =
      static_cast<const std::byte*>(ms.space().HostPtr(base, kDataBytes));
  o.image.assign(img, img + kDataBytes);
  return o;
}

struct Case {
  Platform platform;
  CoherenceMode mode;
  bool faults;
};

class BulkAccessEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(BulkAccessEquivalenceTest, ScalarAndBulkPathsAreBitIdentical) {
  const Case c = GetParam();
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const Observed bulk =
        RunProgram(c.platform, c.mode, seed, /*scalar=*/false, c.faults);
    const Observed scalar =
        RunProgram(c.platform, c.mode, seed, /*scalar=*/true, c.faults);
    EXPECT_EQ(bulk.digest, scalar.digest) << "seed " << seed;
    EXPECT_EQ(bulk.compute_now, scalar.compute_now) << "seed " << seed;
    EXPECT_EQ(bulk.memory_now, scalar.memory_now) << "seed " << seed;
    EXPECT_EQ(bulk.compute_metrics, scalar.compute_metrics)
        << "seed " << seed;
    EXPECT_EQ(bulk.memory_metrics, scalar.memory_metrics) << "seed " << seed;
    EXPECT_TRUE(bulk.image == scalar.image) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BulkAccessEquivalenceTest,
    ::testing::Values(
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, false},
        Case{Platform::kBaseDdc, CoherenceMode::kPso, false},
        Case{Platform::kBaseDdc, CoherenceMode::kWeakOrdering, false},
        Case{Platform::kBaseDdc, CoherenceMode::kNone, false},
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, true},
        Case{Platform::kLinuxSsd, CoherenceMode::kNone, false},
        Case{Platform::kLocal, CoherenceMode::kNone, false}));

// The one-entry TLB on the plain Load/Store path (no cursor, no span) must
// also be invisible: a mixed sequential/random scalar program matches the
// forced-scalar twin exactly.
TEST(BulkAccessTest, PlainLoadStoreTlbIsInvisible) {
  for (const uint64_t seed : {7u, 19u}) {
    auto run = [&](bool scalar) {
      DdcConfig c;
      c.platform = Platform::kBaseDdc;
      c.compute_cache_bytes = 4 * kPage;
      c.memory_pool_bytes = 32 * kPage;
      MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
      if (scalar) ms.set_scalar_datapath(true);
      const VAddr a = ms.space().Alloc(kDataBytes, "d");
      ms.SeedData();
      auto ctx = ms.CreateContext(Pool::kCompute);
      Rng rng(seed);
      uint64_t digest = 0;
      uint64_t off = 0;
      for (int i = 0; i < 20000; ++i) {
        if (rng.Bernoulli(0.9)) {
          off = (off + 8) % kDataBytes;  // sequential walk
        } else {
          off = rng.Uniform(kWords) * 8;  // random jump
        }
        if (rng.Bernoulli(0.25)) {
          ctx->Store<int64_t>(a + off, static_cast<int64_t>(i));
        } else {
          digest = digest * 31 +
                   static_cast<uint64_t>(ctx->Load<int64_t>(a + off));
        }
      }
      return std::make_pair(digest, ctx->now());
    };
    const auto bulk = run(false);
    const auto scalar = run(true);
    EXPECT_EQ(bulk.first, scalar.first) << "seed " << seed;
    EXPECT_EQ(bulk.second, scalar.second) << "seed " << seed;
  }
}

// Records every coherence event, field by field, in arrival order.
class EventRecorder : public CoherenceObserver {
 public:
  void OnCoherenceEvent(const CoherenceEvent& ev) override {
    os_ << static_cast<int>(ev.kind) << ',' << ev.page << ',' << ev.write
        << ',' << static_cast<int>(ev.mode) << ',' << ev.at << ','
        << ev.epoch << ',' << ev.node << ';';
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

// A program of short access groups on the plain context TLB, so nearly
// every page entry takes the pin-first branch: the pin is filled first and,
// when the access is a plain hit, serves it with the real DRAM charge; the
// full dispatch runs otherwise (faults, read-to-write upgrades, accesses
// straddling into the page, memory-side accesses under every coherence
// mode). First touches reach each ChargeDram branch: a page in no stream
// slot (slot claim), a stream successor, and a page already in a slot; a
// sweep of more pages than there are stream slots makes the revisit that
// ends it enter a page whose slot was reclaimed. Returns everything
// observable: loaded values, clocks, metrics, the observer's event stream
// and, by draining both tiers through fresh pages, the order in which the
// compute cache and the pool give up each page (the replacement order the
// hits left behind).
std::string RunPageEntryProgram(Platform platform, CachePolicy policy,
                                CoherenceMode mode, bool observe,
                                uint64_t seed, bool scalar) {
  constexpr uint64_t kDataPages = 16;
  constexpr uint64_t kDrainPages = 16;
  constexpr uint64_t kSweepPages = 9;  // one more than the stream slots
  DdcConfig c;
  c.platform = platform;
  c.cache_policy = policy;
  c.compute_cache_bytes = 4 * kPage;
  c.memory_pool_bytes = 8 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  if (scalar) ms.set_scalar_datapath(true);
  const VAddr base = ms.space().Alloc(kDataPages * kPage, "data");
  const VAddr drain = ms.space().Alloc(kDrainPages * kPage, "drain");
  ms.SeedData();
  EventRecorder events;
  if (observe) ms.set_coherence_observer(&events);
  const bool ddc = platform == Platform::kBaseDdc;
  auto cc = ms.CreateContext(Pool::kCompute);
  auto mc = ddc ? ms.CreateContext(Pool::kMemory) : nullptr;
  std::ostringstream out;
  Rng rng(seed);
  bool session = false;
  for (int group = 0; group < 800; ++group) {
    if (ddc && rng.Bernoulli(0.05)) {
      if (session) {
        ms.EndPushdownSession();
      } else {
        ms.BeginPushdownSession(mode);
      }
      session = !session;
    }
    ExecutionContext& ctx = session && rng.Bernoulli(0.5) ? *mc : *cc;
    const uint64_t index = rng.Uniform(kDataPages);
    const VAddr page = base + index * kPage;
    auto word = [&] { return page + rng.Uniform(kPage / 8) * 8; };
    switch (rng.Uniform(7)) {
      case 0:  // reads: the second is served by the pin the first filled
        for (uint64_t n = 2 + rng.Uniform(2); n > 0; --n) {
          out << ctx.Load<int64_t>(word()) << ' ';
        }
        break;
      case 1:  // read, then write: the write is an R->W upgrade
        out << ctx.Load<int64_t>(word()) << ' ';
        ctx.Store<int64_t>(word(), group);
        out << ctx.Load<int64_t>(word()) << ' ';
        break;
      case 2:  // write first, then a short read range
        ctx.Store<int64_t>(word(), -group);
        out << *static_cast<const unsigned char*>(
                   ctx.ReadRange(page + rng.Uniform(kPage - 64), 64))
            << ' ';
        break;
      case 3:  // enter the page, then straddle into it from the previous one
        out << ctx.Load<int64_t>(word()) << ' ';
        if (index > 0) out << ctx.Load<int64_t>(page - 4) << ' ';
        break;
      case 4:  // end of the previous page, then enter this one as its
               // stream successor
        if (index > 0) out << ctx.Load<int64_t>(page - 8) << ' ';
        out << ctx.Load<int64_t>(page) << ' ';
        out << ctx.Load<int64_t>(word()) << ' ';
        break;
      case 5:  // sweep more pages than there are stream slots, then
               // revisit the first, whose slot the sweep reclaimed
        for (uint64_t k = 0; k < kSweepPages; ++k) {
          const uint64_t i = (index + 2 * k) % kDataPages;
          out << ctx.Load<int64_t>(base + i * kPage + 8 * k) << ' ';
        }
        out << ctx.Load<int64_t>(word()) << ' ';
        out << ctx.Load<int64_t>(word()) << ' ';
        break;
      case 6:  // a failed entry (a write to a page cached read-only, which
               // the pin fills but cannot serve) must leave the pin empty:
               // the reads that follow would otherwise meet an interval
               // with no stream slot (a DCHECK, or a null dereference)
        out << ctx.Load<int64_t>(word()) << ' ';
        out << ctx.Load<int64_t>(page + kPage / 2) << ' ';
        ctx.Store<int64_t>(word(), group);
        for (uint64_t n = 2 + rng.Uniform(2); n > 0; --n) {
          out << ctx.Load<int64_t>(word()) << ' ';
        }
        break;
    }
  }
  if (session) ms.EndPushdownSession();
  out << "| " << cc->now() << ' ' << cc->metrics().ToString();
  if (mc != nullptr) {
    out << " | " << mc->now() << ' ' << mc->metrics().ToString();
  }
  out << " | drain:";
  for (uint64_t d = 0; d < kDrainPages; ++d) {
    cc->Load<int64_t>(drain + d * kPage);
    out << ' ';
    for (uint64_t p = 0; p < kDataPages; ++p) {
      const PageId id = ms.space().PageOf(base) + p;
      out << (ms.compute_perm(id) != Perm::kNone) << ms.in_memory_pool(id);
    }
  }
  out << " | events: " << events.str();
  return out.str();
}

TEST(BulkAccessTest, PinFirstPageEntryIsInvisible) {
  struct Shape {
    Platform platform;
    std::vector<CoherenceMode> modes;  // sessions only exist on BaseDdc
  };
  const Shape shapes[] = {
      {Platform::kLocal, {CoherenceMode::kMesi}},
      {Platform::kLinuxSsd, {CoherenceMode::kMesi}},
      {Platform::kBaseDdc,
       {CoherenceMode::kMesi, CoherenceMode::kPso,
        CoherenceMode::kWeakOrdering, CoherenceMode::kNone}},
  };
  for (const Shape& shape : shapes) {
    for (const CachePolicy policy :
         {CachePolicy::kLru, CachePolicy::kFifo, CachePolicy::kClock}) {
      for (const CoherenceMode mode : shape.modes) {
        for (const bool observe : {false, true}) {
          for (const uint64_t seed : {5u, 6u}) {
            EXPECT_EQ(RunPageEntryProgram(shape.platform, policy, mode,
                                          observe, seed, /*scalar=*/false),
                      RunPageEntryProgram(shape.platform, policy, mode,
                                          observe, seed, /*scalar=*/true))
                << PlatformToString(shape.platform) << ' '
                << CachePolicyToString(policy) << ' '
                << CoherenceModeToString(mode) << " observe=" << observe
                << " seed=" << seed;
          }
        }
      }
    }
  }
}

// Spans degrade to the exact scalar sequence when a yield hook is
// installed — the explore tier depends on per-access granularity. All three
// span kinds share the walker's degrade branch; each is checked.
TEST(BulkAccessTest, YieldHookForcesPerElementGranularity) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 16 * kPage;
  c.memory_pool_bytes = 64 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  uint64_t yields = 0;
  ctx->set_yield_hook(
      [](void* arg) { ++*static_cast<uint64_t*>(arg); }, &yields);
  std::vector<int64_t> buf(600, 5);
  // One yield per element, exactly as a scalar loop would fire.
  ctx->LoadSpan<int64_t>(a, buf.data(), buf.size());
  EXPECT_EQ(yields, buf.size());
  yields = 0;
  ctx->StoreSpan<int64_t>(a + 8, buf.data(), buf.size());
  EXPECT_EQ(yields, buf.size());
  yields = 0;
  ctx->Fill<int64_t>(a + 16, 7, buf.size());
  EXPECT_EQ(yields, buf.size());
}

}  // namespace
}  // namespace teleport::ddc
