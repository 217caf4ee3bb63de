// Google-benchmark micro-kernels for the simulator itself: host-side
// throughput of the access path, the coherence fault path, RLE encoding,
// and the interleaver. These guard the *simulator's* performance (how much
// real time a simulated access costs), which bounds how large a scaled
// experiment can be.

#include <benchmark/benchmark.h>

#include "common/rle.h"
#include "common/rng.h"
#include "ddc/memory_system.h"
#include "sim/interleaver.h"
#include "teleport/pushdown.h"

namespace teleport {
namespace {

constexpr uint64_t kPage = 4096;

ddc::DdcConfig DdcCfg(uint64_t cache_pages) {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kBaseDdc;
  c.compute_cache_bytes = cache_pages * kPage;
  c.memory_pool_bytes = 1u << 30;
  return c;
}

void BM_SequentialLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialLoads);

// The same sequential walk, fast path disabled — the denominator of the
// CI wall-clock smoke check (scalar vs bulk on one machine, same build).
void BM_SequentialLoadsScalar(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(true);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialLoadsScalar);

// Sequential walk through a caller-held cursor (the engines' inner-loop
// idiom): the pin declares sequential intent, so every same-page access
// after the first is a single closed-form charge.
void BM_CursorLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  ddc::Cursor cur(*ctx);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cur.Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CursorLoads);

void BM_CursorLoadsScalar(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(true);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  ddc::Cursor cur(*ctx);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cur.Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CursorLoadsScalar);

// Extent transfers: one LoadSpan per 512-element run, batched into
// per-page charges on the fast path.
void BM_SpanLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  int64_t buf[512];
  uint64_t off = 0;
  for (auto _ : state) {
    ctx->LoadSpan<int64_t>(a + off, buf, 512);
    benchmark::DoNotOptimize(buf[0]);
    off = (off + sizeof(buf)) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_SpanLoads);

// The same span walk, fast path disabled: every element takes the walker's
// per-element branch. CI gates BM_SpanLoads against it, so a walker that
// fell back to per-element dispatch would fail the smoke check.
void BM_SpanLoadsScalar(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(true);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  int64_t buf[512];
  uint64_t off = 0;
  for (auto _ : state) {
    ctx->LoadSpan<int64_t>(a + off, buf, 512);
    benchmark::DoNotOptimize(buf[0]);
    off = (off + sizeof(buf)) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_SpanLoadsScalar);

// One B+-tree node snapshot per iteration, the shape of BTree::ReadNode:
// hop to another cached page, then 4 header loads, a 32-word LoadSpan and
// the closing version load. The first access enters the page pin-first
// (it fills the context TLB and is served from it, with no dispatch); the
// rest are pinned hits.
void PageHopLoads(benchmark::State& state, bool scalar) {
  constexpr uint64_t kPages = 64;
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(scalar);
  const ddc::VAddr a = ms.space().Alloc(kPages * kPage, "nodes");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  for (uint64_t p = 0; p < kPages; ++p) ctx->Load<uint64_t>(a + p * kPage);
  uint64_t words[32];
  uint64_t page = 0;
  for (auto _ : state) {
    page = (page + 17) % kPages;  // never the previous page, never the next
    const ddc::VAddr node = a + page * kPage;
    uint64_t sum = ctx->Load<uint64_t>(node);
    sum += ctx->Load<uint32_t>(node + 8);
    sum += ctx->Load<uint32_t>(node + 12);
    sum += ctx->Load<uint64_t>(node + 16);
    ctx->LoadSpan<uint64_t>(node + 32, words, 32);
    sum += ctx->Load<uint64_t>(node);
    benchmark::DoNotOptimize(sum + words[31]);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_PageHopLoads(benchmark::State& state) { PageHopLoads(state, false); }
BENCHMARK(BM_PageHopLoads);
// The same hops on the scalar datapath; CI gates BM_PageHopLoads against it.
void BM_PageHopLoadsScalar(benchmark::State& state) {
  PageHopLoads(state, true);
}
BENCHMARK(BM_PageHopLoadsScalar);

void BM_SpanFill(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    ctx->Fill<int64_t>(a + off, 7, 512);
    off = (off + 512 * 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_SpanFill);

void BM_RandomLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx->Load<int64_t>(a + rng.Uniform((64 << 20) / 8) * 8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomLoads);

// Random 8-byte loads over a working set that fits the compute cache, so
// every access enters a cached page that is almost never in one of the
// context's stream slots: the page entry the context TLB serves pin-first,
// without a dispatch. BM_RandomLoads covers the faulting case.
void ResidentRandomLoads(benchmark::State& state, bool scalar) {
  constexpr uint64_t kPages = 1024;
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(scalar);
  const ddc::VAddr a = ms.space().Alloc(kPages * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  for (uint64_t p = 0; p < kPages; ++p) ctx->Load<int64_t>(a + p * kPage);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx->Load<int64_t>(a + rng.Uniform(kPages * kPage / 8) * 8));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_ResidentRandomLoads(benchmark::State& state) {
  ResidentRandomLoads(state, false);
}
BENCHMARK(BM_ResidentRandomLoads);
void BM_ResidentRandomLoadsScalar(benchmark::State& state) {
  ResidentRandomLoads(state, true);
}
BENCHMARK(BM_ResidentRandomLoadsScalar);

void BM_LocalPlatformLoads(benchmark::State& state) {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kLocal;
  ddc::MemorySystem ms(c, sim::CostParams::Default(), 64 << 20);
  const ddc::VAddr a = ms.space().Alloc(32 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + off));
    off = (off + 8) % (32 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalPlatformLoads);

void BM_CoherenceFaultRoundTrip(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 64 << 20);
  const ddc::VAddr a = ms.space().Alloc(1024 * kPage, "d");
  ms.SeedData();
  auto cc = ms.CreateContext(ddc::Pool::kCompute);
  for (uint64_t p = 0; p < 1024; ++p) cc->Store<int64_t>(a + p * kPage, 1);
  ms.BeginPushdownSession(ddc::CoherenceMode::kMesi);
  auto mc = ms.CreateContext(ddc::Pool::kMemory);
  uint64_t p = 0;
  for (auto _ : state) {
    // Ping-pong ownership of a page between the pools.
    mc->Store<int64_t>(a + p * kPage, 2);
    cc->Store<int64_t>(a + p * kPage, 3);
    p = (p + 1) % 1024;
  }
  ms.EndPushdownSession();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CoherenceFaultRoundTrip);

void BM_RleEncodeResidentList(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  std::vector<PageEntry> pages;
  Rng rng(7);
  uint64_t p = 0;
  for (uint64_t i = 0; i < n; ++i) {
    p += rng.Bernoulli(0.9) ? 1 : 5;  // mostly contiguous
    pages.push_back({p, rng.Bernoulli(0.3)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RleEncode(pages));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RleEncodeResidentList)->Arg(1024)->Arg(65536);

void BM_InterleaverStep(benchmark::State& state) {
  class Spin : public sim::Task {
   public:
    Nanos clock() const override { return clock_; }
    bool done() const override { return false; }
    void Step() override { clock_ += 10; }

   private:
    Nanos clock_ = 0;
  };
  Spin tasks[8];
  sim::Interleaver il;
  for (auto& t : tasks) il.Add(&t);
  Nanos deadline = 0;
  for (auto _ : state) {
    deadline += 1000;
    il.RunUntil(deadline);
  }
  state.SetItemsProcessed(state.iterations() * 100 * 8);
}
BENCHMARK(BM_InterleaverStep);

void BM_PushdownCallOverhead(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(256), sim::CostParams::Default(), 16 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 * kPage, "d");
  ms.SeedData();
  tp::PushdownRuntime runtime(&ms);
  auto caller = ms.CreateContext(ddc::Pool::kCompute);
  for (auto _ : state) {
    const Status st = runtime.Call(*caller, [&](ddc::ExecutionContext& mc) {
      benchmark::DoNotOptimize(mc.Load<int64_t>(a));
      return Status::OK();
    });
    if (!st.ok()) state.SkipWithError("pushdown failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushdownCallOverhead);

}  // namespace
}  // namespace teleport

BENCHMARK_MAIN();
