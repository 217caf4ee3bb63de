// Exact-timing lock for the §3.2 fault paths. retry_determinism_test only
// compares a run with itself; this test pins the literal virtual timeline of
// one seeded fault plan, so any change to the retry loops (attempt order,
// backoff draws, outage waits, heal handling, per-site accounting) shows up
// as a changed number.
//
// The plan produces, per run: pushdown request drops, response drops, a
// link flap that forces an outage wait, heartbeat retries, page-fault RPC
// retries, retry budgets exhausted into the reliable transport, and one
// exhausted request that takes the local fallback.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "net/faults.h"
#include "sim/tracer.h"
#include "teleport/pushdown.h"

namespace teleport::tp {
namespace {

using ddc::DdcConfig;
using ddc::ExecutionContext;
using ddc::MemorySystem;
using ddc::Platform;
using ddc::Pool;
using ddc::VAddr;

constexpr uint64_t kPage = 4096;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct LockedRun {
  Nanos now = 0;
  std::string last_breakdown;
  std::string total_breakdown;
  std::string metrics;
  std::string fault_retry_stats;
  uint64_t runtime_retries = 0;
  uint64_t fallbacks = 0;
  uint64_t ok_calls = 0;
  uint64_t ok_heartbeats = 0;
  uint64_t trace_events = 0;
  uint64_t trace_hash = 0;
  uint64_t request_retries = 0;   ///< RetryRequest trace instants
  uint64_t response_retries = 0;  ///< RetryResponse trace instants
  uint64_t heartbeat_drops = 0;
  uint64_t outage_drops = 0;
};

LockedRun RunPlan(net::Backend backend) {
  DdcConfig cfg;
  cfg.platform = Platform::kBaseDdc;
  cfg.compute_cache_bytes = 8 * kPage;
  cfg.memory_pool_bytes = 1024 * kPage;
  MemorySystem ms(cfg, sim::CostParams::Default(), 8 << 20);
  // Pinned explicitly so the lock holds under any environment knobs.
  ms.fabric().set_backend(backend);
  ms.set_journal_enabled(false);
  sim::Tracer tracer;
  ms.set_tracer(&tracer);

  net::FaultInjector inj(2024);
  net::FaultSpec req;
  req.drop_p = 0.45;
  inj.SetSpec(net::MessageKind::kPushdownRequest, req);
  net::FaultSpec resp;
  resp.drop_p = 0.4;
  inj.SetSpec(net::MessageKind::kPushdownResponse, resp);
  net::FaultSpec hb;
  hb.drop_p = 0.35;
  inj.SetSpec(net::MessageKind::kHeartbeat, hb);
  net::FaultSpec fault;
  fault.drop_p = 0.3;
  inj.SetSpec(net::MessageKind::kPageFaultRequest, fault);
  inj.SetSpec(net::MessageKind::kPageFaultReply, fault);
  // Flaps shorter than the heartbeat deadline so a probe that waits one
  // out is still judged on its own round trip.
  inj.AddLinkFlaps(150 * kMicrosecond, 120 * kMicrosecond,
                   700 * kMicrosecond, 40);
  ms.fabric().set_fault_injector(&inj);

  // A short budget so exhaustion (reliable-transport floor, local fallback,
  // page-fault outage rounds) happens within a few calls.
  RetryPolicy policy;
  policy.max_attempts = 2;
  ms.set_fault_retry_policy(policy);
  ms.set_retry_seed(11);
  PushdownRuntime runtime(&ms);
  runtime.set_retry_policy(policy);
  runtime.set_retry_seed(12);

  const VAddr data = ms.space().Alloc(48 * kPage, "d");
  ms.SeedData();
  auto caller = ms.CreateContext(Pool::kCompute);

  LockedRun r;
  for (int call = 0; call < 24; ++call) {
    if (runtime.CheckHeartbeat(*caller).ok()) ++r.ok_heartbeats;
    // Compute-side demand paging: page-fault RPCs under the injector.
    for (uint64_t p = 0; p < 12; ++p) {
      const VAddr a = data + ((call * 5 + p) % 48) * kPage;
      caller->Store<int64_t>(a, caller->Load<int64_t>(a) + call);
    }
    PushdownFlags flags;
    flags.fallback = call % 3 == 0 ? FallbackPolicy::kLocal
                                   : FallbackPolicy::kNone;
    const Status st = runtime.Call(
        *caller,
        [&](ExecutionContext& mc) {
          for (uint64_t p = 0; p < 16; ++p) {
            const VAddr a = data + ((call * 7 + p) % 48) * kPage;
            mc.Store<int64_t>(a + 8, mc.Load<int64_t>(a) + 1);
          }
          return Status::OK();
        },
        flags);
    if (st.ok()) ++r.ok_calls;
  }
  r.now = caller->now();
  r.last_breakdown = runtime.last_breakdown().ToString();
  r.total_breakdown = runtime.total_breakdown().ToString();
  r.metrics = caller->metrics().ToString();
  r.fault_retry_stats = ms.fault_retry_stats().ToString();
  r.runtime_retries = runtime.retry_events();
  r.fallbacks = runtime.fallback_calls();
  r.trace_events = tracer.events().size();
  r.trace_hash = Fnv1a(tracer.ToChromeJson());
  for (const sim::TraceEvent& ev : tracer.events()) {
    if (tracer.NameOf(ev) == "RetryRequest") ++r.request_retries;
    if (tracer.NameOf(ev) == "RetryResponse") ++r.response_retries;
  }
  r.heartbeat_drops = inj.drops_of(net::MessageKind::kHeartbeat);
  r.outage_drops = inj.outage_drops();
  return r;
}

TEST(FaultPathLockTest, SeededFaultPlanHasExactTimeline) {
  const LockedRun r = RunPlan(net::Backend::kIdeal);
  // Coverage: every retry site of the plan actually fired.
  EXPECT_GT(r.request_retries, 0u);
  EXPECT_GT(r.response_retries, 0u);
  EXPECT_GT(r.heartbeat_drops, 0u);
  EXPECT_GT(r.outage_drops, 0u);
  EXPECT_EQ(r.fallbacks, 2u);
  EXPECT_EQ(r.ok_calls, 24u);
  EXPECT_EQ(r.ok_heartbeats, 24u);

  // Literal values of the seeded plan.
  EXPECT_EQ(r.now, 30437816);
  EXPECT_EQ(r.last_breakdown,
            "pre_sync=0.00048ms request=0.001229ms queue=0ms setup=0.0326ms "
            "exec=0.001632ms online_sync=0.054568ms response=0.007477ms "
            "post_sync=0ms retry=0.070134ms");
  EXPECT_EQ(r.total_breakdown,
            "pre_sync=0.01152ms request=0.077044ms queue=0ms setup=0.7172ms "
            "exec=2.39132ms online_sync=0.635184ms response=0.564494ms "
            "post_sync=0ms retry=3.02078ms");
  EXPECT_EQ(r.metrics,
            "cache: hits=428 misses=212 evictions=212 writebacks=154\n"
            "net: messages=904 bytes=1800517 from_mem=868352 to_mem=868352\n"
            "memory pool: hits=704 faults=0\n"
            "storage: reads=0 writes=0\n"
            "coherence: messages=232 invalidations=58 downgrades=58 "
            "page_returns=58\n"
            "teleport: pushdowns=24 syncmem_pages=0\n"
            "resilience: fault_events=315 retries=315 fallbacks=2 "
            "lost_pool_writes=0\n"
            "recovery: recovered_pool_writes=0 journal_appends=0 "
            "journal_flushes=0 fenced_rpcs=0 dedup_hits=0\n"
            "cpu: ops=0");
  EXPECT_EQ(r.fault_retry_stats,
            "retry_stats{attempts=452 retries=240 backoff=20426818ns}");
  EXPECT_EQ(r.runtime_retries, 75u);
  EXPECT_EQ(r.trace_events, 1789u);
  EXPECT_EQ(r.trace_hash, 1315162331816099915ull);
}

TEST(FaultPathLockTest, QueuedRdmaPlanHasExactTimeline) {
  // The contended backend adds queue residency, so this run also pins which
  // context's netq_* counters each fault-path drain lands in.
  const LockedRun r = RunPlan(net::Backend::kQueuedRdma);
  EXPECT_GT(r.request_retries, 0u);
  EXPECT_GT(r.response_retries, 0u);
  EXPECT_GT(r.heartbeat_drops, 0u);
  EXPECT_GT(r.outage_drops, 0u);
  EXPECT_EQ(r.ok_calls, 24u);
  EXPECT_EQ(r.ok_heartbeats, 24u);

  EXPECT_EQ(r.now, 29099617);
  EXPECT_EQ(r.last_breakdown,
            "pre_sync=0.00048ms request=0.001479ms queue=0ms setup=0.0326ms "
            "exec=0.001632ms online_sync=0.062568ms response=0.007727ms "
            "post_sync=0ms retry=0ms");
  EXPECT_EQ(r.total_breakdown,
            "pre_sync=0.01152ms request=0.035502ms queue=0ms setup=0.7824ms "
            "exec=0.039168ms online_sync=0.500544ms response=0.235448ms "
            "post_sync=0ms retry=1.62973ms");
  EXPECT_EQ(r.metrics,
            "cache: hits=400 misses=176 evictions=176 writebacks=112\n"
            "net: messages=816 bytes=1500511 from_mem=720896 to_mem=720896\n"
            "netq: queued_sends=0 queue_wait_ns=0 doorbells=938 "
            "doorbells_coalesced=0 sg_segments=0 smartnic_offloads=0\n"
            "memory pool: hits=768 faults=0\n"
            "storage: reads=0 writes=0\n"
            "coherence: messages=256 invalidations=64 downgrades=64 "
            "page_returns=64\n"
            "teleport: pushdowns=24 syncmem_pages=0\n"
            "resilience: fault_events=302 retries=302 fallbacks=0 "
            "lost_pool_writes=0\n"
            "recovery: recovered_pool_writes=0 journal_appends=0 "
            "journal_flushes=0 fenced_rpcs=0 dedup_hits=0\n"
            "cpu: ops=0");
  EXPECT_EQ(r.fault_retry_stats,
            "retry_stats{attempts=416 retries=240 backoff=20911015ns}");
  EXPECT_EQ(r.runtime_retries, 62u);
  EXPECT_EQ(r.fallbacks, 0u);
  EXPECT_EQ(r.trace_events, 1632u);
  EXPECT_EQ(r.trace_hash, 8416169097037261859ull);
}

}  // namespace
}  // namespace teleport::tp
