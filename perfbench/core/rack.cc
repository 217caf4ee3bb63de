// rack_openloop: a 2x2 rack (2 compute nodes, 2 memory shards) on the
// contended kQueuedRdma fabric. Four tenants run the four kernel families
// (db scans beside mr/oltp read-modify-writes and graph pointer chases) as
// single-threaded rack::RunOpenLoop sessions, once per rung of a fixed
// offered-rate ladder across the knee. Session latency is timed from the
// scheduled arrival. Every rung's digest must equal a golden computed by
// running the same kernels in session order on the Local platform.
//
// virt_ms is the summed session latency, from scheduled arrival, over the
// rungs below the knee: the makespan of an open loop is mostly its fixed
// arrival schedule, while session latency is the service the rack gives.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/workloads.h"
#include "ddc/memory_system.h"
#include "oltp/workload.h"
#include "rack/traffic.h"
#include "teleport/pushdown.h"

namespace perfbench {
namespace {

using namespace teleport;  // NOLINT

constexpr uint64_t kPage = 4096;
constexpr int kTenants = 4;
constexpr int kFamilies = 4;
constexpr int kSessionsPerRung = 1000;  // the fewest with 10 beyond p99
constexpr int kOpsPerSession = 256;
constexpr uint64_t kSlicePages = 64;
/// The rung whose median session latency, tail count and fairness are
/// reported (its p99 is that rung's rack.rate<k>.p99_us), and the one rung
/// of the set-up's warm-up unit.
constexpr int kReferenceIatUs = 60;
/// Rungs at this mean interarrival or slower count toward virt_ms. The 40 us
/// rung is past the knee: its backlog, and so its latency sum, varied 2x
/// with the seed (160-320 ms), while each slower rung's varied by ~3%.
constexpr int kVirtMinIatUs = 45;
/// max_rate_kps: a rung is sustainable when its p99 stays within this limit
/// and the achieved rate is within kBacklogSlack of the offered rate.
constexpr double kP99LimitUs = 500.0;
constexpr double kBacklogSlack = 0.05;

rack::TrafficConfig TrafficFor(uint64_t seed, int iat_us) {
  rack::TrafficConfig cfg;
  cfg.tenants = kTenants;
  cfg.workload_families = kFamilies;
  cfg.sessions = kSessionsPerRung;
  cfg.mean_interarrival_ns = iat_us * kMicrosecond;
  cfg.slice_pages = kSlicePages;
  cfg.ops_per_session = kOpsPerSession;
  // One traffic seed for every rung: rungs differ only in their rate, and
  // share one golden.
  cfg.seed = DeriveSeed(seed, 7);
  return cfg;
}

constexpr uint64_t kSpaceBytes = kTenants * kSlicePages * kPage;

/// rack::RunOpenLoop's checksum, recomputed by running each session's
/// kernel in arrival order on the Local platform (no cache, no fabric, no
/// pushdown): the answer the rack must reproduce.
uint64_t LocalGolden(const rack::TrafficConfig& cfg) {
  ddc::DdcConfig dc;
  dc.platform = ddc::Platform::kLocal;
  dc.compute_cache_bytes = kSpaceBytes;
  ddc::MemorySystem ms(dc, sim::CostParams::Default(), kSpaceBytes);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  std::vector<ddc::VAddr> slices;
  for (int t = 0; t < cfg.tenants; ++t) {
    slices.push_back(ms.space().Alloc(cfg.slice_pages * kPage, "golden.slice"));
  }
  uint64_t checksum = 0;
  for (int i = 0; i < cfg.sessions; ++i) {
    const int tenant = i % cfg.tenants;
    const auto kind = static_cast<rack::WorkloadKind>(tenant % cfg.workload_families);
    const uint64_t digest = rack::RunKernel(
        *ctx, kind, slices[static_cast<size_t>(tenant)], cfg.slice_pages * kPage,
        cfg.ops_per_session, oltp::Mix64(cfg.seed ^ (static_cast<uint64_t>(i) << 1)));
    checksum += oltp::Mix64(digest ^ (static_cast<uint64_t>(i) * 0x9e37ULL));
  }
  return checksum;
}

struct Deployment {
  int iat_us = 0;  ///< the rung this deployment serves
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<tp::PushdownRuntime> runtime;
};

Deployment BuildRack(int iat_us) {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 64 * kPage;
  cfg.memory_pool_bytes = 1024 * kPage;
  cfg.compute_nodes = 2;
  cfg.memory_shards = 2;
  Deployment d;
  d.iat_us = iat_us;
  d.ms = std::make_unique<ddc::MemorySystem>(cfg, sim::CostParams::Default(),
                                             kSpaceBytes);
  d.ms->fabric().set_backend(net::Backend::kQueuedRdma);
  d.ms->set_journal_enabled(false);
  d.ms->set_scalar_datapath(false);
  d.runtime = std::make_unique<tp::PushdownRuntime>(d.ms.get());
  return d;
}

class RackOpenLoop : public Workload {
 public:
  std::string Describe() const override {
    std::string ladder;
    for (const int iat : kRackLadderIatUs) {
      if (!ladder.empty()) ladder += '/';
      ladder += std::to_string(iat);
    }
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "rack_openloop: 2x2 rack, queued_rdma, %d tenants x %d "
                  "kernel families, %d sessions x %d ops per rung, mean "
                  "interarrival ladder %s us; max_rate needs p99 <= %.0f us "
                  "and achieved >= %.0f%% of offered",
                  kTenants, kFamilies, kSessionsPerRung, kOpsPerSession,
                  ladder.c_str(), kP99LimitUs, 100 * (1 - kBacklogSlack));
    return buf;
  }

  void Prepare(uint64_t seed, bool warm_up) override {
    if (golden_seed_ != seed) {
      golden_ = LocalGolden(TrafficFor(seed, kRackLadderIatUs[0]));
      golden_seed_ = seed;
    }
    seed_ = seed;
    rungs_.clear();
    for (const int iat : kRackLadderIatUs) {
      if (!warm_up || iat == kReferenceIatUs) rungs_.push_back(BuildRack(iat));
    }
  }

  Round Run() override {
    Round round;
    sim::Metrics metrics;
    tp::PushdownBreakdown bd;
    uint64_t calls = 0, sessions = 0;
    double makespan_ms = 0, latency_ms = 0;
    std::vector<Rung> ladder;
    for (size_t k = 0; k < rungs_.size(); ++k) {
      Deployment& d = rungs_[k];
      const int iat = d.iat_us;
      const rack::TrafficConfig cfg = TrafficFor(seed_, iat);
      rack::TrafficResult r;
      {
        ScopedSpan span("rack.RunOpenLoop", static_cast<int>(k));
        const int64_t t0 = HostNowNs();
        r = rack::RunOpenLoop(*d.ms, *d.runtime, cfg);
        round.piece_s.push_back(SecondsSince(t0));
      }
      // deferred == 0: no session started later than its scheduled arrival
      // (the generator never ran late), so latency from arrival is exact.
      const bool ok = r.completed == static_cast<uint64_t>(cfg.sessions) &&
                      r.failed == 0 && r.deferred == 0 && r.checksum == golden_;
      round.units.Add(ok);
      if (!ok) {
        round.errors.push_back(
            "rack rung " + std::to_string(iat) + "us: completed " +
            std::to_string(r.completed) + ", failed " + std::to_string(r.failed) +
            ", deferred " + std::to_string(r.deferred) +
            ", checksum " + std::to_string(r.checksum) + " vs golden " +
            std::to_string(golden_));
      }
      const Histogram lat = r.scopes.MergedLatency();
      const double rung_ms = static_cast<double>(r.makespan_ns) / 1e6;
      makespan_ms += rung_ms;
      if (iat >= kVirtMinIatUs) {
        latency_ms += lat.Mean() * static_cast<double>(lat.count()) / 1e6;
      }
      sessions += r.completed;
      ladder.push_back({1000.0 / iat, r.p99_latency_ns / 1e3,
                        static_cast<double>(r.completed) / rung_ms});
      round.virt[RackRungMetric(iat)] = r.p99_latency_ns / 1e3;
      if (iat == kReferenceIatUs) {
        round.virt["rack.p50_us"] = r.p50_latency_ns / 1e3;
        round.virt["rack.tail_samples"] =
            static_cast<double>(SamplesBeyond(lat.count(), 99));
        if (!TailResolved(lat.count(), 99)) {
          round.errors.push_back("rack p99 unresolved at the reference rung");
        }
        std::vector<double> mean_latency;
        for (int t = 0; t < kTenants; ++t) {
          mean_latency.push_back(r.scopes.latency(t).Mean());
        }
        round.virt["rack.fairness"] = sim::TenantScopes::JainIndex(mean_latency);
      }
      const sim::Metrics m = r.scopes.MergedMetrics();
      metrics.Add(m);
      bd.Add(d.runtime->total_breakdown());
      calls += d.runtime->completed_calls();
      round.fingerprint.Add(r.checksum);
      round.fingerprint.Add(static_cast<uint64_t>(r.makespan_ns));
      round.fingerprint.Add(r.completed);
      round.fingerprint.Add(lat.count());
      round.fingerprint.Add(lat.Mean());
      round.fingerprint.Add(static_cast<uint64_t>(lat.max()));
      FoldMetrics(m, round.fingerprint);
    }
    round.virt["virt_ms"] = latency_ms;
    round.virt["rack.tput_kops_s"] = static_cast<double>(sessions) / makespan_ms;
    round.virt["rack.max_rate_kps"] =
        MaxSustainableRate(ladder, kP99LimitUs, kBacklogSlack);
    AddLayerCounters(metrics, bd, calls, round.virt);
    for (const auto& [name, v] : round.virt) round.fingerprint.Add(v);
    return round;
  }

  void HostLayers(const std::map<std::string, SpanTotals>& spans,
                  const Round&, Values& out) const override {
    out["rack.host_us_per_session"] =
        SpanSeconds(spans, "rack.RunOpenLoop") * 1e6 /
        (static_cast<double>(kSessionsPerRung) *
         static_cast<double>(rungs_.size()));
  }

 private:
  uint64_t seed_ = 0;
  std::optional<uint64_t> golden_seed_;  ///< the seed golden_ belongs to
  uint64_t golden_ = 0;
  std::vector<Deployment> rungs_;
};

}  // namespace

std::unique_ptr<Workload> MakeRackOpenLoop() {
  return std::make_unique<RackOpenLoop>();
}

}  // namespace perfbench
