// analytics: the Fig 13 suite legs — Q9/Q3/Q6, SSSP/RE/CC, WC/Grep — each
// on Local (the answer golden), BaseDDC, and TELEPORT with the ideal fabric,
// run through bench::RunLegs at a fixed host-thread count. Inputs are
// generated from the seed at a reduced scale so one round takes well under
// a second of host time.

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/workloads.h"
#include "db/query.h"
#include "db/tpch.h"
#include "graph/engine.h"
#include "graph/graph.h"
#include "mr/engine.h"
#include "mr/text.h"

namespace perfbench {
namespace {

using namespace teleport;  // NOLINT

/// Legs run serially: the process is pinned to one CPU.
constexpr int kHostThreads = 1;
constexpr double kDbScaleFactor = 0.3;
constexpr uint64_t kGraphVertices = 6000;
constexpr uint64_t kGraphDegree = 8;
constexpr uint64_t kMrBytes = 512 << 10;
/// The suite's deployment shape (bench::DeployOptions defaults): a compute
/// cache of 2% of the working set and a memory pool 8x its size.
constexpr double kCacheFraction = 0.02;
constexpr double kPoolMultiple = 8.0;

enum class Engine { kDb, kGraph, kMr };
enum Platform { kLocal = 0, kBaseDdc = 1, kTeleport = 2, kNumPlatforms = 3 };
const char* const kPlatformNames[] = {"Local", "BaseDDC", "TELEPORT"};

struct Case {
  const char* label;
  const char* span;  ///< the engine entry call, as a span name
  Engine engine;
  const char* query = nullptr;  ///< db: DefaultTeleportOps key
  db::QueryResult (*db)(ddc::ExecutionContext&, const db::TpchDatabase&,
                        const db::QueryOptions&) = nullptr;
  graph::GasResult (*gas)(ddc::ExecutionContext&, const graph::Graph&,
                          const graph::GasOptions&) = nullptr;
  bool grep = false;  ///< mr: Grep instead of WordCount
};
const Case kCases[] = {
    {"Q9", "db.RunQ9", Engine::kDb, "q9", &db::RunQ9},
    {"Q3", "db.RunQ3", Engine::kDb, "q3", &db::RunQ3},
    {"Q6", "db.RunQ6", Engine::kDb, "q6", &db::RunQ6},
    {"SSSP", "graph.RunSssp", Engine::kGraph, nullptr, nullptr, &graph::RunSssp},
    {"RE", "graph.RunReachability", Engine::kGraph, nullptr, nullptr,
     &graph::RunReachability},
    {"CC", "graph.RunConnectedComponents", Engine::kGraph, nullptr, nullptr,
     &graph::RunConnectedComponents},
    {"WC", "mr.RunWordCount", Engine::kMr},
    {"Grep", "mr.RunGrep", Engine::kMr, nullptr, nullptr, nullptr, true},
};
constexpr int kNumCases = static_cast<int>(std::size(kCases));

struct Deployment {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<db::TpchDatabase> database;
  graph::Graph graph;
  mr::TextCorpus corpus;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<tp::PushdownRuntime> runtime;
};

struct LegOut {
  Nanos virtual_ns = 0;
  int64_t checksum = 0;
  sim::Metrics metrics;
  tp::PushdownBreakdown breakdown;
  uint64_t calls = 0;
};

std::unique_ptr<ddc::MemorySystem> MakeSystem(Platform p, uint64_t working_set,
                                              uint64_t space_bytes) {
  ddc::DdcConfig dc;
  dc.platform = p == kLocal ? ddc::Platform::kLocal : ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = std::max<uint64_t>(
      16 * 4096, static_cast<uint64_t>(kCacheFraction *
                                       static_cast<double>(working_set)));
  dc.memory_pool_bytes =
      static_cast<uint64_t>(kPoolMultiple * static_cast<double>(working_set));
  auto ms = std::make_unique<ddc::MemorySystem>(dc, sim::CostParams::Default(),
                                                space_bytes);
  ms->fabric().set_backend(net::Backend::kIdeal);
  ms->set_journal_enabled(false);
  ms->set_scalar_datapath(false);
  return ms;
}

/// Mirrors bench::MakeDb / MakeGraph / MakeMr, with seeded inputs.
Deployment Deploy(const Case& c, Platform p, uint64_t seed) {
  Deployment d;
  switch (c.engine) {
    case Engine::kDb: {
      db::TpchConfig cfg;
      cfg.scale_factor = kDbScaleFactor;
      cfg.seed = DeriveSeed(seed, 1);
      const uint64_t bytes = db::EstimateTpchBytes(cfg);
      d.ms = MakeSystem(p, bytes, bytes * 12);
      d.database = db::GenerateTpch(d.ms.get(), cfg);
      break;
    }
    case Engine::kGraph: {
      graph::GraphConfig cfg;
      cfg.vertices = kGraphVertices;
      cfg.avg_degree = kGraphDegree;
      cfg.seed = DeriveSeed(seed, 2);
      const uint64_t bytes = graph::EstimateGraphBytes(cfg);
      d.ms = MakeSystem(p, bytes, bytes * 6);
      d.graph = graph::GenerateGraph(d.ms.get(), cfg);
      break;
    }
    case Engine::kMr: {
      mr::TextConfig cfg;
      cfg.bytes = kMrBytes;
      cfg.seed = DeriveSeed(seed, 3);
      d.ms = MakeSystem(p, kMrBytes * 8, kMrBytes * 40);
      d.corpus = mr::GenerateText(d.ms.get(), cfg);
      break;
    }
  }
  d.ctx = d.ms->CreateContext(ddc::Pool::kCompute);
  if (p == kTeleport) d.runtime = std::make_unique<tp::PushdownRuntime>(d.ms.get());
  return d;
}

LegOut RunLeg(const Case& c, Deployment& d) {
  LegOut out;
  ScopedSpan span(c.span);
  switch (c.engine) {
    case Engine::kDb: {
      db::QueryOptions opts;
      if (d.runtime) {
        opts.runtime = d.runtime.get();
        opts.push_ops = db::DefaultTeleportOps(c.query);
      }
      const db::QueryResult r = c.db(*d.ctx, *d.database, opts);
      out.virtual_ns = r.total_ns;
      out.checksum = r.checksum;
      break;
    }
    case Engine::kGraph: {
      graph::GasOptions opts;
      if (d.runtime) {
        opts.runtime = d.runtime.get();
        opts.push_phases = graph::DefaultTeleportPhases();
      }
      const graph::GasResult r = c.gas(*d.ctx, d.graph, opts);
      out.virtual_ns = r.total_ns;
      out.checksum = r.checksum;
      break;
    }
    case Engine::kMr: {
      mr::MrOptions opts;
      if (d.runtime) {
        opts.runtime = d.runtime.get();
        opts.push_phases = mr::DefaultTeleportPhases(c.grep);
      }
      const mr::MrResult r = c.grep ? mr::RunGrep(*d.ctx, d.corpus, "wab", opts)
                                    : mr::RunWordCount(*d.ctx, d.corpus, opts);
      out.virtual_ns = r.total_ns;
      out.checksum = r.checksum;
      break;
    }
  }
  out.metrics = d.ctx->metrics();
  if (d.runtime) {
    out.breakdown = d.runtime->total_breakdown();
    out.calls = d.runtime->completed_calls();
  }
  return out;
}

class Analytics : public Workload {
 public:
  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "analytics: Q9/Q3/Q6 (TPC-H sf %.2f), SSSP/RE/CC (%llu "
                  "vertices, degree %llu), WC/Grep (%llu KiB) x "
                  "Local/BaseDDC/TELEPORT, ideal fabric, RunLegs host_threads=%d",
                  kDbScaleFactor, static_cast<unsigned long long>(kGraphVertices),
                  static_cast<unsigned long long>(kGraphDegree),
                  static_cast<unsigned long long>(kMrBytes >> 10), kHostThreads);
    return buf;
  }

  /// The warm-up unit is one case (Q9) on every platform.
  void Prepare(uint64_t seed, bool warm_up) override {
    deployments_.clear();
    for (int w = 0; w < (warm_up ? 1 : kNumCases); ++w) {
      for (int p = 0; p < kNumPlatforms; ++p) {
        deployments_.push_back(Deploy(kCases[w], static_cast<Platform>(p), seed));
      }
    }
  }

  Round Run() override {
    Round round;
    std::vector<LegOut> legs(deployments_.size());
    round.piece_s.resize(deployments_.size());
    std::vector<std::function<void()>> jobs;
    for (size_t i = 0; i < deployments_.size(); ++i) {
      jobs.push_back([this, &legs, &round, i] {
        ScopedSpan span("analytics.leg", static_cast<int>(i));
        const int64_t t0 = HostNowNs();
        legs[i] = RunLeg(kCases[i / kNumPlatforms], deployments_[i]);
        round.piece_s[i] = SecondsSince(t0);
      });
    }
    {
      ScopedSpan span("sim.legrunner.RunLegs");
      bench::RunLegs(jobs, kHostThreads);
    }

    sim::Metrics ddc_metrics;
    tp::PushdownBreakdown bd;
    uint64_t calls = 0;
    double log_speedup = 0;
    double teleport_ms = 0;
    double engine_ms[3] = {0, 0, 0};
    const int cases = static_cast<int>(deployments_.size()) / kNumPlatforms;
    for (int w = 0; w < cases; ++w) {
      const LegOut* leg = &legs[static_cast<size_t>(w) * kNumPlatforms];
      bool ok = true;
      for (int p = 0; p < kNumPlatforms; ++p) {
        round.fingerprint.Add(static_cast<uint64_t>(leg[p].virtual_ns));
        round.fingerprint.Add(static_cast<uint64_t>(leg[p].checksum));
        FoldMetrics(leg[p].metrics, round.fingerprint);
        if (leg[p].checksum != leg[kLocal].checksum) {
          ok = false;
          round.errors.push_back(std::string(kCases[w].label) + " on " +
                                 kPlatformNames[p] + ": checksum " +
                                 std::to_string(leg[p].checksum) +
                                 " != Local " +
                                 std::to_string(leg[kLocal].checksum));
        }
      }
      round.units.Add(ok);
      ddc_metrics.Add(leg[kBaseDdc].metrics);
      ddc_metrics.Add(leg[kTeleport].metrics);
      bd.Add(leg[kTeleport].breakdown);
      calls += leg[kTeleport].calls;
      const double t_ms = static_cast<double>(leg[kTeleport].virtual_ns) / 1e6;
      teleport_ms += t_ms;
      engine_ms[static_cast<int>(kCases[w].engine)] += t_ms;
      log_speedup += std::log(static_cast<double>(leg[kBaseDdc].virtual_ns) /
                              static_cast<double>(leg[kTeleport].virtual_ns));
    }
    round.virt["virt_ms"] = teleport_ms;
    round.virt["teleport.speedup"] = std::exp(log_speedup / cases);
    round.virt["db.virt_ms"] = engine_ms[0];
    round.virt["graph.virt_ms"] = engine_ms[1];
    round.virt["mr.virt_ms"] = engine_ms[2];
    CheckIdealFabric(ddc_metrics, "analytics", round);
    AddLayerCounters(ddc_metrics, bd, calls, round.virt);
    round.fingerprint.Add(round.virt["teleport.speedup"]);
    round.fingerprint.Add(static_cast<uint64_t>(bd.Total()));
    round.fingerprint.Add(calls);
    return round;
  }

  void HostLayers(const std::map<std::string, SpanTotals>& spans,
                  const Round&, Values& out) const override {
    double engine_s[3] = {0, 0, 0};
    for (const Case& c : kCases) {
      engine_s[static_cast<int>(c.engine)] += SpanSeconds(spans, c.span);
    }
    out["db.host_s"] = engine_s[0];
    out["graph.host_s"] = engine_s[1];
    out["mr.host_s"] = engine_s[2];
    out["sim.legrunner.host_s"] = SpanSeconds(spans, "sim.legrunner.RunLegs");
    const auto leg = spans.find("analytics.leg");
    out["sim.legrunner.critical_leg_s"] =
        leg == spans.end() ? 0.0 : static_cast<double>(leg->second.max_ns) / 1e9;
  }

 private:
  std::vector<Deployment> deployments_;  ///< case-major, platform-minor
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics() { return std::make_unique<Analytics>(); }

}  // namespace perfbench
