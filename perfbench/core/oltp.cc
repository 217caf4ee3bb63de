// oltp_explore: OCC transactions on small-node B+-trees in BaseDDC with the
// journal on, in two parts per round.
//
//  - Interleaved units (the explore-tier shape): each builds a fresh table
//    and runs three YCSB-A zipfian sessions as sim::CoopTasks (quantum 1)
//    under RandomSchedule(seed, unit) with tp::ModelChecker attached, then
//    replays the sessions one after another as the sequential golden the
//    interleaved answer must match. Host time here is scheduler handoffs.
//  - Sequential units: each builds a fresh, larger table and runs three
//    explore-tier YCSB-A sessions (3 ops per txn) one after another, with
//    page faults, evictions, writebacks and journal appends. Their answers
//    must equal a replay on the Local platform, computed once per seed.
//
// The sequential part carries most of the host time, so that the scheduler
// handoffs — whose cost moves with the load of the host far more than
// user-space work does — stay a bounded share of wall_s.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/workloads.h"
#include "ddc/memory_system.h"
#include "oltp/btree.h"
#include "oltp/txn.h"
#include "oltp/workload.h"
#include "sim/coop_task.h"
#include "sim/interleaver.h"
#include "teleport/model_checker.h"

namespace perfbench {
namespace {

using namespace teleport;  // NOLINT

constexpr uint64_t kPage = 4096;
constexpr int kSessions = 3;
constexpr int kInterleavedUnits = 1;
constexpr int kInterleavedTxns = 24;  ///< per session, 1 op each
constexpr uint64_t kInterleavedKeys = 64;
constexpr int kSequentialUnits = 12;
constexpr int kSequentialTxns = 2048;  ///< per session
constexpr int kSequentialOps = 3;
constexpr uint64_t kSequentialKeys = 1024;

oltp::YcsbConfig WorkloadFor(uint64_t seed, int unit, int txns, int ops,
                             uint64_t keyspace) {
  oltp::YcsbConfig cfg;
  cfg.sessions = kSessions;
  cfg.txns_per_session = txns;
  cfg.ops_per_txn = ops;
  cfg.keyspace = keyspace;
  cfg.read_fraction = 0.5;  // YCSB-A: half reads, half read-modify-writes
  cfg.update_fraction = 0.5;
  cfg.insert_fraction = 0.0;
  cfg.zipfian = true;
  cfg.seed = DeriveSeed(seed, static_cast<uint64_t>(unit));
  return cfg;
}

/// One fresh table with 8-entry nodes, probes compute-side. On BaseDDC:
/// a 16-page compute cache (descents evict and fault) and the journal on.
struct Table {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<oltp::BTree> tree;
  std::unique_ptr<oltp::TxnManager> mgr;
};

Table BuildTable(ddc::Platform platform, uint64_t keyspace) {
  const uint64_t arena_pages = keyspace / 2;
  Table t;
  ddc::DdcConfig cfg;
  cfg.platform = platform;
  cfg.compute_cache_bytes =
      platform == ddc::Platform::kLocal ? 2 * arena_pages * kPage : 16 * kPage;
  cfg.memory_pool_bytes = 4 * arena_pages * kPage;
  t.ms = std::make_unique<ddc::MemorySystem>(cfg, sim::CostParams::Default(),
                                             2 * arena_pages * kPage);
  t.ms->fabric().set_backend(net::Backend::kIdeal);
  t.ms->set_journal_enabled(platform != ddc::Platform::kLocal);
  t.ms->set_scalar_datapath(false);
  t.ctx = t.ms->CreateContext(ddc::Pool::kCompute);
  oltp::BTreeOptions opts;
  opts.arena_pages = arena_pages;
  opts.max_leaf_entries = 8;
  opts.max_inner_entries = 8;
  t.tree = std::make_unique<oltp::BTree>(t.ms.get(), *t.ctx, opts);
  oltp::PreloadTable(*t.ctx, *t.tree, keyspace);
  t.ms->SeedData();
  t.mgr = std::make_unique<oltp::TxnManager>(t.ms.get(), t.tree.get());
  return t;
}

/// The answer of a sequential unit: its table content and committed set
/// (`committed` and `aborted` are counts, not part of the answer).
struct Answer {
  uint64_t content = 0;
  uint64_t commits = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

/// Runs every session of `cfg` one after another on `t`'s own context.
Answer RunSequential(Table& t, const oltp::YcsbConfig& cfg) {
  Answer a;
  for (int s = 0; s < kSessions; ++s) {
    const oltp::YcsbResult r = oltp::RunYcsbSession(*t.ctx, *t.mgr, cfg, s);
    a.commits ^= r.commit_digest;
    a.committed += r.committed;
    a.aborted += r.aborted;
  }
  a.content = t.tree->ContentDigest(*t.ctx);
  return a;
}

struct InterleavedUnit {
  oltp::YcsbConfig cfg;
  uint64_t schedule_seed = 0;
  Table interleaved;
  Table golden;
};

struct SequentialUnit {
  oltp::YcsbConfig cfg;
  Table table;
};

class OltpExplore : public Workload {
 public:
  std::string Describe() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "oltp_explore: %d interleaved units x %d YCSB-A zipfian sessions x %d "
        "txns (1 op, %llu keys), CoopTask quantum 1, RandomSchedule, "
        "ModelChecker; %d sequential units x %d sessions x %d txns (%d ops, "
        "%llu keys); BaseDDC 16-page cache, journal on, ideal fabric",
        kInterleavedUnits, kSessions, kInterleavedTxns,
        static_cast<unsigned long long>(kInterleavedKeys), kSequentialUnits,
        kSessions, kSequentialTxns, kSequentialOps,
        static_cast<unsigned long long>(kSequentialKeys));
    return buf;
  }

  void Prepare(uint64_t seed, bool warm_up) override {
    const int n_interleaved = warm_up ? 1 : kInterleavedUnits;
    const int n_sequential = warm_up ? 1 : kSequentialUnits;
    interleaved_.clear();
    for (int u = 0; u < n_interleaved; ++u) {
      InterleavedUnit unit;
      unit.cfg = WorkloadFor(seed, u, kInterleavedTxns, 1, kInterleavedKeys);
      unit.schedule_seed = DeriveSeed(seed ^ 0x5c4edULL, static_cast<uint64_t>(u));
      unit.interleaved = BuildTable(ddc::Platform::kBaseDdc, kInterleavedKeys);
      unit.golden = BuildTable(ddc::Platform::kBaseDdc, kInterleavedKeys);
      interleaved_.push_back(std::move(unit));
    }
    sequential_.clear();
    for (int u = 0; u < n_sequential; ++u) {
      SequentialUnit unit;
      unit.cfg = WorkloadFor(seed, kInterleavedUnits + u, kSequentialTxns,
                             kSequentialOps, kSequentialKeys);
      unit.table = BuildTable(ddc::Platform::kBaseDdc, kSequentialKeys);
      sequential_.push_back(std::move(unit));
    }
    // The Local-platform answers of the sequential units, once per seed.
    if (answers_seed_ != seed || answers_.size() < sequential_.size()) {
      answers_.clear();
      for (const SequentialUnit& unit : sequential_) {
        Table local = BuildTable(ddc::Platform::kLocal, kSequentialKeys);
        answers_.push_back(RunSequential(local, unit.cfg));
      }
      answers_seed_ = seed;
    }
  }

  Round Run() override {
    Round round;
    sim::Metrics metrics;
    sim::TenantScopes latency(1);
    double virt_ms = 0;
    uint64_t steps = 0, commits = 0, aborts = 0, seq_commits = 0;
    for (size_t u = 0; u < interleaved_.size(); ++u) {
      InterleavedUnit& unit = interleaved_[u];
      const int64_t t0 = HostNowNs();
      oltp::YcsbConfig cfg = unit.cfg;
      cfg.scopes = &latency;

      // Interleaved sessions under the model checker.
      Table& t = unit.interleaved;
      tp::ModelChecker checker(t.ms.get(), tp::ModelChecker::OnViolation::kRecord);
      std::vector<std::unique_ptr<ddc::ExecutionContext>> ctxs;
      std::vector<oltp::YcsbResult> results(kSessions);
      Nanos makespan = 0;
      std::vector<uint32_t> trace;
      {
        std::vector<std::unique_ptr<sim::CoopTask>> tasks;
        sim::Interleaver il;
        for (int s = 0; s < kSessions; ++s) {
          ctxs.push_back(t.ms->CreateContext(ddc::Pool::kCompute, 0, s));
          ddc::ExecutionContext* ctx = ctxs.back().get();
          oltp::TxnManager* mgr = t.mgr.get();
          tasks.push_back(std::make_unique<sim::CoopTask>(
              std::vector<ddc::ExecutionContext*>{ctx},
              [ctx, mgr, cfg, &results, s] {
                results[static_cast<size_t>(s)] =
                    oltp::RunYcsbSession(*ctx, *mgr, cfg, s);
              },
              /*quantum=*/1));
          il.Add(tasks.back().get());
        }
        sim::RandomSchedule schedule(unit.schedule_seed);
        il.set_schedule(&schedule);
        il.set_record_trace(true);
        ScopedSpan span("sim.Interleaver.Run", static_cast<int>(u));
        makespan = il.Run();
        trace = il.trace();
      }
      uint64_t violations = 0;
      {
        ScopedSpan span("teleport.ModelChecker.Finish", static_cast<int>(u));
        violations = checker.Finish();
      }
      uint64_t commit_digest = 0, gave_up = 0;
      for (const oltp::YcsbResult& r : results) {
        commit_digest ^= r.commit_digest;
        gave_up += r.gave_up;
        commits += r.committed;
        aborts += r.aborted;
      }
      for (const auto& c : ctxs) metrics.Add(c->metrics());
      const uint64_t content = t.tree->ContentDigest(*t.ctx);

      // Sequential golden: the same sessions one after another.
      Answer golden;
      {
        ScopedSpan span("oltp.golden", static_cast<int>(u));
        golden = RunSequential(unit.golden, unit.cfg);
      }
      round.piece_s.push_back(SecondsSince(t0));

      const bool ok = violations == 0 && gave_up == 0 &&
                      content == golden.content && commit_digest == golden.commits;
      round.units.Add(ok);
      if (!ok) {
        round.errors.push_back(
            "oltp interleaved unit " + std::to_string(u) + ": violations " +
            std::to_string(violations) + ", gave_up " + std::to_string(gave_up) +
            ", content " + std::to_string(content) + " vs golden " +
            std::to_string(golden.content) + ", commits " +
            std::to_string(commit_digest) + " vs " + std::to_string(golden.commits));
      }
      steps += trace.size();
      virt_ms += static_cast<double>(makespan) / 1e6;
      round.fingerprint.Add(static_cast<uint64_t>(makespan));
      round.fingerprint.Add(static_cast<uint64_t>(trace.size()));
      for (const uint32_t step : trace) round.fingerprint.Add(static_cast<uint64_t>(step));
      round.fingerprint.Add(content);
      round.fingerprint.Add(commit_digest);
    }

    for (size_t u = 0; u < sequential_.size(); ++u) {
      SequentialUnit& unit = sequential_[u];
      oltp::YcsbConfig cfg = unit.cfg;
      cfg.scopes = &latency;
      Table& t = unit.table;
      const Nanos start = t.ctx->now();
      const sim::Metrics before = t.ctx->metrics();
      Answer got;
      {
        ScopedSpan span("oltp.sequential", static_cast<int>(u));
        const int64_t t0 = HostNowNs();
        got = RunSequential(t, cfg);
        round.piece_s.push_back(SecondsSince(t0));
      }
      const Nanos elapsed = t.ctx->now() - start;
      metrics.Add(t.ctx->metrics().Diff(before));
      seq_commits += got.committed;
      virt_ms += static_cast<double>(elapsed) / 1e6;
      const Answer& want = answers_[u];
      const bool ok = got.content == want.content && got.commits == want.commits;
      round.units.Add(ok);
      if (!ok) {
        round.errors.push_back(
            "oltp sequential unit " + std::to_string(u) + ": content " +
            std::to_string(got.content) + " vs Local " +
            std::to_string(want.content) + ", commits " +
            std::to_string(got.commits) + " vs " + std::to_string(want.commits));
      }
      round.fingerprint.Add(static_cast<uint64_t>(elapsed));
      round.fingerprint.Add(got.content);
    }
    FoldMetrics(metrics, round.fingerprint);
    CheckIdealFabric(metrics, "oltp_explore", round);

    const Histogram lat = latency.MergedLatency();
    round.virt["virt_ms"] = virt_ms;
    round.virt["sim.steps"] = static_cast<double>(steps);
    // Of the interleaved sessions: sequential ones never conflict.
    round.virt["oltp.commit_ratio"] =
        static_cast<double>(commits) / static_cast<double>(commits + aborts);
    round.virt["oltp.p50_us"] = lat.Percentile(50) / 1e3;
    round.virt["oltp.p99_us"] = lat.Percentile(99) / 1e3;
    round.virt["oltp.tail_samples"] =
        static_cast<double>(SamplesBeyond(lat.count(), 99));
    round.virt["oltp.tput_kops_s"] =
        static_cast<double>(commits + seq_commits) / virt_ms;
    if (!TailResolved(lat.count(), 99)) {
      round.errors.push_back("oltp p99 unresolved: " +
                             std::to_string(lat.count()) + " committed txns");
    }
    AddLayerCounters(metrics, tp::PushdownBreakdown{}, metrics.pushdown_calls,
                     round.virt);
    for (const auto& [name, v] : round.virt) round.fingerprint.Add(v);
    return round;
  }

  void HostLayers(const std::map<std::string, SpanTotals>& spans,
                  const Round& round, Values& out) const override {
    const double run_s = SpanSeconds(spans, "sim.Interleaver.Run");
    const double golden_s = SpanSeconds(spans, "oltp.golden");
    out["oltp.sequential_host_s"] = SpanSeconds(spans, "oltp.sequential");
    out["sim.host_ns_per_step"] =
        (run_s - golden_s) * 1e9 / round.virt.at("sim.steps");
  }

 private:
  std::vector<InterleavedUnit> interleaved_;
  std::vector<SequentialUnit> sequential_;
  std::optional<uint64_t> answers_seed_;  ///< the seed answers_ belong to
  std::vector<Answer> answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeOltpExplore() {
  return std::make_unique<OltpExplore>();
}

}  // namespace perfbench
