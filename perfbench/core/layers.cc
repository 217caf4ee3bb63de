// Per-layer metric catalogue and the counter folds shared by the workloads.

#include <string>

#include "core/workloads.h"
#include "oltp/workload.h"

namespace perfbench {

namespace tp = teleport::tp;

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"sim.steps", "count"},
        {"sim.host_ns_per_step", "ns"},
        {"sim.legrunner.host_s", "s"},
        {"sim.legrunner.critical_leg_s", "s"},
        {"ddc.cache_hit_ratio", "ratio"},
        {"ddc.page_faults", "count"},
        {"ddc.evictions", "count"},
        {"ddc.writebacks", "count"},
        {"ddc.remote_mb", "MB"},
        {"ddc.journal_appends", "count"},
        {"ddc.journal_flushes", "count"},
        {"net.messages", "count"},
        {"net.bytes", "bytes"},
        {"net.queue_wait_us", "us"},
        {"net.doorbells", "count"},
        {"net.doorbells_coalesced", "count"},
        {"teleport.calls", "count"},
        {"teleport.coherence_msgs", "count"},
        {"teleport.pre_sync_ms", "ms"},
        {"teleport.request_transfer_ms", "ms"},
        {"teleport.queue_wait_ms", "ms"},
        {"teleport.context_setup_ms", "ms"},
        {"teleport.function_exec_ms", "ms"},
        {"teleport.online_sync_ms", "ms"},
        {"teleport.response_transfer_ms", "ms"},
        {"teleport.post_sync_ms", "ms"},
        {"teleport.speedup", "x"},
        {"oltp.commit_ratio", "ratio"},
        {"oltp.sequential_host_s", "s"},
        {"oltp.p50_us", "us"},
        {"oltp.p99_us", "us"},
        {"oltp.tail_samples", "count"},
        {"oltp.tput_kops_s", "kops/s"},
        {"db.host_s", "s"},
        {"graph.host_s", "s"},
        {"mr.host_s", "s"},
        {"db.virt_ms", "ms"},
        {"graph.virt_ms", "ms"},
        {"mr.virt_ms", "ms"},
        {"rack.host_us_per_session", "us"},
    };
    for (const int iat_us : kRackLadderIatUs) {
      s.push_back({RackRungMetric(iat_us), "us"});
    }
    const std::vector<MetricSpec> rack_tail = {
        {"rack.p50_us", "us"},
        {"rack.tail_samples", "count"},
        {"rack.tput_kops_s", "kops/s"},
        {"rack.max_rate_kps", "kops/s"},
        {"rack.fairness", "ratio"},
        {"host.peak_rss_mb", "MB"},
        {"trace.overhead_s", "s"},
    };
    s.insert(s.end(), rack_tail.begin(), rack_tail.end());
    return s;
  }();
  return specs;
}

std::string RackRungMetric(int iat_us) {
  return "rack.rate" + std::to_string(1'000'000 / iat_us) + ".p99_us";
}

void AddLayerCounters(const teleport::sim::Metrics& m,
                      const tp::PushdownBreakdown& bd,
                      uint64_t pushdown_calls, Values& out) {
  const double touches = static_cast<double>(m.cache_hits + m.cache_misses);
  out["ddc.cache_hit_ratio"] =
      touches > 0 ? static_cast<double>(m.cache_hits) / touches : 0.0;
  out["ddc.page_faults"] = static_cast<double>(m.cache_misses);
  out["ddc.evictions"] = static_cast<double>(m.cache_evictions);
  out["ddc.writebacks"] = static_cast<double>(m.dirty_writebacks);
  out["ddc.remote_mb"] =
      static_cast<double>(m.RemoteMemoryBytes()) / (1024.0 * 1024.0);
  out["ddc.journal_appends"] = static_cast<double>(m.journal_appends);
  out["ddc.journal_flushes"] = static_cast<double>(m.journal_flushes);
  out["net.messages"] = static_cast<double>(m.net_messages);
  out["net.bytes"] = static_cast<double>(m.net_bytes);
  out["net.queue_wait_us"] = static_cast<double>(m.netq_queue_wait_ns) / 1e3;
  out["net.doorbells"] = static_cast<double>(m.netq_doorbells);
  out["net.doorbells_coalesced"] =
      static_cast<double>(m.netq_doorbells_coalesced);
  out["teleport.calls"] = static_cast<double>(pushdown_calls);
  out["teleport.coherence_msgs"] = static_cast<double>(m.coherence_messages);
  const auto ms = [](teleport::Nanos ns) { return static_cast<double>(ns) / 1e6; };
  out["teleport.pre_sync_ms"] = ms(bd.pre_sync_ns);
  out["teleport.request_transfer_ms"] = ms(bd.request_transfer_ns);
  out["teleport.queue_wait_ms"] = ms(bd.queue_wait_ns);
  out["teleport.context_setup_ms"] = ms(bd.context_setup_ns);
  out["teleport.function_exec_ms"] = ms(bd.function_exec_ns);
  out["teleport.online_sync_ms"] = ms(bd.online_sync_ns);
  out["teleport.response_transfer_ms"] = ms(bd.response_transfer_ns);
  out["teleport.post_sync_ms"] = ms(bd.post_sync_ns);
}

void CheckIdealFabric(const teleport::sim::Metrics& m, const char* workload,
                      Round& round) {
  std::string queued;
#define PERFBENCH_NETQ(field, group, label)                          \
  if (std::string(#group) == "netq" && m.field != 0) {               \
    queued += std::string(queued.empty() ? "" : ", ") + #label + " " + \
              std::to_string(m.field);                                \
  }
  TELEPORT_SIM_METRICS_FIELDS(PERFBENCH_NETQ)
#undef PERFBENCH_NETQ
  if (!queued.empty()) {
    round.errors.push_back(std::string(workload) +
                           ": fabric queue counters on the ideal fabric: " +
                           queued);
  }
}

void FoldMetrics(const teleport::sim::Metrics& m, Fingerprint& fp) {
#define PERFBENCH_FOLD(field, group, label) fp.Add(static_cast<uint64_t>(m.field));
  TELEPORT_SIM_METRICS_FIELDS(PERFBENCH_FOLD)
#undef PERFBENCH_FOLD
}

uint64_t DeriveSeed(uint64_t a, uint64_t b) {
  return teleport::oltp::Mix64(a ^ teleport::oltp::Mix64(b));
}

double SpanSeconds(const std::map<std::string, SpanTotals>& spans,
                   const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
}

}  // namespace perfbench
