// The three benchmark workloads behind one interface. A run sets up once
// per repetition (deployments and one untimed warm-up unit on a held-out
// seed, then the deployments of the measured seed), then repeats identical
// rounds: each round's deployments are built untimed by Prepare(), and
// Run() is the timed work. Every round
// of one seed must produce bit-identical virtual results.

#ifndef PERFBENCH_CORE_WORKLOADS_H_
#define PERFBENCH_CORE_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/spans.h"
#include "sim/metrics.h"
#include "teleport/pushdown.h"

namespace perfbench {

/// Metric name -> value. Names are the BENCHMARK.json metric names.
using Values = std::map<std::string, double>;

/// Outcome of one round. Every entry of `virt` is a function of the seed
/// alone (virtual time and simulator counters), folded into `fingerprint`.
struct Round {
  FailCount units;
  Values virt;
  Fingerprint fingerprint;
  std::vector<std::string> errors;  ///< one line per failed check
  /// Host seconds of each timed piece of the round (an analytics leg, an
  /// oltp unit, a rack rung), in a fixed order; wall_s sums each piece's
  /// fastest repetition.
  std::vector<double> piece_s;
};

/// Host seconds elapsed since `t0_ns` (a HostNowNs() reading).
inline double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(HostNowNs() - t0_ns) / 1e9;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// One-line description of the shape, printed before the results.
  virtual std::string Describe() const = 0;

  /// Builds the inputs and deployments of one round of `seed`, and any
  /// per-seed answer key (computed again only when the seed changes). With
  /// `warm_up`, builds only what the set-up's untimed warm-up unit needs:
  /// the smallest slice of a round that still runs every check.
  virtual void Prepare(uint64_t seed, bool warm_up) = 0;

  /// The timed work: runs the prepared round and checks its answers.
  virtual Round Run() = 0;

  /// Host-time per-layer metrics of one traced round, from its span rollup.
  virtual void HostLayers(const std::map<std::string, SpanTotals>& spans,
                          const Round& round, Values& out) const = 0;
};

std::unique_ptr<Workload> MakeAnalytics();
std::unique_ptr<Workload> MakeOltpExplore();
std::unique_ptr<Workload> MakeRackOpenLoop();

/// Every per-layer metric name, in report order, with its unit. Workloads
/// that do no work in a layer report 0 for it.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& PerLayerSpecs();

/// Mean session interarrival of each rung of rack_openloop's fixed
/// offered-rate ladder, in virtual microseconds (slowest first).
inline constexpr int kRackLadderIatUs[] = {80, 70, 60, 55, 50, 45, 40};
/// "rack.rate<sessions per virtual second>.p99_us" of one rung.
std::string RackRungMetric(int iat_us);

/// Folds the ddc/net/teleport counters every workload reports from the
/// summed context metrics and pushdown breakdowns of a round.
void AddLayerCounters(const teleport::sim::Metrics& m,
                      const teleport::tp::PushdownBreakdown& bd,
                      uint64_t pushdown_calls, Values& out);

/// Fails `round` (one error line) when any fabric queue counter of `m` is
/// non-zero: on the ideal fabric nothing may queue.
void CheckIdealFabric(const teleport::sim::Metrics& m, const char* workload,
                      Round& round);

/// Folds every simulator counter of `m` into `fp`.
void FoldMetrics(const teleport::sim::Metrics& m, Fingerprint& fp);

/// splitmix64 of (a, b): derived seeds for inputs, units, and schedules.
uint64_t DeriveSeed(uint64_t a, uint64_t b);

/// Host seconds of a span name in a rollup (0 when absent).
double SpanSeconds(const std::map<std::string, SpanTotals>& spans,
                   const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_WORKLOADS_H_
