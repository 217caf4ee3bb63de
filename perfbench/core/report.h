// Pure helpers of the benchmark driver: order statistics, the percentile
// sizing rule, the offered-rate ladder, failure counting, the determinism
// fingerprint, and JSON number formatting. No simulator dependency, so the
// helper tests link against this file alone.

#ifndef PERFBENCH_CORE_REPORT_H_
#define PERFBENCH_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Smallest value; 0 when empty. The host-time estimator over repetitions of
/// identical work: interference from other tenants of the host only ever
/// adds time, so the fastest repetition is the one least disturbed by it.
double Fastest(const std::vector<double>& values);

/// Sum over pieces of each piece's fastest repetition: `rounds[r][i]` is the
/// time of piece i in repetition r (every round lists the same pieces).
/// Fine-grained pieces catch the short undisturbed windows of a shared
/// host that a whole round rarely fits into.
double SumOfFastest(const std::vector<std::vector<double>>& rounds);

/// Percentile sizing rule. Percentiles are reported by rank: the p-th
/// percentile of n samples is the ceil(p/100 * n)-th smallest, so exactly
/// n - ceil(p/100 * n) samples rank beyond it. A percentile is resolved —
/// printable as a tail figure — only when at least kMinTailSamples do.
inline constexpr uint64_t kMinTailSamples = 10;
uint64_t SamplesBeyond(uint64_t n, double p);
bool TailResolved(uint64_t n, double p);

/// One rung of a fixed offered-rate ladder, measured on virtual time.
struct Rung {
  double offered_kps = 0;   ///< sessions offered per virtual ms
  double p99_us = 0;        ///< session latency from scheduled arrival
  double achieved_kps = 0;  ///< sessions completed per virtual ms
};

/// A rung is sustainable when its p99 meets `p99_limit_us` and the backlog
/// does not grow: an open-loop run whose service keeps up completes its
/// sessions at the offered rate, while a growing queue drags the achieved
/// rate below it. `backlog_slack` is the tolerated shortfall (0.05 = 5%).
bool RungSustainable(const Rung& rung, double p99_limit_us,
                     double backlog_slack);

/// Highest offered rate whose rung — and every slower rung — is
/// sustainable; 0 when even the slowest rung is not. Rung order is free.
double MaxSustainableRate(std::vector<Rung> ladder, double p99_limit_us,
                          double backlog_slack);

/// Failed-or-wrong units over attempted units, printed as "n/N".
class FailCount {
 public:
  /// Counts one attempted unit; a unit is failed unless `ok`.
  void Add(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Merge(const FailCount& o) {
    attempted_ += o.attempted_;
    failed_ += o.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ToString() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Order-sensitive 64-bit digest (FNV-1a over splitmix-finalized words).
/// Doubles are folded by bit pattern, so two fingerprints agree only when
/// every folded value is bit-identical.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void Add(double v);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// A finite double with all its significant digits, as a JSON number.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_REPORT_H_
