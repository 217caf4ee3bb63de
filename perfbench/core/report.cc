#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double SumOfFastest(const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return 0.0;
  std::vector<double> best = rounds.front();
  for (const std::vector<double>& r : rounds) {
    for (size_t i = 0; i < best.size() && i < r.size(); ++i) {
      best[i] = std::min(best[i], r[i]);
    }
  }
  double sum = 0;
  for (const double b : best) sum += b;
  return sum;
}

uint64_t SamplesBeyond(uint64_t n, double p) {
  // The epsilon keeps binary rounding of p (99.9 is not exact) from pushing
  // an integral rank up by one.
  const auto rank =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

bool TailResolved(uint64_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

bool RungSustainable(const Rung& rung, double p99_limit_us,
                     double backlog_slack) {
  return rung.p99_us <= p99_limit_us &&
         rung.achieved_kps >= (1.0 - backlog_slack) * rung.offered_kps;
}

double MaxSustainableRate(std::vector<Rung> ladder, double p99_limit_us,
                          double backlog_slack) {
  std::sort(ladder.begin(), ladder.end(), [](const Rung& a, const Rung& b) {
    return a.offered_kps < b.offered_kps;
  });
  double best = 0.0;
  for (const Rung& r : ladder) {
    if (!RungSustainable(r, p99_limit_us, backlog_slack)) break;
    best = r.offered_kps;
  }
  return best;
}

std::string FailCount::ToString() const {
  return std::to_string(failed_) + "/" + std::to_string(attempted_);
}

void Fingerprint::Add(uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  v ^= v >> 31;
  h_ = (h_ ^ v) * 1099511628211ULL;
}

void Fingerprint::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

std::string Fingerprint::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
