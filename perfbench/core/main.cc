// perfbench: the repo benchmark driver.
//
//   perfbench --workload <analytics|oltp_explore|rack_openloop> --seed <n>
//             --seconds <s> --trace <0|1> [--source-rev <id>]
//             [--spans-out <path>]
//
// Sets up five times (median = setup_s), then repeats identical timed
// rounds for --seconds; wall_s sums the fastest repetition of each piece of
// a round (see SumOfFastest). With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 rounds
// alternate untraced/traced and it carries the per-layer metrics instead.
// Usually launched through perfbench/run.py, which builds this binary.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/report.h"
#include "core/spans.h"
#include "core/workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr int kMinRounds = 3;
/// Offset of the held-out seed the warm-up unit runs on.
constexpr uint64_t kHeldOutSalt = 1000003;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string source_rev = "unknown";
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<analytics|oltp_explore|rack_openloop> --seed <n> --seconds "
               "<s> --trace <0|1> [--source-rev <id>] [--spans-out <path>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1) Usage("--seconds takes an integer >= 1");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--source-rev") {
      a.source_rev = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

/// The benchmark sets every one of these knobs through the API; inheriting
/// one from the environment would silently change what is measured.
void RefuseInheritedKnobs() {
  static const char* const kKnobs[] = {
      "TELEPORT_HOST_THREADS",    "TELEPORT_FABRIC_BACKEND",
      "TELEPORT_JOURNAL",         "TELEPORT_SCALAR_DATAPATH",
      "TELEPORT_BENCH_JSON",      "TELEPORT_TRACE_DIR",
  };
  bool bad = false;
  for (const char* k : kKnobs) {
    if (std::getenv(k) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing inherited %s; the benchmark sets it "
                   "through the API (unset it and rerun)\n",
                   k);
      bad = true;
    }
  }
  if (bad) std::exit(2);
}

/// Pins the process (and every thread it starts later) to the CPU it is
/// running on, where the kernel just placed it. A fixed CPU spread wall_s
/// more, not less, on the shared host this was tuned on (see README.md).
/// Returns {cpu, cpus allowed before pinning}.
std::pair<int, int> PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  int nallowed = 0;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    nallowed = CPU_COUNT(&allowed);
  }
  int cpu = sched_getcpu();
  if (cpu < 0 || (nallowed > 0 && !CPU_ISSET(cpu, &allowed))) return {-1, nallowed};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) cpu = -1;
  return {cpu, nallowed};
}

/// Peak resident set of this process image, in MiB. VmHWM belongs to the
/// current address space only; getrusage's ru_maxrss would also carry the
/// launcher's peak across fork and exec (run.py's Python interpreter).
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "analytics") return MakeAnalytics();
  if (name == "oltp_explore") return MakeOltpExplore();
  if (name == "rack_openloop") return MakeRackOpenLoop();
  return nullptr;
}

std::string FormatList(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

void EmitJson(bool correct, uint64_t attempted, uint64_t failed,
              const std::vector<MetricSpec>& specs, const Values& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += first ? "" : ", ";
    out += "\"" + s.name + "\": {\"value\": " + JsonNumber(v) +
           ", \"unit\": \"" + s.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RefuseInheritedKnobs();
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) Usage(("unknown workload " + args.workload).c_str());
  teleport::SetLogLevel(teleport::LogLevel::kWarning);

  const auto [cpu, nallowed] = PinToOneCpu();
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("host: nproc=%d hardware_concurrency=%u pinned_cpu=%d\n",
              nallowed, std::thread::hardware_concurrency(), cpu);
  std::printf("build: type=%s flags=\"%s\" compiler=\"%s\" source=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, __VERSION__,
              args.source_rev.c_str());
  std::printf("shape: %s\n", wl->Describe().c_str());
  std::fflush(stdout);

  std::vector<std::string> errors;
  const uint64_t held_out = args.seed + kHeldOutSalt;

  // --- Set-up: inputs, deployments and one untimed warm-up unit on the
  // held-out seed, then the measured seed's inputs and deployments (and
  // answer key), repeated from scratch; the last one stays for round 0.
  std::vector<double> setup_s;
  std::string held_out_fp;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = HostNowNs();
    wl->Prepare(held_out, /*warm_up=*/true);
    const Round warm = wl->Run();
    if (warm.units.failed() != 0) {
      errors.push_back("held-out seed failed: " +
                       (warm.errors.empty() ? std::string("?")
                                            : warm.errors.front()));
    }
    if (held_out_fp.empty()) {
      held_out_fp = warm.fingerprint.Hex();
    } else if (held_out_fp != warm.fingerprint.Hex()) {
      errors.push_back("held-out seed fingerprint changed between set-ups");
    }
    wl->Prepare(args.seed, /*warm_up=*/false);
    setup_s.push_back(SecondsSince(t0));
  }

  // --- Timed rounds.
  SpanRecorder recorder;
  std::vector<double> wall_untraced, wall_traced;
  std::vector<std::vector<double>> pieces_untraced, pieces_traced;
  std::vector<Values> host_layers;
  FailCount units;
  std::string fingerprint;
  Round first_round;
  const int min_rounds = args.trace ? kMinRounds + 1 : kMinRounds;
  const int64_t loop_start = HostNowNs();
  for (int r = 0;; ++r) {
    if (r > 0) wl->Prepare(args.seed, /*warm_up=*/false);
    const bool traced = args.trace == 1 && r % 2 == 1;
    const size_t first_span = recorder.size();
    if (traced) SetActiveRecorder(&recorder);
    const int64_t t0 = HostNowNs();
    Round round = wl->Run();
    const double wall = SecondsSince(t0);
    SetActiveRecorder(nullptr);
    (traced ? wall_traced : wall_untraced).push_back(wall);
    (traced ? pieces_traced : pieces_untraced).push_back(round.piece_s);
    if (traced) {
      Values v;
      wl->HostLayers(recorder.Totals(first_span), round, v);
      host_layers.push_back(std::move(v));
    }
    if (r == 0) {
      fingerprint = round.fingerprint.Hex();
      first_round = round;
    } else if (round.fingerprint.Hex() != fingerprint) {
      errors.push_back("round " + std::to_string(r) + " fingerprint " +
                       round.fingerprint.Hex() + " != round 0 " + fingerprint +
                       (traced ? " (traced)" : ""));
      FailCount all_failed;
      for (uint64_t u = 0; u < round.units.attempted(); ++u) all_failed.Add(false);
      round.units = all_failed;
    }
    units.Merge(round.units);
    for (const std::string& e : round.errors) errors.push_back(e);
    if (r + 1 >= min_rounds && SecondsSince(loop_start) >= args.seconds) break;
  }

  const bool correct = units.failed() == 0 && errors.empty();
  for (const std::string& e : errors) std::printf("ERROR: %s\n", e.c_str());
  std::printf("setup_s %.4f s (median of %d: %s)\n", Median(setup_s),
              kSetups, FormatList(setup_s).c_str());
  std::printf("rounds: %zu untraced, %zu traced; fail_frac %s\n",
              wall_untraced.size(), wall_traced.size(),
              units.ToString().c_str());
  std::printf("fingerprint %s (every round of seed %llu); held-out seed %llu "
              "fingerprint %s\n",
              fingerprint.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(held_out), held_out_fp.c_str());
  std::printf("wall_s per untraced round: %s (median %.4f)\n",
              FormatList(wall_untraced).c_str(), Median(wall_untraced));
  for (const auto& [name, value] : first_round.virt) {
    std::printf("  %-32s %.6f\n", name.c_str(), value);
  }
  const double peak_rss_mb = PeakRssMb();

  if (args.trace == 0) {
    Values e2e;
    e2e["setup_s"] = Median(setup_s);
    e2e["wall_s"] = SumOfFastest(pieces_untraced);
    e2e["virt_ms"] = first_round.virt["virt_ms"];
    std::printf("end-to-end: setup_s %.4f s, wall_s %.4f s (fastest round "
                "%.4f s), virt_ms %.6f ms; peak_rss_mb %.1f MB\n",
                e2e["setup_s"], e2e["wall_s"], Fastest(wall_untraced),
                e2e["virt_ms"], peak_rss_mb);
    EmitJson(correct, units.attempted(), units.failed(),
             {{"setup_s", "s"}, {"wall_s", "s"}, {"virt_ms", "ms"}}, e2e);
    return 0;
  }

  // --- Traced run: per-layer metrics. Virtual ones come from the rounds
  // (identical traced and untraced — the fingerprint check above), host
  // ones from the fastest traced round, like wall_s.
  Values layers = first_round.virt;
  for (const MetricSpec& s : PerLayerSpecs()) {
    std::vector<double> xs;
    for (const Values& v : host_layers) {
      const auto it = v.find(s.name);
      if (it != v.end()) xs.push_back(it->second);
    }
    if (!xs.empty()) layers[s.name] = Fastest(xs);
  }
  layers["host.peak_rss_mb"] = peak_rss_mb;
  const double traced_s = SumOfFastest(pieces_traced);
  const double untraced_s = SumOfFastest(pieces_untraced);
  layers["trace.overhead_s"] = traced_s - untraced_s;
  std::printf("tracing overhead: wall_s traced %.4f s - untraced %.4f s = "
              "%.4f s\n",
              traced_s, untraced_s, layers["trace.overhead_s"]);
  std::printf("self time per span name over %zu traced rounds:\n",
              wall_traced.size());
  for (const auto& [name, t] : recorder.Totals()) {
    std::printf("  %-36s n=%-7llu self %9.4f s  total %9.4f s\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                static_cast<double>(t.self_ns) / 1e9,
                static_cast<double>(t.total_ns) / 1e9);
  }
  if (!args.spans_out.empty()) {
    if (recorder.WriteJsonl(args.spans_out)) {
      std::printf("spans: %zu written to %s\n", recorder.size(),
                  args.spans_out.c_str());
    } else {
      std::printf("ERROR: cannot write spans to %s\n", args.spans_out.c_str());
      EmitJson(false, units.attempted(), units.failed(), PerLayerSpecs(),
               layers);
      return 0;
    }
  }
  for (const MetricSpec& s : PerLayerSpecs()) {
    std::printf("  %-32s %.6f %s\n", s.name.c_str(), layers[s.name],
                s.unit.c_str());
  }
  EmitJson(correct, units.attempted(), units.failed(), PerLayerSpecs(),
           layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
