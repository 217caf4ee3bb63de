#include "sim/parallel.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "ddc/memory_system.h"
#include "sim/coop_task.h"
#include "sim/interleaver.h"

namespace teleport::sim {
namespace {

constexpr uint64_t kPage = 4096;

// --- TELEPORT_HOST_THREADS parsing ------------------------------------------

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    if (v != nullptr) saved_ = v;
    had_ = v != nullptr;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(HostThreadsFromEnvTest, DefaultsAndClamping) {
  EnvGuard guard("TELEPORT_HOST_THREADS");
  ::unsetenv("TELEPORT_HOST_THREADS");
  EXPECT_EQ(HostThreadsFromEnv(), 1);
  ::setenv("TELEPORT_HOST_THREADS", "", 1);
  EXPECT_EQ(HostThreadsFromEnv(), 1);
  ::setenv("TELEPORT_HOST_THREADS", "8", 1);
  EXPECT_EQ(HostThreadsFromEnv(), 8);
  ::setenv("TELEPORT_HOST_THREADS", "100000", 1);
  EXPECT_EQ(HostThreadsFromEnv(), kMaxHostThreads);
}

TEST(HostThreadsFromEnvTest, InvalidValuesAbortNamingTheVariable) {
  // Death tests run the statement in a child process, so the setenv calls
  // never reach this one.
  for (const char* bad : {"banana", "8x", "0", "-3"}) {
    EXPECT_DEATH(
        {
          ::setenv("TELEPORT_HOST_THREADS", bad, 1);
          HostThreadsFromEnv();
        },
        std::string("TELEPORT_HOST_THREADS=\"") + bad + "\"")
        << bad;
  }
}

// --- LegRunner determinism ---------------------------------------------------

/// Deterministic per-leg computation with a controllable amount of work.
uint64_t LegWork(uint64_t seed, uint64_t iters) {
  uint64_t x = seed;
  for (uint64_t i = 0; i < iters; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
  }
  return x;
}

std::vector<uint64_t> RunLegFleet(int threads, uint64_t skew_leg_iters) {
  const size_t kLegs = 12;
  std::vector<uint64_t> out(kLegs, 0);
  std::vector<std::function<void()>> jobs;
  for (size_t i = 0; i < kLegs; ++i) {
    const uint64_t iters = i == 0 ? skew_leg_iters : 1000;
    jobs.push_back([&out, i, iters] { out[i] = LegWork(i + 1, iters); });
  }
  LegRunner(threads).Run(jobs);
  return out;
}

TEST(LegRunnerTest, BitIdenticalAcrossThreadCountsAndReps) {
  const std::vector<uint64_t> golden = RunLegFleet(1, 1000);
  for (const int threads : {1, 2, 8}) {
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(RunLegFleet(threads, 1000), golden)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(LegRunnerTest, PathologicalSkewLegStaysDeterministic) {
  // Leg 0 runs 100x longer than the rest, so every other worker drains the
  // queue and exits while it is still running.
  const std::vector<uint64_t> golden = RunLegFleet(1, 100'000);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(RunLegFleet(threads, 100'000), golden) << "threads=" << threads;
  }
}

TEST(LegRunnerTest, HandlesEmptyAndSingleJob) {
  LegRunner(8).Run({});
  int hits = 0;
  LegRunner(8).Run({[&hits] { ++hits; }});
  EXPECT_EQ(hits, 1);
}

// --- RunLegs JSONL ordering --------------------------------------------------

/// Runs `legs` through bench::RunLegs with TELEPORT_BENCH_JSON pointed at
/// a fresh file and returns what landed in it.
std::string CollectJsonl(const std::vector<std::function<void()>>& legs,
                         int threads) {
  const std::string path = ::testing::TempDir() + "/parallel_test_bench_" +
                           std::to_string(threads) + ".jsonl";
  std::remove(path.c_str());
  EnvGuard guard("TELEPORT_BENCH_JSON");
  ::setenv("TELEPORT_BENCH_JSON", path.c_str(), 1);
  bench::RunLegs(legs, threads);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

std::string EmitFleetJson(int threads) {
  std::vector<std::function<void()>> legs;
  for (int i = 0; i < 8; ++i) {
    legs.push_back([i] {
      // Reverse-skewed work so under real parallelism later legs tend to
      // finish first; the flush must still order records by leg index.
      LegWork(static_cast<uint64_t>(i), static_cast<uint64_t>(8 - i) * 2000);
      bench::EmitBenchRecord({"pr10_test", "leg" + std::to_string(i), "x",
                              static_cast<Nanos>(i), 0, 0, ""});
    });
  }
  return CollectJsonl(legs, threads);
}

TEST(RunLegsTest, JsonlByteIdenticalToSerial) {
  const std::string serial = EmitFleetJson(1);
  ASSERT_NE(serial.find("\"workload\":\"leg0\""), std::string::npos);
  ASSERT_LT(serial.find("\"leg0\""), serial.find("\"leg7\""));
  EXPECT_EQ(EmitFleetJson(2), serial);
  EXPECT_EQ(EmitFleetJson(8), serial);
}

// --- CoopTask inside a leg ---------------------------------------------------

TEST(RunLegsTest, CoopTaskRecordLandsInItsLegBuffer) {
  // A CoopTask body runs on the thread that steps it, so a record it emits
  // inside a RunLegs leg goes through that leg's thread-local sink and
  // reaches the file in leg order, between the leg's own records.
  std::vector<std::function<void()>> legs;
  std::string expected;
  for (int i = 0; i < 4; ++i) {
    const std::string leg = "leg" + std::to_string(i);
    for (const char* phase : {"/pre", "/coop", "/post"}) {
      expected += bench::BenchRecordToJson(
                      {"coop_test", leg + phase, "x", 0, 0, 0, ""}) +
                  "\n";
    }
    legs.push_back([leg] {
      ddc::DdcConfig cfg;
      cfg.platform = ddc::Platform::kBaseDdc;
      cfg.compute_cache_bytes = 4 * kPage;
      ddc::MemorySystem ms(cfg, sim::CostParams::Default(), 16 * kPage);
      const ddc::VAddr data = ms.space().Alloc(8 * kPage, "data");
      ms.SeedData();
      auto ctx = ms.CreateContext(ddc::Pool::kCompute);
      bench::EmitBenchRecord({"coop_test", leg + "/pre", "x", 0, 0, 0, ""});
      CoopTask task({ctx.get()}, [&] {
        for (uint64_t a = 0; a < 8 * kPage; a += 512) {
          ctx->Store<uint64_t>(data + a, a);
        }
        bench::EmitBenchRecord({"coop_test", leg + "/coop", "x", 0, 0, 0, ""});
      });
      Interleaver il;
      il.Add(&task);
      il.Run();
      bench::EmitBenchRecord({"coop_test", leg + "/post", "x", 0, 0, 0, ""});
    });
  }
  EXPECT_EQ(CollectJsonl(legs, 2), expected);
}

}  // namespace
}  // namespace teleport::sim
