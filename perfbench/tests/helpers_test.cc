// Tests of the benchmark driver's helpers: the percentile sizing rule,
// span self-time attribution, the offered-rate ladder, failure counting,
// and the determinism fingerprint.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/spans.h"

namespace perfbench {
namespace {

TEST(PercentileRule, CountsSamplesRankedBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(20, 50), 10u);
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
  EXPECT_EQ(SamplesBeyond(5, 100), 0u);
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(TailResolved(1000, 99));
  EXPECT_FALSE(TailResolved(999, 99));
  EXPECT_FALSE(TailResolved(100, 99));
  EXPECT_TRUE(TailResolved(20, 50));
  EXPECT_FALSE(TailResolved(19, 50));
  // 99.9% of 10000 is 9990 exactly, though 99.9 is not exact in binary.
  EXPECT_TRUE(TailResolved(10000, 99.9));
  EXPECT_FALSE(TailResolved(9999, 99.9));
}

TEST(OrderStatistics, MedianAndFastest) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Fastest({0.3, 0.2, 0.25}), 0.2);
  EXPECT_EQ(Fastest({}), 0);
}

TEST(OrderStatistics, SumOfFastestTakesEachPieceBest) {
  // Piece 0 is fastest in round 1, piece 1 in round 0: 1 + 2, although no
  // single round took less than 5.
  EXPECT_EQ(SumOfFastest({{4, 2}, {1, 5}, {3, 3}}), 3);
  EXPECT_EQ(SumOfFastest({{0.5, 0.25}}), 0.75);
  EXPECT_EQ(SumOfFastest({}), 0);
}

TEST(SpanSelfTime, SubtractsDirectChildrenOnly) {
  SpanRecorder rec;
  const uint32_t a = rec.OpenAt("outer", -1, 0);
  const uint32_t b = rec.OpenAt("mid", 0, 10);
  const uint32_t c = rec.OpenAt("inner", 0, 20);
  rec.CloseAt(c, 30);
  rec.CloseAt(b, 40);
  const uint32_t d = rec.OpenAt("inner", 1, 50);
  rec.CloseAt(d, 70);
  rec.CloseAt(a, 100);

  EXPECT_EQ(rec.spans()[b].parent, a);
  EXPECT_EQ(rec.spans()[c].parent, b);
  EXPECT_EQ(rec.spans()[d].parent, a);
  EXPECT_EQ(rec.spans()[a].parent, kNoParent);
  EXPECT_EQ(rec.spans()[d].unit, 1);

  const auto t = rec.Totals();
  EXPECT_EQ(t.at("outer").total_ns, 100);
  EXPECT_EQ(t.at("outer").self_ns, 100 - 30 - 20);  // mid and the 2nd inner
  EXPECT_EQ(t.at("mid").self_ns, 30 - 10);
  EXPECT_EQ(t.at("inner").count, 2u);
  EXPECT_EQ(t.at("inner").total_ns, 10 + 20);
  EXPECT_EQ(t.at("inner").self_ns, 10 + 20);
  EXPECT_EQ(t.at("inner").max_ns, 20);
  int64_t self_sum = 0;
  for (const auto& [name, tot] : t) self_sum += tot.self_ns;
  EXPECT_EQ(self_sum, 100);  // self times partition the root span
}

TEST(SpanSelfTime, WindowIgnoresEarlierSpans) {
  SpanRecorder rec;
  rec.CloseAt(rec.OpenAt("round", -1, 0), 5);
  const size_t first = rec.size();
  const uint32_t r = rec.OpenAt("round", -1, 10);
  rec.CloseAt(rec.OpenAt("call", 0, 12), 15);
  rec.CloseAt(r, 20);
  const auto t = rec.Totals(first);
  EXPECT_EQ(t.at("round").count, 1u);
  EXPECT_EQ(t.at("round").self_ns, 10 - 3);
  EXPECT_EQ(t.at("call").self_ns, 3);
}

TEST(SpanSelfTime, InactiveByDefault) {
  EXPECT_EQ(ActiveRecorder(), nullptr);
  SpanRecorder rec;
  { ScopedSpan s("ignored"); }
  SetActiveRecorder(&rec);
  { ScopedSpan s("kept", 3); }
  SetActiveRecorder(nullptr);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.names()[rec.spans()[0].name], "kept");
  EXPECT_EQ(rec.spans()[0].unit, 3);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[0].start_ns);
}

TEST(RateLadder, P99LimitAndBacklog) {
  EXPECT_TRUE(RungSustainable({10, 400, 9.9}, 500, 0.05));
  EXPECT_FALSE(RungSustainable({10, 501, 10}, 500, 0.05));   // tail too long
  EXPECT_FALSE(RungSustainable({10, 100, 9.4}, 500, 0.05));  // backlog grows
  EXPECT_TRUE(RungSustainable({10, 500, 9.5}, 500, 0.05));   // both at limit
}

TEST(RateLadder, HighestRateWithEverySlowerRungSustainable) {
  const std::vector<Rung> ladder = {
      {20, 900, 19.9},  // p99 over the limit
      {12.5, 130, 12.4},
      {16.7, 256, 16.6},
      {25, 300, 18.0},  // falls behind
      {18.2, 450, 18.1},
  };
  EXPECT_EQ(MaxSustainableRate(ladder, 500, 0.05), 18.2);
  EXPECT_EQ(MaxSustainableRate(ladder, 200, 0.05), 12.5);
  EXPECT_EQ(MaxSustainableRate(ladder, 100, 0.05), 0);
  // A fast rung that passes above a failing slower one does not count.
  const std::vector<Rung> gap = {{10, 100, 10}, {12, 900, 12}, {14, 100, 14}};
  EXPECT_EQ(MaxSustainableRate(gap, 500, 0.05), 10);
  EXPECT_EQ(MaxSustainableRate({}, 500, 0.05), 0);
}

TEST(FailFrac, CountsWrongAnswersOverAttempted) {
  FailCount f;
  EXPECT_EQ(f.ToString(), "0/0");
  f.Add(true);
  f.Add(false);  // a unit whose answer disagreed with its golden
  f.Add(true);
  EXPECT_EQ(f.attempted(), 3u);
  EXPECT_EQ(f.failed(), 1u);
  EXPECT_EQ(f.ToString(), "1/3");
  FailCount g;
  g.Add(false);
  f.Merge(g);
  EXPECT_EQ(f.ToString(), "2/4");
}

TEST(Fingerprint, BitExactAndOrderSensitive) {
  Fingerprint a, b, c, z, nz;
  a.Add(uint64_t{1});
  a.Add(2.5);
  b.Add(uint64_t{1});
  b.Add(2.5);
  c.Add(2.5);
  c.Add(uint64_t{1});
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  z.Add(0.0);
  nz.Add(-0.0);
  EXPECT_NE(z.value(), nz.value());
  EXPECT_EQ(a.Hex().size(), 16u);
}

TEST(JsonNumber, KeepsEveryDigit) {
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(3), "3");
  EXPECT_EQ(std::stod(JsonNumber(1.0 / 3)), 1.0 / 3);
}

}  // namespace
}  // namespace perfbench
