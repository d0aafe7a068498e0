// Unit tests of the benchmark harness arithmetic: the percentile rule, span
// self time from the intervals children cover, and due-time latency.
//
//   cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build --target perfbench_harness_test
//   ctest --test-dir .bench_build --output-on-failure

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Iota(100);
  EXPECT_EQ(PercentileSorted(v, 50), 50);
  EXPECT_EQ(PercentileSorted(v, 99), 99);
  EXPECT_EQ(PercentileSorted(v, 100), 100);
  EXPECT_EQ(PercentileSorted(v, 0), 1);
  EXPECT_EQ(PercentileSorted({7}, 99), 7);
  EXPECT_EQ(PercentileSorted({}, 50), 0);
}

TEST(PercentileTest, SamplesBeyondRank) {
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(1001, 99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  const std::vector<double> candidates = {50, 90, 95, 99, 99.9};
  // p99 of 1000 samples is rank 990 (1-based): exactly 10 beyond it.
  EXPECT_EQ(HighestSupportedPercentile(1000, candidates), 99);
  EXPECT_EQ(HighestSupportedPercentile(999, candidates), 95);
  EXPECT_EQ(HighestSupportedPercentile(100, candidates), 90);
  EXPECT_EQ(HighestSupportedPercentile(99, candidates), 50);
  EXPECT_EQ(HighestSupportedPercentile(10000, candidates), 99.9);
  // Too few samples for any candidate: 0, the median is all there is.
  EXPECT_EQ(HighestSupportedPercentile(15, candidates), 0);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);  // Nearest rank: the lower middle.
  EXPECT_EQ(Median({}), 0);
}

TEST(SelfTimeTest, NoChildren) { EXPECT_EQ(SelfTimeNs(10, 50, {}), 40); }

TEST(SelfTimeTest, DisjointChildren) {
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 20}, {30, 50}}), 70);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Concurrent children cover [10, 40) once, not 45 ns.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 30}, {20, 40}, {25, 35}}), 70);
  // Unsorted input, one child nested in another.
  EXPECT_EQ(SelfTimeNs(0, 100, {{60, 70}, {50, 90}}), 60);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  EXPECT_EQ(SelfTimeNs(10, 20, {{0, 15}, {18, 40}}), 3);
  EXPECT_EQ(SelfTimeNs(10, 20, {{0, 5}, {30, 40}}), 10);
  EXPECT_EQ(SelfTimeNs(0, 10, {{0, 10}}), 0);
  EXPECT_EQ(SelfTimeNs(20, 10, {}), 0);
}

TEST(SelfTimeTest, TracerAttributesSelfTimeByName) {
  Tracer tracer(true);
  {
    ScopedSpan root(tracer, "bench.request", 7);
    { ScopedSpan child(tracer, "serving.call"); }
    { ScopedSpan child(tracer, "storage.call"); }
  }
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);  // Children inherit the request id.
  const auto self = tracer.SelfTimeByName();
  const int64_t root_ns = spans[0].end_ns - spans[0].start_ns;
  EXPECT_EQ(self.at(""), root_ns);
  EXPECT_EQ(self.at("bench.request") + self.at("serving.call") +
                self.at("storage.call"),
            root_ns);
  EXPECT_EQ(tracer.SelfTimeByName("bench.request").count("serving.call"), 0u);
}

TEST(SelfTimeTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(tracer, "serving.call", 1); }
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(DueTimeTest, Schedule) {
  EXPECT_EQ(DueTimeNs(1000, 0, 100), 1000);
  EXPECT_EQ(DueTimeNs(1000, 1, 100), 1000 + 10000000);
  EXPECT_EQ(DueTimeNs(0, 3, 1500), 2000000);
}

TEST(DueTimeTest, LatencyCountsTheWaitBeforeStart) {
  // A request due at 100 that starts at 400 (behind a stall) and finishes
  // at 450 took 350 from its due time, not 50.
  EXPECT_EQ(LatencyFromDueNs(100, 450), 350);
  EXPECT_EQ(LatencyFromDueNs(100, 100), 0);
  EXPECT_EQ(LatencyFromDueNs(100, 90), 0);
}

TEST(RngTest, SeedDeterminesSequence) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    EXPECT_NE(x, c.Next());
  }
}

TEST(ZipfTest, HeadIsHeavier) {
  const Zipf zipf(1000, 1.1);
  Rng rng(1);
  std::vector<int> counts(1000);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(ResultTest, JsonHasExactlyTheResultKeys) {
  Result r;
  r.Check(true);
  r.Check(false);
  r.Set("latency_p50_us", 1.5, "us");
  EXPECT_EQ(r.ToJson(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"latency_p50_us\": {\"value\": 1.5, \"unit\": "
            "\"us\"}}}");
}

}  // namespace
}  // namespace perfbench
