// Tests of the benchmark's own statistics, on synthetic samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(QuantilesTest, MatchPythonStatisticsQuantiles) {
  // Expected cut points from Python's statistics.quantiles(v, n=4).
  struct Case {
    std::vector<double> values;
    std::vector<double> quartiles;
  };
  const std::vector<Case> cases = {
      {{1, 2, 3, 4}, {1.25, 2.5, 3.75}},
      {{5, 1, 9, 3, 7, 2}, {1.75, 4.0, 7.5}},
      {{0.5, 0.25, 0.75}, {0.25, 0.5, 0.75}},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, {27.5, 55.0, 82.5}},
      {{3.1, 2.7, 9.4, 1.2, 6.6, 5.0, 4.4}, {2.7, 4.4, 6.6}},
  };
  for (const Case& c : cases) {
    const std::vector<double> q = Quantiles(c.values, 4);
    ASSERT_EQ(q.size(), 3u);
    for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(q[i], c.quartiles[i]);
  }
}

TEST(QuantilesTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(TailTest, OnlyTheMedianBelowFortySamples) {
  for (size_t n : {1u, 10u, 39u}) {
    const LatencySummary s = SummarizeLatency(Iota(n));
    EXPECT_EQ(s.count, n);
    EXPECT_EQ(s.tail_p, 0.0) << n << " samples must report no tail";
    EXPECT_DOUBLE_EQ(s.p50, static_cast<double>((n + 1) / 2));
  }
  EXPECT_EQ(SummarizeLatency(Iota(40)).tail_p, 0.75);
}

TEST(TailTest, HighestPercentileWithTenSamplesBeyond) {
  struct Case {
    size_t n;
    double tail_p;
  };
  for (const Case& c : std::vector<Case>{{99, 0.75},
                                         {100, 0.9},
                                         {999, 0.9},
                                         {1000, 0.99},
                                         {9999, 0.99},
                                         {10000, 0.999},
                                         {100000, 0.9999}}) {
    const LatencySummary s = SummarizeLatency(Iota(c.n));
    EXPECT_EQ(s.tail_p, c.tail_p) << c.n << " samples";
    EXPECT_GE(SamplesBeyond(c.n, s.tail_p), kMinTailSamples);
    // Nearest rank: exactly the samples above the reported value lie
    // beyond it.
    EXPECT_EQ(static_cast<size_t>(c.n - s.tail), SamplesBeyond(c.n, s.tail_p));
  }
}

TEST(TailTest, TailPercentileRefusesTooFewSamplesBeyond) {
  EXPECT_LT(TailPercentile(Iota(999), 0.99), 0.0);
  EXPECT_DOUBLE_EQ(TailPercentile(Iota(1000), 0.99), 990.0);
  std::vector<double> shuffled = Iota(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(TailPercentile(shuffled, 0.99), 990.0);
}

TEST(TailTest, SegmentedPercentileIgnoresOneStalledSegment) {
  // Ten segments of 1000 samples; one segment is entirely stalled.
  std::vector<double> samples;
  for (int seg = 0; seg < 10; ++seg) {
    for (int i = 0; i < 1000; ++i) samples.push_back(seg == 3 ? 50000.0 : 100.0 + i % 100);
  }
  EXPECT_DOUBLE_EQ(SegmentedPercentile(samples, 10, 0.99), 198.0);
  // The whole-sample p99 is swallowed by the stall.
  EXPECT_DOUBLE_EQ(TailPercentile(samples, 0.99), 50000.0);
  // Segments too short for a p99 are refused.
  EXPECT_LT(SegmentedPercentile(samples, 20, 0.99), 0.0);
}

// A single FIFO server with a fixed service time that stops serving
// for `stall_ns` when request `stall_at` reaches it. The generator is
// held back the way a blocking client would be: it cannot send request
// i before request i - 1 was answered.
struct Simulation {
  std::vector<int64_t> due, sent, done;
};

Simulation SimulateStall(size_t n, int64_t period_ns, int64_t service_ns,
                         size_t stall_at, int64_t stall_ns) {
  Simulation sim;
  int64_t server_free = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = static_cast<int64_t>(i) * period_ns;
    const int64_t sent = i == 0 ? due : std::max(due, sim.done.back());
    int64_t start = std::max(sent, server_free);
    if (i == stall_at) start += stall_ns;
    server_free = start + service_ns;
    sim.due.push_back(due);
    sim.sent.push_back(sent);
    sim.done.push_back(server_free);
  }
  return sim;
}

TEST(OpenLoopTest, LatencyFromDueTimeChargesTheStallToQueuedRequests) {
  constexpr int64_t kMs = 1000000;
  const Simulation sim = SimulateStall(200, kMs, kMs / 10, 100, 50 * kMs);
  const std::vector<double> from_due = OpenLoopLatencyUs(sim.due, sim.done);
  const std::vector<double> from_send = OpenLoopLatencyUs(sim.sent, sim.done);
  ASSERT_EQ(from_due.size(), 200u);
  EXPECT_DOUBLE_EQ(from_due[50], 100.0);  // undisturbed: service time only
  EXPECT_GE(from_due[100], 50000.0);      // the stalled request itself
  // Requests that fell due during the stall wait for it, measured from
  // their due time...
  for (size_t i = 101; i < 140; ++i) {
    EXPECT_GT(from_due[i], 10000.0) << "request " << i;
    // ...while timing from the (held back) send hides the wait.
    EXPECT_LT(from_send[i], 200.0) << "request " << i;
  }
  // The stall shows in the tail only when timed from the due time.
  EXPECT_GT(TailPercentile(from_due, 0.9), 10000.0);
  EXPECT_LT(TailPercentile(from_send, 0.9), 200.0);
}

}  // namespace
}  // namespace perfbench
