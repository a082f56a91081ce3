// Sample statistics the benchmark reports: medians and quartiles of
// repeated measurements, tail percentiles of latency samples, and
// open-loop latency timed from each request's due time.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even counts); 0 when
/// empty.
double Median(std::vector<double> values);

/// Cut points dividing `values` into `n` equal-probability groups,
/// computed exactly as Python's statistics.quantiles(values, n=n)
/// (the default "exclusive" method). Needs at least two values.
std::vector<double> Quantiles(std::vector<double> values, int n = 4);

/// Nearest-rank percentile (0 < p <= 1) of an ascending sample.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank p-percentile of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// Median plus the highest percentile of {75, 90, 99, 99.9, 99.99}
/// that leaves at least kMinTailSamples samples beyond it. With fewer
/// than 40 samples no percentile qualifies and only the median is
/// reported (tail_p == 0).
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  // e.g. 0.99; 0 = no tail reported
  double tail = 0.0;
};
inline constexpr size_t kMinTailSamples = 10;
LatencySummary SummarizeLatency(std::vector<double> samples);

/// The p-percentile of `samples`, or a negative value when fewer than
/// kMinTailSamples samples lie beyond it (the percentile would be no
/// tail).
double TailPercentile(std::vector<double> samples, double p);

/// Splits `samples` (in arrival order) into `segments` contiguous runs
/// of equal length and returns the median of their p-percentiles, so a
/// single stall in one segment cannot move the result. Negative when a
/// segment leaves fewer than kMinTailSamples samples beyond p.
double SegmentedPercentile(const std::vector<double>& samples, int segments,
                           double p);

/// Open-loop latency in microseconds: completion minus the request's
/// scheduled due time, not its actual send time, so a stall that holds
/// the generator back is charged to every request it delayed.
std::vector<double> OpenLoopLatencyUs(const std::vector<int64_t>& due_ns,
                                      const std::vector<int64_t>& done_ns);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
