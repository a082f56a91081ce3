#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> Quantiles(std::vector<double> values, int n) {
  const long ld = static_cast<long>(values.size());
  if (ld < 2 || n < 1) {
    throw std::invalid_argument("Quantiles needs >= 2 values and n >= 1");
  }
  std::sort(values.begin(), values.end());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out.push_back((values[j - 1] * static_cast<double>(n - delta) +
                   values[j] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

static size_t NearestRankIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRankIndex(sorted.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, p);
}

LatencySummary SummarizeLatency(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 0.5);
  for (double p : {0.75, 0.9, 0.99, 0.999, 0.9999}) {
    if (SamplesBeyond(samples.size(), p) < kMinTailSamples) break;
    s.tail_p = p;
    s.tail = PercentileSorted(samples, p);
  }
  return s;
}

double TailPercentile(std::vector<double> samples, double p) {
  if (SamplesBeyond(samples.size(), p) < kMinTailSamples) return -1.0;
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

double SegmentedPercentile(const std::vector<double>& samples, int segments,
                           double p) {
  if (segments < 1) return -1.0;
  const size_t len = samples.size() / static_cast<size_t>(segments);
  std::vector<double> per_segment;
  for (int k = 0; k < segments; ++k) {
    const double v = TailPercentile(
        std::vector<double>(samples.begin() + k * len,
                            samples.begin() + (k + 1) * len),
        p);
    if (v < 0.0) return -1.0;
    per_segment.push_back(v);
  }
  return Median(per_segment);
}

std::vector<double> OpenLoopLatencyUs(const std::vector<int64_t>& due_ns,
                                      const std::vector<int64_t>& done_ns) {
  std::vector<double> out(std::min(due_ns.size(), done_ns.size()));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(done_ns[i] - due_ns[i]) * 1e-3;
  }
  return out;
}

}  // namespace perfbench
