#include "trace_stats.h"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<uint64_t, uint64_t>;

bool Clip(uint64_t lo, uint64_t hi, Window w, Interval* out) {
  lo = std::max(lo, w.lo);
  hi = std::min(hi, w.hi);
  if (hi <= lo) return false;
  *out = {lo, hi};
  return true;
}

// Async pairs keyed by (category, id), for events named `name` (every
// program event when `name` is null).
std::vector<Interval> AsyncIntervals(const std::vector<TraceEventCopy>& events,
                                     const std::string* name, Window w) {
  std::map<std::pair<int, uint64_t>, uint64_t> open;
  std::vector<Interval> out;
  std::vector<const TraceEventCopy*> sorted;
  for (const TraceEventCopy& e : events) {
    if (e.phase != 'b' && e.phase != 'e') continue;
    if (name != nullptr ? e.name != *name
                        : e.name.rfind(kBenchSpanPrefix, 0) == 0) {
      continue;
    }
    sorted.push_back(&e);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEventCopy* a, const TraceEventCopy* b) {
                     return a->ts_ns < b->ts_ns;
                   });
  for (const TraceEventCopy* e : sorted) {
    const auto key = std::make_pair(static_cast<int>(e->cat), e->id);
    if (e->phase == 'b') {
      open[key] = e->ts_ns;
      continue;
    }
    auto it = open.find(key);
    if (it == open.end()) continue;
    Interval iv;
    if (Clip(it->second, e->ts_ns, w, &iv)) out.push_back(iv);
    open.erase(it);
  }
  return out;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

double SumSpanSeconds(const std::vector<TraceEventCopy>& events,
                      const std::string& name, Window w) {
  uint64_t total = 0;
  for (const TraceEventCopy& e : events) {
    Interval iv;
    if (e.phase == 'X' && e.name == name &&
        Clip(e.ts_ns, e.ts_ns + e.dur_ns, w, &iv)) {
      total += iv.second - iv.first;
    }
  }
  return Seconds(total);
}

double SumAsyncSeconds(const std::vector<TraceEventCopy>& events,
                       const std::string& name, Window w) {
  uint64_t total = 0;
  for (const Interval& iv : AsyncIntervals(events, &name, w)) {
    total += iv.second - iv.first;
  }
  return Seconds(total);
}

double Coverage(const std::vector<TraceEventCopy>& events, Window w) {
  if (w.hi <= w.lo) return 0.0;
  std::vector<Interval> spans = AsyncIntervals(events, nullptr, w);
  for (const TraceEventCopy& e : events) {
    Interval iv;
    if (e.phase == 'X' && e.name.rfind(kBenchSpanPrefix, 0) != 0 &&
        Clip(e.ts_ns, e.ts_ns + e.dur_ns, w, &iv)) {
      spans.push_back(iv);
    }
  }
  std::sort(spans.begin(), spans.end());
  uint64_t covered = 0;
  uint64_t reach = w.lo;
  for (const Interval& iv : spans) {
    const uint64_t lo = std::max(iv.first, reach);
    if (iv.second > lo) {
      covered += iv.second - lo;
      reach = iv.second;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(w.hi - w.lo);
}

}  // namespace perfbench
