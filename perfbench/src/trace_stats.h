// Per-layer figures derived from the program's own span tracer: summed
// span time by name, task lifetimes from async begin/end pairs, and the
// share of a time window that the union of the program's spans covers.
#ifndef PERFBENCH_TRACE_STATS_H_
#define PERFBENCH_TRACE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

using treeserver::TraceEventCopy;

/// Spans the benchmark records around its own calls into the program
/// carry this name prefix; they are written to the trace file but never
/// count towards the program's coverage.
inline constexpr const char* kBenchSpanPrefix = "bench-";

/// Half-open interval [lo, hi) on the tracer clock (ns).
struct Window {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Seconds of complete ('X') spans named `name`, clipped to `w`.
double SumSpanSeconds(const std::vector<TraceEventCopy>& events,
                      const std::string& name, Window w);

/// Seconds between the async begin and end of every (category, id)
/// pair named `name`, clipped to `w`. Unmatched halves are ignored.
double SumAsyncSeconds(const std::vector<TraceEventCopy>& events,
                       const std::string& name, Window w);

/// Share of `w` covered by the union of every program span (complete
/// spans and async pairs not named with kBenchSpanPrefix).
double Coverage(const std::vector<TraceEventCopy>& events, Window w);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_STATS_H_
