// Drives forest jobs through the distributed engine, in-process or as
// a loopback TCP cluster, and collects what one job did: its wall and
// CPU time, the registry counters it moved, task counts, traffic and
// memory, and (when traced) its per-layer span sums.
#ifndef PERFBENCH_ENGINE_HARNESS_H_
#define PERFBENCH_ENGINE_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/master.h"
#include "forest/forest.h"
#include "table/data_table.h"
#include "trace_stats.h"

namespace perfbench {

namespace ts = treeserver;

/// The engine shape every workload trains with: 4 workers x 1 comper,
/// replication 2, the paper's unscaled tau_D = 10000, tau_dfs = 80000.
inline constexpr int kWorkers = 4;
inline constexpr int kCompersPerWorker = 1;
ts::EngineConfig EngineShape(uint64_t seed);

/// Traffic totals of one engine, summed over every transport it owns.
struct NetTotals {
  uint64_t bytes_sent = 0;
  uint64_t msgs_sent = 0;
  uint64_t reconnects = 0;
};

/// The engine under test: master + workers over one transport kind.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;
  virtual uint32_t Submit(const ts::ForestJobSpec& spec) = 0;
  virtual ts::ForestModel Wait(uint32_t job) = 0;
  /// Zeroes traffic, busy-time and task-memory counters.
  virtual void ResetCounters() = 0;
  virtual double ComperBusySeconds() const = 0;
  virtual int64_t PeakTaskMemoryBytes() const = 0;
  virtual NetTotals Net() const = 0;
};

/// TreeServerCluster over the in-process transport (`tcp` false), or
/// every rank with its own TcpTransport over loopback inside this
/// process, composed from Master, Worker and TcpTransport.
std::unique_ptr<Engine> MakeEngine(bool tcp,
                                   std::shared_ptr<const ts::DataTable> table,
                                   const ts::EngineConfig& cfg);

/// What one forest job did.
struct JobRecord {
  ts::ForestModel forest;
  std::string forest_bytes;
  double train_s = 0.0;  // Submit -> Wait
  double cpu_s = 0.0;    // process user + sys over the job
  uint64_t exact_sorts = 0;
  uint64_t histogram_builds = 0;
  uint64_t sibling_subtractions = 0;
  uint64_t retransmits = 0;
  uint64_t slow_tasks = 0;
  uint64_t column_tasks = 0;
  uint64_t subtree_tasks = 0;
  double comper_busy_s = 0.0;
  int64_t peak_task_mem_bytes = 0;
  NetTotals net;
  Window window;  // the job on the tracer clock
};

/// Zeroes the master's task-latency histograms (process-wide).
void ResetTaskHistograms();

/// Submits `spec`, waits for it and records the job. With `traced` the
/// global tracer runs for the job's duration only.
JobRecord RunJob(Engine* engine, const ts::ForestJobSpec& spec, bool traced);

/// Serialized bytes of a forest (the exactness comparison).
std::string ForestBytes(const ts::ForestModel& forest);

/// Per-layer engine metrics of a traced job (split, engine, net, rpc).
std::vector<std::pair<std::string, double>> EngineLayers(
    const JobRecord& job, const std::vector<TraceEventCopy>& events);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_HARNESS_H_
