// The four benchmark workloads. `Prepare*` writes a run's inputs into
// its LocalDfs directory (untimed, in a process of its own so that the
// measuring process's peak RSS holds no generator state); `Run*` reads
// them back, measures, checks and fills the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "train-exact-inproc", "train-hist-tcp", "serve-rows", "fleet-batches"};
  return names;
}

inline bool IsTrainingWorkload(const std::string& w) {
  return w.rfind("train-", 0) == 0;
}

void PrepareTraining(const Options& options, Report* report);
void RunTraining(const Options& options, Report* report);
void PrepareServing(const Options& options, Report* report);
void RunServing(const Options& options, Report* report);

/// Names and units of every per-layer metric, in report order. The
/// traced run reports each one; those a workload does not exercise
/// read 0 (see the README's table).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills every per-layer metric not yet in `values` with 0 and adds
/// them all to `report` in PerLayerMetrics() order.
void AddPerLayer(const std::vector<std::pair<std::string, double>>& values,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
