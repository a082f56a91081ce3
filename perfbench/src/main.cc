// TreeServer benchmark: command-line entry point.
//
//   perfbench prepare --workload W --seed N --work-dir D
//       writes the run's inputs into D (untimed, separate process)
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --work-dir D --out-dir O
//       measures, checks and prints the result JSON as its last line
//
// perfbench/run.py builds this binary and runs both steps.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"dfs.read_s", "s"},
      {"dfs.file_opens", "count"},
      {"table.bin_s", "s"},
      {"split.exact_sorts", "count"},
      {"split.histogram_builds", "count"},
      {"split.sibling_subtractions", "count"},
      {"split.subtraction_ratio", "ratio"},
      {"forest.serial_s", "s"},
      {"engine.column_tasks", "count"},
      {"engine.subtree_tasks", "count"},
      {"engine.column_compute_s", "s"},
      {"engine.subtree_compute_s", "s"},
      {"engine.task_wait_s", "s"},
      {"engine.ix_serve_s", "s"},
      {"engine.schedule_s", "s"},
      {"engine.comper_idle_share", "ratio"},
      {"engine.column_task_p50_us", "us"},
      {"engine.subtree_task_p50_us", "us"},
      {"engine.peak_task_mem_mb", "MB"},
      {"engine.retransmits", "count"},
      {"engine.slow_tasks", "count"},
      {"net.bytes_sent_mb", "MB"},
      {"net.msgs_sent", "count"},
      {"net.send_s", "s"},
      {"rpc.reconnects", "count"},
      {"serve.publish_s", "s"},
      {"serve.kernel_rows_per_s", "rows/s"},
      {"serve.batches", "count"},
      {"serve.batch_rows_mean", "rows"},
      {"serve.server_latency_p50_us", "us"},
      {"serve.server_latency_p99_us", "us"},
      {"serve.batch_s", "s"},
      {"fleet.push_s", "s"},
      {"fleet.router_latency_p50_us", "us"},
      {"fleet.router_latency_p99_us", "us"},
      {"fleet.dispatch_s", "s"},
      {"fleet.retransmits", "count"},
      {"fleet.shed", "count"},
      {"load.latency_p50_us", "us"},
      {"load.latency_p99_us", "us"},
      {"load.lag_p99_us", "us"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"trace.dropped_spans", "count"},
  };
  return metrics;
}

void AddPerLayer(const std::vector<std::pair<std::string, double>>& values,
                 Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double value = 0.0;
    for (const auto& [n, v] : values) {
      if (n == name) value = v;
    }
    report->Add(name, value, unit);
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench prepare|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --work-dir D [--out-dir O]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Usage("missing phase");
  Options options;
  options.phase = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == options.workload;
  if (!known) Usage("unknown workload '" + options.workload + "'");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  if (options.seconds <= 0) Usage("--seconds must be positive");

  const bool training = IsTrainingWorkload(options.workload);
  Report report;
  if (options.phase == "prepare") {
    training ? PrepareTraining(options, &report) : PrepareServing(options, &report);
    return report.correct() ? 0 : 1;
  }
  if (options.phase != "run") Usage("unknown phase " + options.phase);
  if (options.out_dir.empty()) Usage("--out-dir is required");

  const std::string host = HostFingerprintJson();
  std::cerr << "host: " << host << std::endl;
  training ? RunTraining(options, &report) : RunServing(options, &report);
  std::printf("workload %s, seed %llu, %s run\n%s", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced", report.Table().c_str());
  std::printf("host: %s\n%s\n", host.c_str(), report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
