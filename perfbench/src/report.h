// Result reporting shared by every workload: named metrics with units,
// correctness checks, operation counts, the host fingerprint, and the
// process-level resource readings (CPU time, peak RSS).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark invocation.
struct Options {
  std::string phase;     // "prepare" (write inputs) or "run" (measure)
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // this run's LocalDfs root and scratch files
  std::string out_dir;   // results and trace files
};

/// Seeds of the independent random streams of one run (data rows,
/// request order), all derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);
inline constexpr uint64_t kDataStream = 1;
inline constexpr uint64_t kOrderStream = 2;

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed check (and prints it to stderr) unless `ok`.
  void Check(bool ok, const std::string& what);

  bool correct() const { return errors_.empty(); }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one
  /// line: the benchmark's machine-readable result.
  std::string Json() const;
  /// Aligned "name  value  unit" table for people.
  std::string Table() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// One-line JSON host fingerprint: cores, CPU model, active and
/// detected SIMD level, build type and compiler.
std::string HostFingerprintJson();

/// Process user + system CPU seconds so far (getrusage).
double CpuSeconds();
/// Process peak resident set (VmHWM) in MB.
double PeakRssMb();
/// Monotonic clock in nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
