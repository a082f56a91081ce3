// train-exact-inproc and train-hist-tcp: one forest job on about 1M
// rows read from LocalDfs, repeated for the run's duration, each result
// checked byte for byte against the serial reference trainer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/trace.h"
#include "dfs/dfs.h"
#include "engine_harness.h"
#include "inputs.h"
#include "serve/compiled_model.h"
#include "serve/registry.h"
#include "stats.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;

// The data concept and the job seed (per-tree column samples) are fixed
// per workload; the run seed draws the rows. Column samples move the
// job's work by about 25% between seeds, which would swamp the system's
// own run-to-run spread.
struct TrainShape {
  const char* profile;  // PaperProfiles() name
  uint64_t concept_seed;
  uint64_t job_seed;
  size_t train_rows;
  size_t holdout_rows;
  ts::SplitMethod method;
  bool tcp;
  int trees;
  int max_depth;
};

TrainShape ShapeFor(const std::string& workload) {
  if (workload == "train-exact-inproc") {
    return {"Higgs_boson", 11000000, 4, 1000000, 50000, ts::SplitMethod::kExact, false, 4,
            10};
  }
  return {"Allstate", 13184290, 4, 1000000, 50000, ts::SplitMethod::kHistogram, true, 4,
          10};
}

ts::ForestJobSpec JobSpec(const TrainShape& shape, uint64_t seed) {
  ts::ForestJobSpec spec;
  spec.name = "bench";
  spec.num_trees = shape.trees;
  spec.tree.max_depth = shape.max_depth;
  spec.tree.split_method = shape.method;
  spec.sqrt_columns = true;
  spec.seed = seed;
  return spec;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Accuracy against the majority-class rate (classification) or RMSE
/// against the target's standard deviation (regression), computed here
/// from row-at-a-time ForestModel predictions.
void CheckHoldout(const ts::ForestModel& forest, const ts::DataTable& holdout,
                  Report* report) {
  const size_t n = holdout.num_rows();
  if (holdout.schema().task_kind() == ts::TaskKind::kClassification) {
    std::map<int32_t, size_t> freq;
    size_t hits = 0;
    for (size_t r = 0; r < n; ++r) {
      const int32_t y = holdout.label_at(r);
      ++freq[y];
      if (forest.PredictLabel(holdout, r) == y) ++hits;
    }
    size_t majority = 0;
    for (const auto& [label, count] : freq) majority = std::max(majority, count);
    const double acc = static_cast<double>(hits) / static_cast<double>(n);
    const double base = static_cast<double>(majority) / static_cast<double>(n);
    std::fprintf(stderr, "held-out accuracy %.4f, majority rate %.4f\n", acc,
                 base);
    report->Check(acc > base, "held-out accuracy is not above the majority rate");
  } else {
    double sum = 0.0, sum2 = 0.0, err2 = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double y = holdout.target_value_at(r);
      const double e = forest.PredictValue(holdout, r) - y;
      sum += y;
      sum2 += y * y;
      err2 += e * e;
    }
    const double mean = sum / static_cast<double>(n);
    const double sd =
        std::sqrt(std::max(0.0, sum2 / static_cast<double>(n) - mean * mean));
    const double rmse = std::sqrt(err2 / static_cast<double>(n));
    std::fprintf(stderr, "held-out RMSE %.4f, target sd %.4f\n", rmse, sd);
    report->Check(rmse < sd, "held-out RMSE is not below the target's sd");
  }
}

/// Histogram-mode regression is not exact today: the serial trainer
/// derives the larger child's histogram as parent - smaller sibling,
/// which re-associates the floating-point target sums, while the engine
/// builds every regression histogram directly, so split gains (and thus
/// forest bytes) differ. The probe trains a fixed, seed-independent
/// table through the workload's engine and compares it with the serial
/// reference once per round; a mismatch counts as one failed operation.
class ExactnessProbe {
 public:
  ExactnessProbe(const TrainShape& shape, ts::ForestJobSpec spec)
      : shape_(shape), spec_(std::move(spec)) {
    ts::DatasetProfile profile = ts::PaperProfile(shape.profile, 1.0);
    profile.rows = kProbeRows;
    table_ = std::make_shared<const ts::DataTable>(
        ts::GenerateTable(profile, kProbeSeed));
    spec_.seed = kProbeSeed;
    reference_ = ForestBytes(
        ts::TrainForestSerial(*table_, spec_, kWorkers * kCompersPerWorker));
  }

  bool Matches() {
    std::unique_ptr<Engine> engine =
        MakeEngine(shape_.tcp, table_, EngineShape(kProbeSeed));
    return ForestBytes(engine->Wait(engine->Submit(spec_))) == reference_;
  }

 private:
  static constexpr size_t kProbeRows = 20000;
  static constexpr uint64_t kProbeSeed = 20220101;

  TrainShape shape_;
  ts::ForestJobSpec spec_;
  std::shared_ptr<const ts::DataTable> table_;
  std::string reference_;
};

}  // namespace

void PrepareTraining(const Options& options, Report* report) {
  const TrainShape shape = ShapeFor(options.workload);
  PutSample(ts::PaperProfile(shape.profile, 1.0), shape.concept_seed,
            DeriveSeed(options.seed, kDataStream), shape.train_rows,
            shape.holdout_rows, "train", "holdout", options.work_dir + "/dfs",
            report);
}

void RunTraining(const Options& options, Report* report) {
  const TrainShape shape = ShapeFor(options.workload);
  const uint64_t job_seed = shape.job_seed;
  const ts::ForestJobSpec spec = JobSpec(shape, job_seed);
  const bool exact = shape.method == ts::SplitMethod::kExact;
  ts::LocalDfs dfs(options.work_dir + "/dfs");
  ts::Result<ts::DataTable> holdout = dfs.ReadTable("holdout");
  if (!holdout.ok()) {
    report->Check(false, "ReadTable holdout: " + holdout.status().ToString());
    return;
  }
  std::unique_ptr<ExactnessProbe> probe;
  if (!exact) probe = std::make_unique<ExactnessProbe>(shape, spec);

  // Set-up is ReadTable + engine construction (and, over TCP, peer
  // connection). Every round sets up a fresh engine and runs one job on
  // it, so lazy per-engine work (such as the workers' binning) is paid
  // inside the job as it would be by a user. Extra set-up-only rounds
  // come first so the set-up median has kSetupRepeats samples or more.
  std::vector<double> setup_s, read_s;
  uint64_t file_opens = 0;
  std::shared_ptr<const ts::DataTable> table;
  auto set_up = [&]() -> std::unique_ptr<Engine> {
    table.reset();
    dfs.ResetCounters();
    const int64_t t0 = NowNs();
    ts::Result<ts::DataTable> read = dfs.ReadTable("train");
    const int64_t t1 = NowNs();
    if (!read.ok()) {
      report->Check(false, "ReadTable train: " + read.status().ToString());
      return nullptr;
    }
    table = std::make_shared<const ts::DataTable>(std::move(*read));
    std::unique_ptr<Engine> engine =
        MakeEngine(shape.tcp, table, EngineShape(job_seed));
    read_s.push_back(Seconds(t1 - t0));
    setup_s.push_back(Seconds(NowNs() - t0));
    file_opens = dfs.file_opens();
    return engine;
  };
  for (int i = 1; i < kSetupRepeats; ++i) {
    if (set_up() == nullptr) return;
  }

  // Timed rounds until the run's time is used. A traced run spends
  // half of it untraced (the overhead baseline), then runs one traced
  // round.
  std::vector<double> train_s, cpu_s;
  std::string first_bytes;
  JobRecord last;
  std::vector<TraceEventCopy> events;
  const int64_t phase_start = NowNs();
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  bool traced_done = !options.trace;
  while (true) {
    const bool untraced =
        train_s.empty() || Seconds(NowNs() - phase_start) < untraced_budget;
    if (!untraced && traced_done) break;
    std::unique_ptr<Engine> engine = set_up();
    if (engine == nullptr) return;
    ResetTaskHistograms();
    if (!untraced) ts::Tracer::Global().Clear();
    last = RunJob(engine.get(), spec, /*traced=*/!untraced);
    engine.reset();
    if (untraced) {
      train_s.push_back(last.train_s);
      cpu_s.push_back(last.cpu_s);
    } else {
      events = ts::Tracer::Global().SnapshotEvents();
      traced_done = true;
    }
    if (first_bytes.empty()) first_bytes = last.forest_bytes;
    report->Check(last.forest_bytes == first_bytes,
                  "a repeated job trained a different forest");
    ++report->attempted;
    if (probe != nullptr) {
      ++report->attempted;
      if (!probe->Matches()) ++report->failed;
    }
  }

  // The path each workload claims to measure must have run.
  report->Check(last.forest.num_trees() == static_cast<size_t>(spec.num_trees),
                "the forest has the wrong number of trees");
  report->Check(last.column_tasks > 0, "no column-tasks ran");
  report->Check(last.subtree_tasks > 0, "no subtree-tasks ran");
  if (exact) {
    report->Check(last.exact_sorts > 0, "the exact job ran no exact sorts");
    report->Check(last.histogram_builds == 0, "the exact job built histograms");
  } else {
    report->Check(last.histogram_builds > 0,
                  "the histogram job built no histograms");
    report->Check(last.exact_sorts == 0, "the histogram job ran exact sorts");
  }
  if (shape.tcp) {
    report->Check(last.net.bytes_sent > 0, "the TCP sockets carried no bytes");
  }

  // Exactness. Exact splits: byte-identical to the serial reference
  // trainer. Histogram regression cannot be (see ExactnessProbe); its
  // forest must instead match the same job on the in-process engine.
  const int64_t s0 = NowNs();
  const ts::ForestModel reference =
      ts::TrainForestSerial(*table, spec, kWorkers * kCompersPerWorker);
  const double serial_s = Seconds(NowNs() - s0);
  if (exact) {
    report->Check(ForestBytes(reference) == first_bytes,
                  "the engine's forest differs from the serial reference");
  } else {
    std::unique_ptr<Engine> inproc = MakeEngine(false, table, EngineShape(job_seed));
    report->Check(ForestBytes(inproc->Wait(inproc->Submit(spec))) == first_bytes,
                  "the TCP forest differs from the in-process engine's");
  }
  CheckHoldout(reference, *holdout, report);

  if (!options.trace) {
    const double train = Median(train_s);
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("train_s", train, "s");
    report->Add("cpu_s", Median(cpu_s), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("rows_per_s",
                static_cast<double>(table->num_rows()) * spec.num_trees / train,
                "rows/s");
    return;
  }

  // Traced run: the per-layer breakdown of the traced job.
  std::vector<std::pair<std::string, double>> layer = EngineLayers(last, events);
  layer.emplace_back("dfs.read_s", Median(read_s));
  layer.emplace_back("dfs.file_opens", static_cast<double>(file_opens));
  {
    const int64_t b0 = NowNs();
    auto binned = ts::BinnedTable::Build(*table, spec.tree.max_bins);
    layer.emplace_back("table.bin_s", Seconds(NowNs() - b0));
  }
  layer.emplace_back("forest.serial_s", serial_s);
  {
    // The trained forest through the serving path: publish it, then the
    // single-thread compiled kernel over the held-out rows.
    ts::ModelRegistry registry;
    const int64_t p0 = NowNs();
    report->Check(registry.Publish("bench", reference).ok(), "Publish forest");
    layer.emplace_back("serve.publish_s", Seconds(NowNs() - p0));
    std::vector<uint32_t> rows(holdout->num_rows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
    const ts::CompiledForest& compiled = registry.Current("bench")->compiled;
    std::vector<int32_t> labels(rows.size());
    std::vector<double> values(rows.size());
    const int64_t k0 = NowNs();
    if (compiled.is_classification()) {
      compiled.PredictLabel(*holdout, rows.data(), rows.size(), -1,
                            labels.data());
    } else {
      compiled.PredictValue(*holdout, rows.data(), rows.size(), -1,
                            values.data());
    }
    layer.emplace_back("serve.kernel_rows_per_s",
                       static_cast<double>(rows.size()) / Seconds(NowNs() - k0));
  }
  layer.emplace_back("trace.coverage", Coverage(events, last.window));
  layer.emplace_back("trace.overhead_share", last.train_s / Median(train_s) - 1.0);
  layer.emplace_back("trace.dropped_spans",
                     static_cast<double>(ts::Tracer::Global().dropped_spans()));
  AddPerLayer(layer, report);
  const std::string trace_path = options.out_dir + "/trace.json";
  report->Check(ts::Tracer::Global().WriteChromeTrace(trace_path).ok(),
                "write " + trace_path);
}

}  // namespace perfbench
