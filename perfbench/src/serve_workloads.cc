// serve-rows and fleet-batches: a 40-tree, depth-12 classifier trained
// through the engine, served from an InferenceServer (one Predict per
// row) or through a FleetRouter to two FleetReplicas (16-row batches).
// Each run has a closed-loop phase (fixed window of outstanding
// requests) and an open-loop phase at a fixed offered rate; every
// answered label is checked against ForestModel::PredictLabel.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "common/metrics_registry.h"
#include "common/serial.h"
#include "common/trace.h"
#include "dfs/dfs.h"
#include "engine_harness.h"
#include "inputs.h"
#include "fleet/replica.h"
#include "fleet/router.h"
#include "net/network.h"
#include "serve/compiled_model.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stats.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 25;
constexpr int kModelJobs = 3;
constexpr size_t kTrainRows = 60000;
constexpr size_t kRequestRows = 20000;
constexpr uint64_t kConceptSeed = 7;
// The served model's job seed (its per-tree column samples) is fixed, so
// every run serves a model of the same shape; the run seed varies its
// training rows, the request rows and the request order.
constexpr uint64_t kModelSeed = 40;
constexpr const char* kModel = "bench";

struct ServeShape {
  bool fleet;
  int segments;             // open-loop latency segments
  size_t rows_per_request;  // 1 for Predict, 16 for PredictRows
  size_t window;            // closed-loop outstanding requests
  double offered_rate;      // open-loop requests per second
};

// Offered rates are fixed constants, well below saturation on a
// 4-core host (see README), so no request is refused.
ServeShape ShapeFor(const std::string& workload) {
  if (workload == "fleet-batches") return {true, 5, 16, 256, 1000.0};
  return {false, 25, 1, 4096, 30000.0};
}

ts::DatasetProfile ServeProfile() {
  ts::DatasetProfile p;
  p.name = "serve";
  p.num_numeric = 8;
  p.num_categorical = 4;
  p.num_classes = 5;
  p.missing_fraction = 0.05;
  p.concept_depth = 8;
  return p;
}

ts::ForestJobSpec ModelSpec(uint64_t seed) {
  ts::ForestJobSpec spec;
  spec.name = kModel;
  spec.num_trees = 40;
  spec.tree.max_depth = 12;
  spec.sqrt_columns = true;
  spec.seed = seed;
  return spec;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Tallies answers against the reference labels.
struct Checker {
  const std::vector<int32_t>* reference;
  uint64_t answered_rows = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<uint64_t> per_replica;

  void Take(bool ok, int replica, const int32_t* labels, size_t got,
            const uint32_t* rows, size_t n) {
    if (!ok || got != n) {
      ++failed;
      return;
    }
    if (replica >= static_cast<int>(per_replica.size())) {
      per_replica.resize(replica + 1);
    }
    ++per_replica[replica];
    for (size_t j = 0; j < n; ++j) {
      if (labels[j] != (*reference)[rows[j]]) ++mismatches;
    }
    answered_rows += n;
  }
};

/// One request in flight.
struct InFlight {
  const uint32_t* rows = nullptr;
  std::future<ts::Result<ts::Prediction>> row;           // InferenceServer
  std::future<ts::Result<ts::FleetBatchResult>> batch;   // FleetRouter

  bool ready() const {
    const auto now = std::chrono::seconds(0);
    return row.valid() ? row.wait_for(now) == std::future_status::ready
                       : batch.wait_for(now) == std::future_status::ready;
  }
};

/// The system under test. Construction is the timed set-up.
class Target {
 public:
  Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;
  virtual ~Target() = default;
  /// Sends the `n` rows at `rows` as one request.
  virtual InFlight Send(const uint32_t* rows, size_t n) = 0;
  /// Waits for the answer and hands it to `checker`.
  virtual void Collect(InFlight* request, size_t n, Checker* checker) = 0;
};

/// One InferenceServer (4 traversal threads) over a ModelRegistry; one
/// Predict per row.
class ServerTarget : public Target {
 public:
  ServerTarget(const std::string& model_bytes,
               std::shared_ptr<const ts::DataTable> table,
               ts::MetricsRegistry* metrics, double* publish_s)
      : table_(std::move(table)) {
    ts::ForestModel model;
    ts::BinaryReader reader(model_bytes);
    TS_CHECK(ts::ForestModel::Deserialize(&reader, &model).ok());
    const int64_t p0 = NowNs();
    TS_CHECK(registry_.Publish(kModel, std::move(model)).ok());
    *publish_s = Seconds(NowNs() - p0);
    ts::InferenceServerConfig cfg;
    cfg.num_workers = 4;
    cfg.max_batch = 256;
    cfg.batch_deadline_us = 200;
    cfg.max_queue = 1 << 16;
    cfg.metrics = metrics;
    server_ = std::make_unique<ts::InferenceServer>(&registry_, cfg);
    server_->Start();
  }
  ~ServerTarget() override { server_->Stop(); }

  InFlight Send(const uint32_t* rows, size_t n) override {
    TS_CHECK(n == 1) << "the server takes one row per request";
    ts::PredictRequest req;
    req.model = kModel;
    req.table = table_;
    req.row = *rows;
    InFlight f;
    f.rows = rows;
    f.row = server_->Predict(std::move(req));
    return f;
  }
  void Collect(InFlight* request, size_t n, Checker* checker) override {
    ts::Result<ts::Prediction> r = request->row.get();
    const int32_t label = r.ok() ? r->label : -1;
    checker->Take(r.ok(), 0, &label, 1, request->rows, n);
  }

 private:
  std::shared_ptr<const ts::DataTable> table_;
  ts::ModelRegistry registry_;
  std::unique_ptr<ts::InferenceServer> server_;
};

/// A FleetRouter over two in-process FleetReplicas with two server
/// workers each; one PredictRows per batch.
class FleetTarget : public Target {
 public:
  static constexpr int kReplicas = 2;

  FleetTarget(const std::string& model_bytes,
              std::shared_ptr<const ts::DataTable> table,
              ts::MetricsRegistry* metrics, double* push_s)
      : table_(std::move(table)), net_(kReplicas, 0.0) {
    for (int r = 0; r < kReplicas; ++r) {
      ts::FleetReplicaConfig rc;
      rc.rank = r;
      // Each handler thread waits for its batch's answers, so the
      // handlers bound the batches a replica works on at once; with the
      // default two, the server flushes on its deadline, not on size.
      rc.handler_threads = 8;
      rc.serve.num_workers = 2;
      rc.serve.max_batch = 256;
      rc.serve.batch_deadline_us = 200;
      rc.serve.max_queue = 1 << 16;
      rc.serve.metrics = metrics;
      rc.metrics = metrics;
      replicas_.push_back(std::make_unique<ts::FleetReplica>(&net_, rc));
      replicas_.back()->Start();
    }
    ts::FleetRouterConfig cfg;
    cfg.metrics = metrics;
    cfg.max_inflight = 1 << 14;
    cfg.default_deadline_ms = 60000;
    router_ = std::make_unique<ts::FleetRouter>(&net_, cfg);
    router_->Start();
    const int64_t p0 = NowNs();
    TS_CHECK(router_->Push(kModel, model_bytes).ok());
    *push_s = Seconds(NowNs() - p0);
  }
  ~FleetTarget() override {
    router_->ShutdownReplicas();
    router_->Stop();
    for (auto& r : replicas_) r->Stop();
  }

  InFlight Send(const uint32_t* rows, size_t n) override {
    InFlight f;
    f.rows = rows;
    f.batch = router_->PredictRows(kModel, *table_, rows, n);
    return f;
  }
  void Collect(InFlight* request, size_t n, Checker* checker) override {
    ts::Result<ts::FleetBatchResult> r = request->batch.get();
    if (!r.ok()) {
      checker->Take(false, 0, nullptr, 0, request->rows, n);
      return;
    }
    checker->Take(true, r->replica, r->labels.data(), r->labels.size(),
                  request->rows, n);
  }

 private:
  std::shared_ptr<const ts::DataTable> table_;
  ts::InProcessTransport net_;
  std::vector<std::unique_ptr<ts::FleetReplica>> replicas_;
  std::unique_ptr<ts::FleetRouter> router_;
};

/// Request stream: request i covers `rows_per_request` consecutive
/// entries of a seeded permutation of the request rows.
class RequestRows {
 public:
  RequestRows(size_t num_rows, size_t rows_per_request, uint64_t seed)
      : per_(rows_per_request), perm_(num_rows) {
    for (size_t i = 0; i < num_rows; ++i) perm_[i] = static_cast<uint32_t>(i);
    ts::Rng rng(seed);
    for (size_t i = num_rows; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.Uniform(i)]);
    }
    perm_.insert(perm_.end(), perm_.begin(), perm_.begin() + per_);
  }
  /// Rows of request `i` (contiguous, `per()` of them).
  const uint32_t* For(uint64_t i) const {
    return perm_.data() + (i * per_) % (perm_.size() - per_);
  }
  size_t per() const { return per_; }

 private:
  size_t per_;
  std::vector<uint32_t> perm_;
};

struct ClosedResult {
  double rows_per_s = 0.0;
  uint64_t requests = 0;
  Window window;
};

/// Keeps `window` requests outstanding for `seconds`, then drains.
ClosedResult ClosedLoop(Target* target, const RequestRows& rows, size_t window,
                        double seconds, uint64_t* next_request,
                        Checker* checker) {
  ClosedResult out;
  std::deque<InFlight> pending;
  const uint64_t rows0 = checker->answered_rows;
  out.window.lo = ts::Tracer::Global().NowNs();
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  auto drain_one = [&] {
    target->Collect(&pending.front(), rows.per(), checker);
    pending.pop_front();
  };
  while (NowNs() < end) {
    while (pending.size() < window) {
      pending.push_back(target->Send(rows.For((*next_request)++), rows.per()));
      ++out.requests;
    }
    drain_one();
  }
  while (!pending.empty()) drain_one();
  out.window.hi = ts::Tracer::Global().NowNs();
  out.rows_per_s = static_cast<double>(checker->answered_rows - rows0) /
                   Seconds(NowNs() - t0);
  return out;
}

struct OpenResult {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  uint64_t requests = 0;
};

/// Sends exactly rate x seconds requests, request i due at
/// t0 + i / rate. This thread paces and sends; a collector thread
/// waits for the answers in order. Latency runs from each request's
/// due time to the collector seeing its answer.
OpenResult OpenLoop(Target* target, const RequestRows& rows, double rate,
                    double seconds, uint64_t* next_request, Checker* checker) {
  const size_t n = static_cast<size_t>(rate * seconds);
  std::vector<int64_t> due(n), sent(n), done(n);
  std::vector<InFlight> inflight(n);
  std::atomic<size_t> published{0};
  const uint64_t first = *next_request;
  *next_request += n;
  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      while (published.load(std::memory_order_acquire) <= i ||
             !inflight[i].ready()) {
        std::this_thread::yield();
      }
      target->Collect(&inflight[i], rows.per(), checker);
      done[i] = NowNs();
    }
  });
  const double period_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 1000000;  // 1 ms to get going
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    while (NowNs() < due[i]) {
    }
    sent[i] = NowNs();
    inflight[i] = target->Send(rows.For(first + i), rows.per());
    published.store(i + 1, std::memory_order_release);
  }
  collector.join();
  OpenResult out;
  out.requests = n;
  out.latency_us = OpenLoopLatencyUs(due, done);
  out.lag_us = OpenLoopLatencyUs(due, sent);
  return out;
}

std::unique_ptr<Target> MakeTarget(bool fleet, const std::string& bytes,
                                   std::shared_ptr<const ts::DataTable> table,
                                   ts::MetricsRegistry* metrics,
                                   double* admin_s) {
  if (fleet) {
    return std::make_unique<FleetTarget>(bytes, std::move(table), metrics,
                                         admin_s);
  }
  return std::make_unique<ServerTarget>(bytes, std::move(table), metrics,
                                        admin_s);
}

}  // namespace

void PrepareServing(const Options& options, Report* report) {
  PutSample(ServeProfile(), kConceptSeed, DeriveSeed(options.seed, kDataStream),
            kTrainRows, kRequestRows, "train", "requests",
            options.work_dir + "/dfs", report);
}

void RunServing(const Options& options, Report* report) {
  const ServeShape shape = ShapeFor(options.workload);
  ts::LocalDfs dfs(options.work_dir + "/dfs");
  const int64_t r0 = NowNs();
  ts::Result<ts::DataTable> train = dfs.ReadTable("train");
  const double read_s = Seconds(NowNs() - r0);
  const uint64_t file_opens = dfs.file_opens();
  ts::Result<ts::DataTable> requests_read = dfs.ReadTable("requests");
  if (!train.ok() || !requests_read.ok()) {
    report->Check(false, "ReadTable train/requests");
    return;
  }
  auto table = std::make_shared<const ts::DataTable>(std::move(*train));
  auto requests = std::make_shared<const ts::DataTable>(std::move(*requests_read));

  // The served model: trained by the engine (traced in a traced run),
  // checked against the serial reference.
  const ts::ForestJobSpec spec = ModelSpec(kModelSeed);
  ResetTaskHistograms();
  ts::Tracer::Global().Clear();
  const int64_t s0 = NowNs();
  const ts::ForestModel reference =
      ts::TrainForestSerial(*table, spec, kWorkers * kCompersPerWorker);
  const double serial_s = Seconds(NowNs() - s0);
  // The job runs kModelJobs times, each on a fresh engine; train_s is
  // the median and a traced run traces the last one.
  JobRecord job;
  std::vector<double> train_s;
  for (int i = 0; i < kModelJobs; ++i) {
    std::unique_ptr<Engine> engine =
        MakeEngine(false, table, EngineShape(kModelSeed));
    ResetTaskHistograms();
    job = RunJob(engine.get(), spec, options.trace && i + 1 == kModelJobs);
    train_s.push_back(job.train_s);
    report->Check(job.forest_bytes == ForestBytes(reference),
                  "the engine's model differs from the serial reference");
  }
  const std::string& model_bytes = job.forest_bytes;

  // Row-at-a-time reference labels, before any timing.
  std::vector<int32_t> expected(requests->num_rows());
  for (size_t r = 0; r < expected.size(); ++r) {
    expected[r] = reference.PredictLabel(*requests, r);
  }

  // Set-up: deserialize + publish + compile (or push) + server start,
  // several times; the median is reported.
  ts::MetricsRegistry metrics;
  std::vector<double> setup_s, admin_s;
  std::unique_ptr<Target> target;
  for (int i = 0; i < kSetupRepeats; ++i) {
    target.reset();
    double admin = 0.0;
    const int64_t t0 = NowNs();
    target = MakeTarget(shape.fleet, model_bytes, requests, &metrics, &admin);
    setup_s.push_back(Seconds(NowNs() - t0));
    admin_s.push_back(admin);
  }

  const RequestRows rows(requests->num_rows(), shape.rows_per_request,
                         DeriveSeed(options.seed, kOrderStream));
  Checker checker;
  checker.reference = &expected;
  uint64_t next_request = 0;
  ts::Tracer& tracer = ts::Tracer::Global();
  ts::Histogram* server_latency = metrics.GetHistogram(std::string("serve.latency_us.") + kModel);
  ts::Histogram* router_latency = metrics.GetHistogram("fleet.latency_us");
  ts::Histogram* batch_rows = metrics.GetHistogram("serve.batch_rows");
  ts::Counter* batches = metrics.GetCounter("serve.batches");
  ts::Counter* retransmits = metrics.GetCounter("fleet.retransmits");
  ts::Counter* shed = metrics.GetCounter("fleet.shed");

  // Untraced run: closed loop for half the time, open loop for the
  // other half. Traced run: an untraced closed loop (the overhead
  // baseline), then both phases traced.
  const double closed_s = options.trace ? options.seconds / 4 : options.seconds / 2;
  ClosedResult baseline;
  if (options.trace) {
    baseline = ClosedLoop(target.get(), rows, shape.window, closed_s,
                          &next_request, &checker);
    tracer.Enable();
  }
  batch_rows->Reset();
  const uint64_t batches0 = batches->value();
  const uint64_t retransmits0 = retransmits->value();
  const uint64_t shed0 = shed->value();
  const double cpu0 = CpuSeconds();
  const ClosedResult closed = ClosedLoop(target.get(), rows, shape.window,
                                         closed_s, &next_request, &checker);
  server_latency->Reset();
  router_latency->Reset();
  const OpenResult open = OpenLoop(target.get(), rows, shape.offered_rate,
                                   options.seconds / 2, &next_request, &checker);
  const double cpu_s = CpuSeconds() - cpu0;
  tracer.Disable();
  const ts::Histogram::Snapshot batch_rows_snap = batch_rows->snapshot();
  const ts::Histogram::Snapshot server_snap = server_latency->snapshot();
  const ts::Histogram::Snapshot router_snap = router_latency->snapshot();
  target.reset();

  report->attempted = baseline.requests + closed.requests + open.requests;
  report->failed = checker.failed;
  report->Check(checker.mismatches == 0,
                std::to_string(checker.mismatches) +
                    " served labels differ from the ForestModel reference");
  // The path each workload claims to measure must have run.
  if (shape.fleet) {
    for (int r = 0; r < FleetTarget::kReplicas; ++r) {
      report->Check(checker.per_replica.size() > static_cast<size_t>(r) &&
                        checker.per_replica[r] > 0,
                    "replica " + std::to_string(r) + " answered no batch");
    }
  } else {
    report->Check(batch_rows_snap.Mean() > 1.0,
                  "the server formed no multi-row batches");
  }
  const double p50 = SegmentedPercentile(open.latency_us, shape.segments, 0.5);
  const double p99 = SegmentedPercentile(open.latency_us, shape.segments, 0.99);
  report->Check(p99 >= 0.0, "open-loop segments too short for a p99");

  if (!options.trace) {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("train_s", Median(train_s), "s");
    report->Add("cpu_s", cpu_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("rows_per_s", closed.rows_per_s, "rows/s");
    const LatencySummary s = SummarizeLatency(open.latency_us);
    const LatencySummary lag = SummarizeLatency(open.lag_us);
    std::fprintf(stderr,
                 "open loop: %zu samples, latency p50 %.1f us, p%g %.1f us; "
                 "send lag p50 %.1f us, p%g %.1f us\n",
                 s.count, s.p50, s.tail_p * 100, s.tail, lag.p50,
                 lag.tail_p * 100, lag.tail);
    return;
  }

  std::vector<TraceEventCopy> events = tracer.SnapshotEvents();
  std::vector<std::pair<std::string, double>> layer = EngineLayers(job, events);
  layer.emplace_back("dfs.read_s", read_s);
  layer.emplace_back("dfs.file_opens", static_cast<double>(file_opens));
  {
    const int64_t b0 = NowNs();
    auto binned = ts::BinnedTable::Build(*requests, 255);
    layer.emplace_back("table.bin_s", Seconds(NowNs() - b0));
  }
  layer.emplace_back("forest.serial_s", serial_s);
  {
    const ts::CompiledForest compiled = ts::CompiledForest::Compile(reference);
    std::vector<uint32_t> all(requests->num_rows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    std::vector<int32_t> labels(all.size());
    const int64_t k0 = NowNs();
    compiled.PredictLabel(*requests, all.data(), all.size(), -1, labels.data());
    layer.emplace_back("serve.kernel_rows_per_s",
                       static_cast<double>(all.size()) / Seconds(NowNs() - k0));
    report->Check(labels == expected, "compiled kernel differs from reference");
  }
  layer.emplace_back(shape.fleet ? "fleet.push_s" : "serve.publish_s",
                     Median(admin_s));
  layer.emplace_back("serve.batches", static_cast<double>(batches->value() - batches0));
  layer.emplace_back("serve.batch_rows_mean", batch_rows_snap.Mean());
  layer.emplace_back("serve.server_latency_p50_us",
                     static_cast<double>(server_snap.Percentile(0.5)));
  layer.emplace_back("serve.server_latency_p99_us",
                     static_cast<double>(server_snap.Percentile(0.99)));
  const Window serving{closed.window.lo, tracer.NowNs()};
  layer.emplace_back("serve.batch_s", SumSpanSeconds(events, "serve-batch", serving));
  if (shape.fleet) {
    layer.emplace_back("fleet.router_latency_p50_us",
                       static_cast<double>(router_snap.Percentile(0.5)));
    layer.emplace_back("fleet.router_latency_p99_us",
                       static_cast<double>(router_snap.Percentile(0.99)));
    layer.emplace_back("fleet.dispatch_s",
                       SumSpanSeconds(events, "fleet-dispatch", serving));
    layer.emplace_back("fleet.retransmits",
                       static_cast<double>(retransmits->value() - retransmits0));
    layer.emplace_back("fleet.shed", static_cast<double>(shed->value() - shed0));
  }
  layer.emplace_back("load.latency_p50_us", p50);
  layer.emplace_back("load.latency_p99_us", p99);
  layer.emplace_back("load.lag_p99_us", TailPercentile(open.lag_us, 0.99));
  layer.emplace_back("trace.coverage", Coverage(events, closed.window));
  layer.emplace_back("trace.overhead_share",
                     baseline.rows_per_s / closed.rows_per_s - 1.0);
  layer.emplace_back("trace.dropped_spans",
                     static_cast<double>(tracer.dropped_spans()));
  AddPerLayer(layer, report);
  const std::string trace_path = options.out_dir + "/trace.json";
  report->Check(tracer.WriteChromeTrace(trace_path).ok(), "write " + trace_path);
}

}  // namespace perfbench
