#include "engine_harness.h"

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/serial.h"
#include "common/trace.h"
#include "engine/cluster.h"
#include "engine/messages.h"
#include "report.h"
#include "rpc/tcp_transport.h"

namespace perfbench {
namespace {

uint64_t CounterValue(const char* name) {
  return ts::MetricsRegistry::Global().GetCounter(name)->value();
}

ts::Histogram* GlobalHistogram(const char* name) {
  return ts::MetricsRegistry::Global().GetHistogram(name);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

NetTotals AddEndpoints(const ts::NetworkStats& stats, NetTotals t) {
  for (const auto& e : stats.endpoints) {
    t.bytes_sent += e.bytes_sent;
    t.msgs_sent += e.msgs_sent;
    t.reconnects += e.reconnects;
  }
  return t;
}

class InProcEngine : public Engine {
 public:
  InProcEngine(const ts::DataTable& table, const ts::EngineConfig& cfg)
      : cluster_(table, cfg) {}
  uint32_t Submit(const ts::ForestJobSpec& spec) override {
    return cluster_.Submit(spec);
  }
  ts::ForestModel Wait(uint32_t job) override { return cluster_.Wait(job); }
  void ResetCounters() override { cluster_.ResetMetrics(); }
  double ComperBusySeconds() const override {
    return cluster_.metrics().comper_busy_seconds;
  }
  int64_t PeakTaskMemoryBytes() const override {
    return cluster_.GetEngineStats().task_memory_peak;
  }
  NetTotals Net() const override {
    return AddEndpoints(cluster_.GetEngineStats().network, NetTotals{});
  }

 private:
  ts::TreeServerCluster cluster_;
};

class TcpEngine : public Engine {
 public:
  TcpEngine(std::shared_ptr<const ts::DataTable> table,
            const ts::EngineConfig& cfg)
      : cfg_(cfg) {
    auto options = [&](int rank) {
      ts::TcpTransportOptions o;
      o.num_workers = cfg.num_workers;
      o.local_rank = rank;
      // Generous liveness: a CPU-saturated host must not look like a
      // dead peer.
      o.heartbeat_period_ms = 50;
      o.heartbeat_miss_limit = 100;
      return o;
    };
    master_tx_ = std::make_unique<ts::TcpTransport>(options(ts::kMasterRank));
    for (int w = 0; w < cfg.num_workers; ++w) {
      auto node = std::make_unique<Node>();
      node->transport = std::make_unique<ts::TcpTransport>(options(w));
      nodes_.push_back(std::move(node));
    }
    std::vector<std::string> peers;
    for (auto& node : nodes_) {
      peers.push_back("127.0.0.1:" +
                      std::to_string(node->transport->local_port()));
    }
    peers.push_back("127.0.0.1:" + std::to_string(master_tx_->local_port()));

    master_ = std::make_unique<ts::Master>(table, master_tx_.get(), cfg);
    master_tx_->SetPeerDeadCallback([this](int rank) {
      if (rank != ts::kMasterRank) master_->OnWorkerCrash(rank);
    });
    TS_CHECK(master_tx_->ConnectPeers(peers).ok());
    for (auto& node : nodes_) {
      TS_CHECK(node->transport->ConnectPeers(peers).ok());
    }
    TS_CHECK(master_tx_->WaitForPeers(20000)) << "workers did not connect";
    for (auto& node : nodes_) {
      TS_CHECK(node->transport->WaitForPeers(20000)) << "peers did not connect";
    }
    for (int w = 0; w < cfg.num_workers; ++w) {
      Node& node = *nodes_[w];
      node.worker = std::make_unique<ts::Worker>(
          w, table, node.transport.get(), cfg.compers_per_worker,
          &node.task_memory, &node.busy, cfg.compress_transfers);
    }
    master_->Start();
    for (auto& node : nodes_) node->worker->Start();
  }

  ~TcpEngine() override {
    for (int w = 0; w < cfg_.num_workers; ++w) {
      master_tx_->Send(
          ts::ChannelKind::kTask,
          ts::Message{ts::kMasterRank, w,
                      static_cast<uint32_t>(ts::MsgType::kShutdown), ""});
    }
    // Workers leave their task loop on kShutdown; give the frames time
    // to arrive, then reap every rank.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (auto& node : nodes_) {
      node->transport->CloseAll();
      node->worker->Join();
      node->transport->Shutdown();
    }
    master_->Stop();
    master_tx_->Shutdown();
  }

  uint32_t Submit(const ts::ForestJobSpec& spec) override {
    return master_->Submit(spec);
  }
  ts::ForestModel Wait(uint32_t job) override { return master_->Wait(job); }
  void ResetCounters() override {
    master_tx_->ResetCounters();
    for (auto& node : nodes_) {
      node->transport->ResetCounters();
      node->busy.Reset();
      node->task_memory.Reset();
    }
  }
  double ComperBusySeconds() const override {
    double s = 0.0;
    for (const auto& node : nodes_) s += node->busy.Seconds();
    return s;
  }
  int64_t PeakTaskMemoryBytes() const override {
    int64_t b = 0;
    for (const auto& node : nodes_) b += node->task_memory.peak();
    return b;
  }
  NetTotals Net() const override {
    NetTotals t = AddEndpoints(master_tx_->GetStats(), NetTotals{});
    for (const auto& node : nodes_) {
      t = AddEndpoints(node->transport->GetStats(), t);
    }
    return t;
  }

 private:
  struct Node {
    std::unique_ptr<ts::TcpTransport> transport;
    ts::PeakGauge task_memory;
    ts::BusyClock busy;
    std::unique_ptr<ts::Worker> worker;
  };

  ts::EngineConfig cfg_;
  std::unique_ptr<ts::TcpTransport> master_tx_;
  std::unique_ptr<ts::Master> master_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace

ts::EngineConfig EngineShape(uint64_t seed) {
  ts::EngineConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.compers_per_worker = kCompersPerWorker;
  cfg.replication = 2;
  cfg.tau_d = 10000;
  cfg.tau_dfs = 80000;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<Engine> MakeEngine(bool tcp,
                                   std::shared_ptr<const ts::DataTable> table,
                                   const ts::EngineConfig& cfg) {
  if (tcp) return std::make_unique<TcpEngine>(std::move(table), cfg);
  return std::make_unique<InProcEngine>(*table, cfg);
}

void ResetTaskHistograms() {
  GlobalHistogram("master.task_latency_us")->Reset();
  GlobalHistogram("master.column_task_latency_us")->Reset();
  GlobalHistogram("master.subtree_task_latency_us")->Reset();
}

std::string ForestBytes(const ts::ForestModel& forest) {
  ts::BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

JobRecord RunJob(Engine* engine, const ts::ForestJobSpec& spec, bool traced) {
  ts::Tracer& tracer = ts::Tracer::Global();
  ts::Histogram* columns = GlobalHistogram("master.column_task_latency_us");
  ts::Histogram* subtrees = GlobalHistogram("master.subtree_task_latency_us");
  JobRecord job;
  engine->ResetCounters();
  const uint64_t sorts0 = CounterValue("split.exact_sorts");
  const uint64_t builds0 = CounterValue("split.histogram_builds");
  const uint64_t subs0 = CounterValue("split.sibling_subtractions");
  const uint64_t retrans0 = CounterValue("engine.retransmits");
  const uint64_t slow0 = CounterValue("engine.slow_tasks");
  const uint64_t columns0 = columns->Count();
  const uint64_t subtrees0 = subtrees->Count();
  if (traced) tracer.Enable();
  const double cpu0 = CpuSeconds();
  job.window.lo = tracer.NowNs();
  const int64_t t0 = NowNs();
  {
    ts::TraceSpan span(ts::TraceCat::kTreeComplete, "bench-forest-job");
    job.forest = engine->Wait(engine->Submit(spec));
  }
  job.train_s = Seconds(NowNs() - t0);
  job.window.hi = tracer.NowNs();
  job.cpu_s = CpuSeconds() - cpu0;
  tracer.Disable();
  job.exact_sorts = CounterValue("split.exact_sorts") - sorts0;
  job.histogram_builds = CounterValue("split.histogram_builds") - builds0;
  job.sibling_subtractions = CounterValue("split.sibling_subtractions") - subs0;
  job.retransmits = CounterValue("engine.retransmits") - retrans0;
  job.slow_tasks = CounterValue("engine.slow_tasks") - slow0;
  job.column_tasks = columns->Count() - columns0;
  job.subtree_tasks = subtrees->Count() - subtrees0;
  job.comper_busy_s = engine->ComperBusySeconds();
  job.peak_task_mem_bytes = engine->PeakTaskMemoryBytes();
  job.net = engine->Net();
  job.forest_bytes = ForestBytes(job.forest);
  return job;
}

std::vector<std::pair<std::string, double>> EngineLayers(
    const JobRecord& job, const std::vector<TraceEventCopy>& events) {
  constexpr double kMb = 1024.0 * 1024.0;
  const Window w = job.window;
  std::vector<std::pair<std::string, double>> out;
  auto add = [&](const char* name, double v) { out.emplace_back(name, v); };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  add("split.exact_sorts", count(job.exact_sorts));
  add("split.histogram_builds", count(job.histogram_builds));
  add("split.sibling_subtractions", count(job.sibling_subtractions));
  const uint64_t hist_total = job.histogram_builds + job.sibling_subtractions;
  add("split.subtraction_ratio",
      hist_total == 0 ? 0.0 : count(job.sibling_subtractions) / count(hist_total));
  add("engine.column_tasks", count(job.column_tasks));
  add("engine.subtree_tasks", count(job.subtree_tasks));
  const double column_s = SumSpanSeconds(events, "compute-column", w);
  const double subtree_s = SumSpanSeconds(events, "compute-subtree", w);
  add("engine.column_compute_s", column_s);
  add("engine.subtree_compute_s", subtree_s);
  add("engine.task_wait_s",
      SumAsyncSeconds(events, "task", w) - column_s - subtree_s);
  add("engine.ix_serve_s", SumSpanSeconds(events, "serve-ix", w));
  add("engine.schedule_s", SumSpanSeconds(events, "schedule", w));
  add("engine.comper_idle_share",
      1.0 - job.comper_busy_s / (kWorkers * kCompersPerWorker * job.train_s));
  add("engine.column_task_p50_us",
      count(GlobalHistogram("master.column_task_latency_us")
                ->snapshot()
                .Percentile(0.5)));
  add("engine.subtree_task_p50_us",
      count(GlobalHistogram("master.subtree_task_latency_us")
                ->snapshot()
                .Percentile(0.5)));
  add("engine.peak_task_mem_mb", static_cast<double>(job.peak_task_mem_bytes) / kMb);
  add("engine.retransmits", count(job.retransmits));
  add("engine.slow_tasks", count(job.slow_tasks));
  add("net.bytes_sent_mb", static_cast<double>(job.net.bytes_sent) / kMb);
  add("net.msgs_sent", count(job.net.msgs_sent));
  add("net.send_s", SumSpanSeconds(events, "send", w));
  add("rpc.reconnects", count(job.net.reconnects));
  return out;
}

}  // namespace perfbench
