#include "engine/worker.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/trace.h"
#include "tree/trainer.h"

namespace treeserver {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Worker::Worker(int id, std::shared_ptr<const DataTable> table,
               Transport* network, int num_compers, PeakGauge* task_memory,
               BusyClock* busy_clock, bool compress_transfers,
               int debug_slow_task_ms, ReliableOptions reliable)
    : id_(id),
      table_(std::move(table)),
      network_(network),
      link_(network, id, reliable),
      num_compers_(num_compers),
      task_memory_(task_memory),
      busy_clock_(busy_clock),
      compress_transfers_(compress_transfers),
      debug_slow_task_ms_(debug_slow_task_ms),
      computed_counter_(
          MetricsRegistry::Global().GetCounter("engine.tasks_computed")),
      dup_tasks_(
          MetricsRegistry::Global().GetCounter("engine.duplicate_tasks")) {}

Worker::~Worker() { Join(); }

void Worker::Start() {
  link_.Start();
  task_thread_ = std::thread(&Worker::TaskLoop, this);
  data_thread_ = std::thread(&Worker::DataLoop, this);
  for (int i = 0; i < num_compers_; ++i) {
    compers_.emplace_back(&Worker::ComperLoop, this);
  }
}

void Worker::Join() {
  link_.Stop();
  if (task_thread_.joinable()) task_thread_.join();
  if (data_thread_.joinable()) data_thread_.join();
  for (std::thread& t : compers_) {
    if (t.joinable()) t.join();
  }
}

Worker::TaskPtr Worker::Find(uint64_t task_id) {
  TaskPtr out;
  tasks_.Visit(task_id, [&](TaskPtr& p) { out = p; });
  return out;
}

WorkerStats Worker::GetStats() const {
  WorkerStats stats;
  stats.worker = id_;
  stats.tasks_parked = tasks_.size();
  stats.btask_depth = btask_.size();
  stats.tasks_computed = computed_.value();
  if (busy_clock_ != nullptr) stats.busy_seconds = busy_clock_->Seconds();
  return stats;
}

std::shared_ptr<std::vector<uint32_t>> Worker::IotaRows(uint64_t n) const {
  auto rows = std::make_shared<std::vector<uint32_t>>(n);
  std::iota(rows->begin(), rows->end(), 0u);
  return rows;
}

void Worker::RequestIx(uint64_t parent_task, int parent_worker, uint8_t side,
                       uint64_t requester_task) {
  IxRequest req;
  req.parent_task = parent_task;
  req.side = side;
  req.requester_task = requester_task;
  req.requester_worker = id_;
  link_.Send(ChannelKind::kData,
             Message{id_, parent_worker,
                     static_cast<uint32_t>(MsgType::kIxRequest),
                     req.Encode(), requester_task});
}

// ---------------------------------------------------------------------
// θ_main: task channel.
// ---------------------------------------------------------------------

void Worker::TaskLoop() {
  while (auto msg = network_->task_queue(id_).Pop()) {
    if (!link_.OnReceive(&*msg, ChannelKind::kTask)) continue;
    switch (static_cast<MsgType>(msg->type)) {
      case MsgType::kColumnTaskPlan:
        HandleColumnTaskPlan(msg->payload);
        break;
      case MsgType::kSubtreeTaskPlan:
        HandleSubtreeTaskPlan(msg->payload);
        break;
      case MsgType::kBestSplitNotify:
        HandleBestSplitNotify(msg->payload);
        break;
      case MsgType::kTaskDelete:
        HandleTaskDelete(msg->payload);
        break;
      case MsgType::kParentRelease:
        HandleParentRelease(msg->payload);
        break;
      case MsgType::kTreeRevoke:
        HandleTreeRevoke(msg->payload);
        break;
      case MsgType::kRevokeAll: {
        std::vector<uint64_t> keys =
            tasks_.KeysWhere([](const uint64_t&, const TaskPtr&) {
              return true;
            });
        for (uint64_t key : keys) tasks_.Erase(key);
        break;
      }
      case MsgType::kTraceRequest:
        HandleTraceRequest();
        break;
      case MsgType::kShutdown:
        network_->task_queue(id_).Close();
        break;
      default:
        TS_LOG(kError) << "worker " << id_ << ": unexpected task msg "
                       << msg->type;
    }
  }
  TS_LOG(kDebug) << "w" << id_ << ": task loop exiting";
  btask_.Close();
}

void Worker::HandleColumnTaskPlan(const std::string& payload) {
  ColumnTaskPlan plan;
  if (Status st = ColumnTaskPlan::Decode(payload, &plan); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad column plan: " << st.ToString();
    return;
  }
  TS_LOG(kDebug) << "w" << id_ << ": column plan task " << plan.task_id;
  auto task = std::make_shared<TaskState>(task_memory_);
  task->kind = TaskKindTag::kColumn;
  task->tree_id = plan.tree_id;
  task->cplan = plan;
  if (!tasks_.Insert(plan.task_id, task)) {
    // Replayed plan (e.g. a retransmit racing its ack): the live task
    // object already tracks this work — dropping the replay is safe.
    dup_tasks_->Inc();
    TS_LOG(kWarn) << "w" << id_ << ": dropped duplicate column plan for task "
                  << plan.task_id;
    return;
  }

  if (plan.parent_worker < 0) {
    // Root task: I_x is all rows, known locally.
    std::lock_guard<std::mutex> lock(task->mu);
    task->ix = IotaRows(plan.n_rows);
    task->ChargeMemory(static_cast<int64_t>(plan.n_rows * sizeof(uint32_t)));
    task->sent_to_compute = true;
    btask_.Push(ReadyTask{TaskKindTag::kColumn, plan.task_id});
  } else {
    RequestIx(plan.parent_task, plan.parent_worker, plan.side, plan.task_id);
  }
}

void Worker::HandleSubtreeTaskPlan(const std::string& payload) {
  SubtreeTaskPlan plan;
  if (Status st = SubtreeTaskPlan::Decode(payload, &plan); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad subtree plan: " << st.ToString();
    return;
  }
  auto task = std::make_shared<TaskState>(task_memory_);
  task->kind = TaskKindTag::kSubtree;
  task->tree_id = plan.tree_id;
  task->splan = plan;

  // Group remote columns by serving worker.
  std::map<int, std::vector<int32_t>> remote;
  for (size_t i = 0; i < plan.columns.size(); ++i) {
    if (plan.column_servers[i] != id_) {
      remote[plan.column_servers[i]].push_back(plan.columns[i]);
    }
  }
  task->awaiting_remote = remote.size();
  if (!tasks_.Insert(plan.task_id, task)) {
    dup_tasks_->Inc();
    TS_LOG(kWarn) << "w" << id_ << ": dropped duplicate subtree plan for task "
                  << plan.task_id;
    return;
  }

  for (const auto& [server, cols] : remote) {
    ColumnDataRequest req;
    req.task_id = plan.task_id;
    req.tree_id = plan.tree_id;
    req.columns = cols;
    req.key_worker = id_;
    req.parent_worker = plan.parent_worker;
    req.parent_task = plan.parent_task;
    req.side = plan.side;
    req.n_rows = plan.n_rows;
    link_.Send(ChannelKind::kData,
               Message{id_, server,
                       static_cast<uint32_t>(MsgType::kColumnDataRequest),
                       req.Encode(), plan.task_id});
  }

  if (plan.parent_worker < 0) {
    std::lock_guard<std::mutex> lock(task->mu);
    task->ix = IotaRows(plan.n_rows);
    task->ChargeMemory(static_cast<int64_t>(plan.n_rows * sizeof(uint32_t)));
    CheckSubtreeReady(task, plan.task_id);
  } else {
    RequestIx(plan.parent_task, plan.parent_worker, plan.side, plan.task_id);
  }
}

void Worker::HandleBestSplitNotify(const std::string& payload) {
  BestSplitNotify notify;
  if (Status st = BestSplitNotify::Decode(payload, &notify); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad split notify: " << st.ToString();
    return;
  }
  TaskPtr task = Find(notify.task_id);
  if (task == nullptr) return;  // revoked meanwhile

  if (notify.is_delegate == 0) {
    tasks_.Erase(notify.task_id);
    return;
  }

  std::vector<IxRequest> pending;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    if (task->is_delegate || task->split_done) {
      // Replayed verdict: the split was already performed and I_x
      // consumed; re-splitting would dereference the released index.
      dup_tasks_->Inc();
      TS_LOG(kWarn) << "w" << id_
                    << ": dropped duplicate split verdict for task "
                    << notify.task_id;
      return;
    }
    TS_CHECK(task->ix != nullptr) << "delegate without I_x";
    task->is_delegate = true;
    task->delegate_condition = notify.condition;

    // Split I_x into I_xl / I_xr with the confirmed condition, reading
    // the winning column locally. Order is preserved so every replica
    // of the computation sees the same row order.
    const SplitCondition& cond = notify.condition;
    const ColumnPtr& col = table_->column(cond.column);
    auto left = std::make_shared<std::vector<uint32_t>>();
    auto right = std::make_shared<std::vector<uint32_t>>();
    left->reserve(task->ix->size());
    right->reserve(task->ix->size());
    if (cond.type == DataType::kNumeric) {
      for (uint32_t row : *task->ix) {
        if (cond.TrainRoutesLeftNumeric(col->numeric_at(row))) {
          left->push_back(row);
        } else {
          right->push_back(row);
        }
      }
    } else {
      for (uint32_t row : *task->ix) {
        if (cond.TrainRoutesLeftCategory(col->category_at(row))) {
          left->push_back(row);
        } else {
          right->push_back(row);
        }
      }
    }
    task->ix_left = std::move(left);
    task->ix_right = std::move(right);
    task->ix.reset();  // replaced by the two halves (same total bytes)
    task->split_done = true;
    pending.swap(task->queued_requests);
  }
  for (const IxRequest& req : pending) ServeIx(task, req);
}

void Worker::HandleTaskDelete(const std::string& payload) {
  TaskIdOnly body;
  if (!TaskIdOnly::Decode(payload, &body).ok()) return;
  tasks_.Erase(body.task_id);
}

void Worker::HandleParentRelease(const std::string& payload) {
  TaskIdOnly body;
  if (!TaskIdOnly::Decode(payload, &body).ok()) return;
  tasks_.Erase(body.task_id);
}

void Worker::HandleTreeRevoke(const std::string& payload) {
  TreeIdOnly body;
  if (!TreeIdOnly::Decode(payload, &body).ok()) return;
  std::vector<uint64_t> keys = tasks_.KeysWhere(
      [&](const uint64_t&, const TaskPtr& t) {
        return t->tree_id == body.tree_id;
      });
  for (uint64_t key : keys) tasks_.Erase(key);
}

// ---------------------------------------------------------------------
// θ_recv: data channel.
// ---------------------------------------------------------------------

void Worker::DataLoop() {
  while (auto msg = network_->data_queue(id_).Pop()) {
    if (!link_.OnReceive(&*msg, ChannelKind::kData)) continue;
    switch (static_cast<MsgType>(msg->type)) {
      case MsgType::kIxRequest:
        HandleIxRequest(msg->payload);
        break;
      case MsgType::kIxResponse:
        HandleIxResponse(msg->payload);
        break;
      case MsgType::kColumnDataRequest:
        HandleColumnDataRequest(msg->payload);
        break;
      case MsgType::kColumnDataResponse:
        HandleColumnDataResponse(msg->payload);
        break;
      default:
        TS_LOG(kError) << "worker " << id_ << ": unexpected data msg "
                       << msg->type;
    }
  }
}

void Worker::ServeIx(const TaskPtr& task, const IxRequest& req) {
  TraceSpan span(TraceCat::kIndexServe, "serve-ix", req.requester_task);
  IxResponse resp;
  resp.requester_task = req.requester_task;
  resp.compress = compress_transfers_;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    TS_CHECK(task->split_done);
    const auto& rows = req.side == 0 ? task->ix_left : task->ix_right;
    resp.rows = *rows;
  }
  span.SetArg("rows", static_cast<int64_t>(resp.rows.size()));
  link_.Send(ChannelKind::kData,
             Message{id_, req.requester_worker,
                     static_cast<uint32_t>(MsgType::kIxResponse),
                     resp.Encode(), req.requester_task});
}

void Worker::HandleIxRequest(const std::string& payload) {
  IxRequest req;
  if (Status st = IxRequest::Decode(payload, &req); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad ix request: " << st.ToString();
    return;
  }
  TaskPtr task = Find(req.parent_task);
  TS_LOG(kDebug) << "w" << id_ << ": ix request parent_task="
                 << req.parent_task << " from w" << req.requester_worker
                 << (task == nullptr ? " (NO TASK - dropped)" : "");
  if (task == nullptr) return;  // parent revoked; requester's tree too
  bool ready;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    ready = task->split_done;
    if (!ready) task->queued_requests.push_back(req);
  }
  if (ready) ServeIx(task, req);
}

void Worker::HandleIxResponse(const std::string& payload) {
  IxResponse resp;
  if (Status st = IxResponse::Decode(payload, &resp); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad ix response: " << st.ToString();
    return;
  }
  TaskPtr task = Find(resp.requester_task);
  TS_LOG(kDebug) << "w" << id_ << ": ix response for task "
                 << resp.requester_task << " rows=" << resp.rows.size()
                 << (task == nullptr ? " (no task)" : "");
  if (task == nullptr) return;

  bool serve_columns = false;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    if (task->ix != nullptr || task->split_done) {
      // Replayed I_x: the first copy already landed (and may already
      // be split); overwriting would double-charge memory and could
      // re-enqueue the task.
      dup_tasks_->Inc();
      TS_LOG(kWarn) << "w" << id_ << ": dropped duplicate I_x for task "
                    << resp.requester_task;
      return;
    }
    task->ix =
        std::make_shared<std::vector<uint32_t>>(std::move(resp.rows));
    task->ChargeMemory(
        static_cast<int64_t>(task->ix->size() * sizeof(uint32_t)));
    switch (task->kind) {
      case TaskKindTag::kColumn:
        if (!task->sent_to_compute) {
          task->sent_to_compute = true;
          btask_.Push(ReadyTask{TaskKindTag::kColumn, resp.requester_task});
        }
        break;
      case TaskKindTag::kSubtree:
        CheckSubtreeReady(task, resp.requester_task);
        break;
      case TaskKindTag::kServe:
        serve_columns = true;
        break;
    }
  }
  if (serve_columns) ServeColumns(task);
}

void Worker::HandleColumnDataRequest(const std::string& payload) {
  ColumnDataRequest req;
  if (Status st = ColumnDataRequest::Decode(payload, &req); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad column request: " << st.ToString();
    return;
  }
  auto task = std::make_shared<TaskState>(task_memory_);
  task->kind = TaskKindTag::kServe;
  task->tree_id = req.tree_id;
  task->serve = req;
  if (!tasks_.Insert(req.task_id, task)) {
    dup_tasks_->Inc();
    TS_LOG(kWarn) << "w" << id_ << ": dropped duplicate serve request for task "
                  << req.task_id;
    return;
  }

  if (req.parent_worker < 0) {
    {
      std::lock_guard<std::mutex> lock(task->mu);
      task->ix = IotaRows(req.n_rows);
    }
    ServeColumns(task);
  } else {
    RequestIx(req.parent_task, req.parent_worker, req.side, req.task_id);
  }
}

void Worker::ServeColumns(const TaskPtr& task) {
  ColumnDataResponse resp;
  int key_worker;
  uint64_t task_id;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    const ColumnDataRequest& req = task->serve;
    resp.task_id = req.task_id;
    resp.compress = compress_transfers_;
    resp.columns = req.columns;
    resp.data.reserve(req.columns.size());
    for (int32_t col : req.columns) {
      resp.data.push_back(table_->column(col)->Gather(*task->ix));
    }
    key_worker = req.key_worker;
    task_id = req.task_id;
  }
  link_.Send(ChannelKind::kData,
             Message{id_, key_worker,
                     static_cast<uint32_t>(MsgType::kColumnDataResponse),
                     resp.Encode(), task_id});
  tasks_.Erase(task_id);
}

void Worker::HandleColumnDataResponse(const std::string& payload) {
  ColumnDataResponse resp;
  if (Status st = ColumnDataResponse::Decode(payload, &resp); !st.ok()) {
    TS_LOG(kError) << "w" << id_ << ": bad column response: " << st.ToString();
    return;
  }
  TaskPtr task = Find(resp.task_id);
  if (task == nullptr) return;
  if (resp.columns.empty()) return;
  std::lock_guard<std::mutex> lock(task->mu);
  if (task->awaiting_remote == 0 ||
      std::find(task->gathered_cols.begin(), task->gathered_cols.end(),
                resp.columns[0]) != task->gathered_cols.end()) {
    // Replayed column batch: its columns are already gathered (or all
    // batches are in) — appending again would corrupt the subset.
    dup_tasks_->Inc();
    TS_LOG(kWarn) << "w" << id_ << ": dropped duplicate column data for task "
                  << resp.task_id;
    return;
  }
  int64_t bytes = 0;
  for (size_t i = 0; i < resp.columns.size(); ++i) {
    task->gathered_cols.push_back(resp.columns[i]);
    bytes += static_cast<int64_t>(resp.data[i]->ByteSize());
    task->gathered_data.push_back(std::move(resp.data[i]));
  }
  task->ChargeMemory(bytes);
  --task->awaiting_remote;
  CheckSubtreeReady(task, resp.task_id);
}

void Worker::CheckSubtreeReady(const TaskPtr& task, uint64_t task_id) {
  // Caller holds task->mu.
  if (task->ix == nullptr || task->sent_to_compute) return;

  // Local columns are gathered once I_x is here (they were not
  // requested over the network).
  if (!task->local_gathered) {
    int64_t bytes = 0;
    const SubtreeTaskPlan& plan = task->splan;
    for (size_t i = 0; i < plan.columns.size(); ++i) {
      if (plan.column_servers[i] == id_) {
        ColumnPtr g = table_->column(plan.columns[i])->Gather(*task->ix);
        bytes += static_cast<int64_t>(g->ByteSize());
        task->gathered_cols.push_back(plan.columns[i]);
        task->gathered_data.push_back(std::move(g));
      }
    }
    task->ChargeMemory(bytes);
    task->local_gathered = true;
  }

  if (task->awaiting_remote == 0) {
    task->sent_to_compute = true;
    btask_.Push(ReadyTask{TaskKindTag::kSubtree, task_id});
  }
}

// ---------------------------------------------------------------------
// Compers.
// ---------------------------------------------------------------------

void Worker::HandleTraceRequest() {
  TraceSnapshotMsg snap;
  snap.worker = id_;
  snap.dropped = Tracer::Global().dropped_spans();
  snap.events = Tracer::Global().SnapshotEvents();
  network_->Send(ChannelKind::kTrace,
                 Message{id_, kMasterRank,
                         static_cast<uint32_t>(MsgType::kTraceSnapshot),
                         snap.Encode()});
}

void Worker::ComperLoop() {
  while (auto ready = btask_.Pop()) {
    TaskPtr task = Find(ready->task_id);
    if (task == nullptr) continue;  // revoked while queued
    if (debug_slow_task_ms_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(debug_slow_task_ms_));
    }
    const bool is_column = ready->kind == TaskKindTag::kColumn;
    TraceSpan span(
        is_column ? TraceCat::kColumnTask : TraceCat::kSubtreeTask,
        is_column ? "compute-column" : "compute-subtree", ready->task_id);
    uint64_t start = NowNanos();
    if (is_column) {
      ComputeColumnTask(task);
    } else {
      ComputeSubtreeTask(task);
    }
    if (busy_clock_ != nullptr) busy_clock_->AddNanos(NowNanos() - start);
    computed_.Inc();
    computed_counter_->Inc();
  }
}

std::shared_ptr<const BinnedTable> Worker::GetBinned(int max_bins) {
  std::lock_guard<std::mutex> lock(binned_mu_);
  std::shared_ptr<const BinnedTable>& slot = binned_[max_bins];
  if (slot == nullptr) slot = BinnedTable::Build(*table_, max_bins);
  return slot;
}

SplitOutcome Worker::HistogramColumnSplit(const TaskPtr& task,
                                          const ColumnTaskPlan& plan,
                                          int32_t col, const BinnedColumn& bc,
                                          const SplitContext& ctx,
                                          const std::vector<uint32_t>& ix) {
  // Only histograms whose subtraction is exact go through the sibling
  // cache, so a cache hit can never change the split outcome (and thus
  // cannot perturb in-process vs TCP determinism or serial parity).
  const bool cacheable = NodeHistogram::SubtractionIsExact(ctx.kind);
  NodeHistogram hist;
  bool derived = false;
  TaskPtr parent;
  if (cacheable && plan.parent_worker == id_) {
    parent = Find(plan.parent_task);
  }
  if (parent != nullptr) {
    std::lock_guard<std::mutex> lock(parent->mu);
    auto pit = parent->col_hists.find(col);
    auto sit = parent->child_col_hists[1 - plan.side].find(col);
    if (pit != parent->col_hists.end() &&
        sit != parent->child_col_hists[1 - plan.side].end() &&
        pit->second.CompatibleWith(sit->second)) {
      hist = NodeHistogram::Subtract(pit->second, sit->second);
      derived = true;
    }
  }
  if (!derived) {
    hist = NodeHistogram::Build(bc, *table_->target(), ctx, ix.data(),
                                ix.size());
  }
  if (cacheable) {
    if (parent != nullptr) {
      std::lock_guard<std::mutex> lock(parent->mu);
      auto inserted = parent->child_col_hists[plan.side].emplace(col, hist);
      if (inserted.second) {
        parent->ChargeMemory(static_cast<int64_t>(hist.ByteSize()));
      }
    }
    {
      // Park a copy on this task: if it becomes the delegate, its
      // children's column tasks on this worker subtract instead of
      // rebuilding. Freed with the task object (verdict or release).
      std::lock_guard<std::mutex> lock(task->mu);
      auto inserted = task->col_hists.emplace(col, hist);
      if (inserted.second) {
        task->ChargeMemory(static_cast<int64_t>(hist.ByteSize()));
      }
    }
  }
  return hist.BestSplit(bc, col, ctx);
}

void Worker::ComputeColumnTask(const TaskPtr& task) {
  ColumnTaskPlan plan;
  std::shared_ptr<std::vector<uint32_t>> ix;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    plan = task->cplan;
    ix = task->ix;
  }
  const Schema& schema = table_->schema();
  SplitContext ctx{schema.task_kind(),
                   static_cast<Impurity>(plan.ctx.impurity),
                   schema.num_classes()};
  const ColumnPtr& target = table_->target();

  ColumnTaskResponse resp;
  resp.task_id = plan.task_id;
  resp.worker = id_;
  resp.node_stats = ComputeTargetStats(*target, ctx, ix->data(), ix->size());

  if (plan.ctx.extra_trees != 0) {
    Rng rng(plan.ctx.rng_seed);
    for (int32_t col : plan.columns) {
      SplitOutcome o = FindRandomSplit(*table_->column(col), col, *target,
                                       ctx, ix->data(), ix->size(), &rng);
      if (SplitBeats(o, resp.outcome)) resp.outcome = std::move(o);
    }
  } else if (plan.ctx.split_method ==
             static_cast<uint8_t>(SplitMethod::kHistogram)) {
    std::shared_ptr<const BinnedTable> binned = GetBinned(plan.ctx.max_bins);
    for (int32_t col : plan.columns) {
      const BinnedColumn* bc = binned->column(col);
      SplitOutcome o =
          bc != nullptr
              ? HistogramColumnSplit(task, plan, col, *bc, ctx, *ix)
              : FindBestSplit(*table_->column(col), col, *target, ctx,
                              ix->data(), ix->size());
      if (SplitBeats(o, resp.outcome)) resp.outcome = std::move(o);
    }
  } else {
    for (int32_t col : plan.columns) {
      SplitOutcome o = FindBestSplit(*table_->column(col), col, *target, ctx,
                                     ix->data(), ix->size());
      if (SplitBeats(o, resp.outcome)) resp.outcome = std::move(o);
    }
  }

  bool sent = link_.Send(
      ChannelKind::kTask,
      Message{id_, kMasterRank,
              static_cast<uint32_t>(MsgType::kColumnTaskResponse),
              resp.Encode(), plan.task_id});
  TS_LOG(kDebug) << "w" << id_ << ": responded task " << plan.task_id
                 << " sent=" << sent;
  // The task object stays in T_task awaiting the master's verdict.
}

void Worker::ComputeSubtreeTask(const TaskPtr& task) {
  SubtreeTaskPlan plan;
  std::shared_ptr<std::vector<uint32_t>> ix;
  std::vector<int32_t> cols;
  std::vector<ColumnPtr> data;
  {
    std::lock_guard<std::mutex> lock(task->mu);
    plan = task->splan;
    ix = task->ix;
    cols = std::move(task->gathered_cols);
    data = std::move(task->gathered_data);
  }

  const Schema& schema = table_->schema();
  std::vector<ColumnPtr> slots(schema.num_columns());
  for (size_t i = 0; i < cols.size(); ++i) slots[cols[i]] = data[i];
  // Y is replicated on every worker; gather it locally.
  slots[schema.target_index()] = table_->target()->Gather(*ix);

  DataTable gathered =
      DataTable::ForGatheredSubset(schema, std::move(slots), ix->size());

  TreeConfig config;
  config.max_depth = plan.ctx.max_depth;
  config.min_leaf = plan.ctx.min_leaf;
  config.impurity = static_cast<Impurity>(plan.ctx.impurity);
  config.extra_trees = plan.ctx.extra_trees != 0;
  config.base_depth = plan.depth;
  config.split_method = static_cast<SplitMethod>(plan.ctx.split_method);
  config.max_bins = plan.ctx.max_bins;
  std::vector<int> candidates(plan.columns.begin(), plan.columns.end());
  // Histogram mode: re-code the gathered subset against the global
  // bin boundaries so the subtree splits on exactly the bins a
  // full-table view would use.
  std::shared_ptr<const BinnedTable> bound;
  if (config.split_method == SplitMethod::kHistogram &&
      !config.extra_trees) {
    bound = BinnedTable::BindGathered(*GetBinned(config.max_bins), gathered,
                                      candidates);
  }
  std::vector<uint32_t> rows(ix->size());
  std::iota(rows.begin(), rows.end(), 0u);
  Rng rng(plan.ctx.rng_seed);
  TreeModel subtree = TrainTree(gathered, std::move(rows), candidates, config,
                                &rng, bound.get());

  SubtreeResult result;
  result.task_id = plan.task_id;
  result.worker = id_;
  BinaryWriter w;
  subtree.Serialize(&w);
  result.tree_bytes = w.Release();
  link_.Send(ChannelKind::kTask,
             Message{id_, kMasterRank,
                     static_cast<uint32_t>(MsgType::kSubtreeResult),
                     result.Encode(), plan.task_id});
  tasks_.Erase(plan.task_id);
}

}  // namespace treeserver
