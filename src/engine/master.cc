#include "engine/master.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/logging.h"
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

Master::Master(std::shared_ptr<const DataTable> table, Transport* network,
               const EngineConfig& config)
    : table_(std::move(table)),
      network_(network),
      config_(config),
      link_(network, kMasterRank, config.ReliableConfig()),
      placement_(table_->schema(), config.num_workers, config.replication),
      load_(config.num_workers),
      alive_(config.num_workers, true),
      task_latency_us_(
          MetricsRegistry::Global().GetHistogram("master.task_latency_us")),
      bplan_depth_(
          MetricsRegistry::Global().GetHistogram("master.bplan_depth")),
      column_latency_us_(MetricsRegistry::Global().GetHistogram(
          "master.column_task_latency_us")),
      subtree_latency_us_(MetricsRegistry::Global().GetHistogram(
          "master.subtree_task_latency_us")),
      slow_tasks_(MetricsRegistry::Global().GetCounter("engine.slow_tasks")),
      sched_counter_(
          MetricsRegistry::Global().GetCounter("engine.tasks_scheduled")),
      dup_msgs_(
          MetricsRegistry::Global().GetCounter("engine.duplicate_tasks")) {}

Master::~Master() { Stop(); }

void Master::Start() {
  link_.Start();
  main_thread_ = std::thread(&Master::MainLoop, this);
  recv_thread_ = std::thread(&Master::RecvLoop, this);
  if (config_.watchdog_period_ms > 0) {
    watchdog_thread_ = std::thread(&Master::WatchdogLoop, this);
  }
}

void Master::Stop() {
  // Idempotent: the destructor calls Stop() again after a failover has
  // already stopped this master and handed the mailbox to a successor;
  // re-closing the queue here would kill the new master's channel.
  if (stopped_.exchange(true)) return;
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_cv_.notify_all();
  }
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  if (main_thread_.joinable()) main_thread_.join();
  // No more scheduling: stop retransmitting before the channel closes.
  link_.Stop();
  // θ_recv blocks on the master queue; close it so the thread drains
  // pending results and exits.
  network_->master_queue().Close();
  if (recv_thread_.joinable()) recv_thread_.join();
}

uint32_t Master::Submit(const ForestJobSpec& spec) {
  std::lock_guard<std::mutex> lock(master_mu_);
  uint32_t id = next_job_id_++;
  JobState job;
  job.spec = spec;
  job.trees.resize(spec.num_trees);
  job.completed = spec.num_trees == 0;
  jobs_.emplace(id, std::move(job));
  job_order_.push_back(id);
  return id;
}

ForestModel Master::Wait(uint32_t job_id) {
  std::unique_lock<std::mutex> lock(master_mu_);
  auto it = jobs_.find(job_id);
  TS_CHECK(it != jobs_.end()) << "unknown job " << job_id;
  job_cv_.wait(lock, [&] { return it->second.completed; });
  ForestModel model(table_->schema().task_kind(),
                    table_->schema().num_classes());
  for (TreeModel& t : it->second.trees) model.AddTree(t);
  return model;
}

void Master::SendToWorker(int worker, MsgType type, std::string payload,
                          uint64_t trace_id) {
  link_.Send(ChannelKind::kTask,
             Message{kMasterRank, worker, static_cast<uint32_t>(type),
                     std::move(payload), trace_id});
}

void Master::InsertPlan(const Plan& plan) {
  if (plan.n_rows <= config_.tau_dfs) {
    TraceInstant(TraceCat::kPlanInsert, "plan-head", plan.tree_id, "n_rows",
                 static_cast<int64_t>(plan.n_rows));
    bplan_.PushFront(plan);  // depth-first descent (stack behaviour)
  } else {
    TraceInstant(TraceCat::kPlanInsert, "plan-tail", plan.tree_id, "n_rows",
                 static_cast<int64_t>(plan.n_rows));
    bplan_.PushBack(plan);  // breadth-first expansion (queue behaviour)
  }
  bplan_depth_->Add(bplan_.size());
}

void Master::ObserveTaskCompletion(const EntryPtr& entry) {
  uint64_t sched_ns;
  uint64_t task_id;
  bool is_subtree;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    sched_ns = entry->sched_ns;
    task_id = entry->task_id;
    is_subtree = entry->is_subtree;
  }
  if (sched_ns != 0) {
    const uint64_t us = (NowNanos() - sched_ns) / 1000;
    task_latency_us_->Add(us);
    (is_subtree ? subtree_latency_us_ : column_latency_us_)->Add(us);
  }
  TraceAsyncEnd(is_subtree ? TraceCat::kSubtreeTask : TraceCat::kColumnTask,
                "task", task_id);
}

bool Master::LeafByStats(const TargetStats& stats, int depth,
                         const TaskContext& ctx) const {
  return depth >= ctx.max_depth ||
         stats.Count() <= static_cast<int64_t>(ctx.min_leaf) ||
         stats.IsPure();
}

// ---------------------------------------------------------------------
// θ_main.
// ---------------------------------------------------------------------

void Master::MainLoop() {
  while (!stop_.load()) {
    {
      std::lock_guard<std::mutex> lock(master_mu_);
      AdmitTrees();
    }
    std::optional<Plan> plan = bplan_.TryPopFront();
    if (!plan.has_value()) {
      // Nothing to assign: sleep briefly to avoid busy waiting
      // (Appendix E uses the same 100 µs probe interval).
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    SchedulePlan(*plan);
  }
}

std::string Master::Checkpoint() {
  std::lock_guard<std::mutex> lock(master_mu_);
  BinaryWriter w;
  w.Write(next_job_id_);
  w.Write(next_tree_id_);
  // Task/tree ids must stay globally unique across master epochs:
  // stale data-channel messages from the old epoch must never alias a
  // new task. Skip far ahead to also cover ids the dying master
  // allocated after this checkpoint.
  w.Write(next_task_id_.load() + 1000000);
  w.Write(static_cast<uint32_t>(job_order_.size()));
  for (uint32_t job_id : job_order_) {
    const JobState& job = jobs_.at(job_id);
    w.Write(job_id);
    job.spec.Serialize(&w);
    w.Write(static_cast<uint32_t>(job.trees.size()));
    for (const TreeModel& tree : job.trees) {
      const uint8_t done = tree.empty() ? uint8_t{0} : uint8_t{1};
      w.Write(done);
      if (done != 0) tree.Serialize(&w);
    }
  }
  w.Write(static_cast<uint32_t>(alive_.size()));
  for (bool a : alive_) w.Write(static_cast<uint8_t>(a ? 1 : 0));
  // Fencing epoch: the restoring master resumes at epoch + 1 so the
  // dead master's in-flight messages (and its acks) are fenced.
  w.Write(epoch_);
  return w.Release();
}

Status Master::Restore(const std::string& checkpoint) {
  std::lock_guard<std::mutex> lock(master_mu_);
  TS_CHECK(trees_.empty() && jobs_.empty()) << "Restore on a used master";
  BinaryReader r(checkpoint);
  TS_RETURN_IF_ERROR(r.Read(&next_job_id_));
  TS_RETURN_IF_ERROR(r.Read(&next_tree_id_));
  next_tree_id_ += 100000;  // old epoch may have advanced past this
  uint64_t next_task = 0;
  TS_RETURN_IF_ERROR(r.Read(&next_task));
  next_task_id_.store(next_task);
  uint32_t job_count;
  TS_RETURN_IF_ERROR(r.Read(&job_count));
  for (uint32_t i = 0; i < job_count; ++i) {
    uint32_t job_id;
    TS_RETURN_IF_ERROR(r.Read(&job_id));
    JobState job;
    TS_RETURN_IF_ERROR(ForestJobSpec::Deserialize(&r, &job.spec));
    uint32_t tree_count;
    TS_RETURN_IF_ERROR(r.Read(&tree_count));
    job.trees.resize(tree_count);
    for (uint32_t t = 0; t < tree_count; ++t) {
      uint8_t done = 0;
      TS_RETURN_IF_ERROR(r.Read(&done));
      if (done != 0) {
        TS_RETURN_IF_ERROR(TreeModel::Deserialize(&r, &job.trees[t]));
        ++job.done;
      }
    }
    job.completed = job.done == job.spec.num_trees;
    jobs_.emplace(job_id, std::move(job));
    job_order_.push_back(job_id);
  }
  uint32_t workers;
  TS_RETURN_IF_ERROR(r.Read(&workers));
  if (workers != alive_.size()) {
    return Status::Corruption("checkpoint worker count mismatch");
  }
  for (uint32_t wk = 0; wk < workers; ++wk) {
    uint8_t a;
    TS_RETURN_IF_ERROR(r.Read(&a));
    if (a == 0) {
      alive_[wk] = false;
      placement_.RemoveWorker(static_cast<int>(wk));
    }
  }
  uint32_t epoch = 0;
  TS_RETURN_IF_ERROR(r.Read(&epoch));
  epoch_ = epoch + 1;
  link_.SetGeneration(epoch_);
  return Status::OK();
}

void Master::AdmitTrees() {
  // Requires master_mu_. Jobs are served in submission order; a later
  // job's trees begin while an earlier job's last trees are still in
  // flight, mixing CPU-bound and IO-bound tasks (Section III).
  for (uint32_t job_id : job_order_) {
    JobState& job = jobs_[job_id];
    bool deps_ready = true;
    for (uint32_t dep : job.spec.depends_on) {
      auto it = jobs_.find(dep);
      deps_ready = deps_ready && it != jobs_.end() && it->second.completed;
    }
    if (!deps_ready) continue;
    while (job.admitted < job.spec.num_trees &&
           active_trees_ < config_.npool) {
      // Trees restored from a master checkpoint are already done.
      if (!job.trees[job.admitted].empty()) {
        ++job.admitted;
        continue;
      }
      uint32_t tree_id = next_tree_id_++;
      TreeState ts;
      ts.tree_id = tree_id;
      ts.job_id = job_id;
      ts.tree_index = job.admitted++;
      ts.candidates = job.spec.SampleColumns(table_->schema(), ts.tree_index);
      ts.ctx.impurity = static_cast<uint8_t>(job.spec.tree.impurity);
      ts.ctx.max_depth = job.spec.tree.max_depth;
      ts.ctx.min_leaf = job.spec.tree.min_leaf;
      ts.ctx.extra_trees = job.spec.tree.extra_trees ? 1 : 0;
      ts.ctx.split_method = static_cast<uint8_t>(job.spec.tree.split_method);
      ts.ctx.max_bins = static_cast<uint16_t>(
          std::max(2, std::min(65535, job.spec.tree.max_bins)));
      ts.rng = job.spec.TreeRng(ts.tree_index);
      ts.model = TreeModel(table_->schema().task_kind(),
                           table_->schema().num_classes());
      ts.model.AddNode(TreeModel::Node{});  // root placeholder
      ts.pending = 1;
      ++active_trees_;

      Plan root;
      root.tree_id = tree_id;
      root.node_id = 0;
      root.depth = 0;
      root.n_rows = table_->num_rows();
      trees_.emplace(tree_id, std::move(ts));
      InsertPlan(root);
    }
    if (active_trees_ >= config_.npool) break;
  }
}

void Master::SchedulePlan(const Plan& plan) {
  TaskContext ctx;
  std::vector<int> candidates;
  std::vector<bool> alive_snapshot;
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    auto it = trees_.find(plan.tree_id);
    if (it == trees_.end()) return;  // tree revoked meanwhile
    TreeState& ts = it->second;
    ctx = ts.ctx;
    ctx.rng_seed = ts.rng.Next();
    candidates = ts.candidates;
    alive_snapshot = alive_;
  }

  const uint64_t task_id = next_task_id_.fetch_add(1);
  TraceSpan assign_span(TraceCat::kWorkerAssign, "schedule", task_id);
  assign_span.SetArg("n_rows", static_cast<int64_t>(plan.n_rows));
  auto entry = std::make_shared<Entry>();
  entry->task_id = task_id;
  entry->sched_ns = NowNanos();
  entry->tree_id = plan.tree_id;
  entry->node_id = plan.node_id;
  entry->depth = plan.depth;
  entry->n_rows = plan.n_rows;
  entry->parent_worker = plan.parent_worker;
  entry->parent_task = plan.parent_task;
  entry->side = plan.side;
  entry->et_retries = plan.et_retries;

  const bool is_subtree = plan.n_rows <= config_.tau_d;
  TS_LOG(kDebug) << "master: schedule task " << task_id << " tree "
                 << plan.tree_id << " node " << plan.node_id << " n="
                 << plan.n_rows << (is_subtree ? " subtree" : " column")
                 << " parent_w=" << plan.parent_worker;
  if (is_subtree) {
    LoadMatrix::SubtreeAssignment assign = load_.AssignSubtreeTask(
        placement_, candidates, plan.n_rows, plan.parent_worker,
        alive_snapshot);
    entry->is_subtree = true;
    entry->key_worker = assign.key_worker;
    entry->pending = 1;
    entry->delta = assign.delta;
    std::set<int> involved(assign.servers.begin(), assign.servers.end());
    involved.insert(assign.key_worker);
    entry->workers.assign(involved.begin(), involved.end());
    TS_CHECK(ttask_.Insert(task_id, entry));
    TraceAsyncBegin(TraceCat::kSubtreeTask, "task", task_id, "n_rows",
                    static_cast<int64_t>(plan.n_rows));

    SubtreeTaskPlan msg;
    msg.task_id = task_id;
    msg.tree_id = plan.tree_id;
    msg.node_id = plan.node_id;
    msg.depth = plan.depth;
    msg.n_rows = plan.n_rows;
    msg.parent_worker = plan.parent_worker;
    msg.parent_task = plan.parent_task;
    msg.side = plan.side;
    msg.columns = assign.columns;
    msg.column_servers = assign.servers;
    msg.ctx = ctx;
    SendToWorker(assign.key_worker, MsgType::kSubtreeTaskPlan, msg.Encode(),
                 task_id);
  } else {
    std::vector<int> task_columns = candidates;
    if (ctx.extra_trees != 0) {
      // Completely-random node: sample one column (|C| = 1); the
      // worker draws the random split point from the same seed.
      Rng pick(ctx.rng_seed ^ 0xC0FFEE123456789ULL);
      task_columns = {candidates[pick.Uniform(candidates.size())]};
    }
    LoadMatrix::ColumnAssignment assign = load_.AssignColumnTask(
        placement_, task_columns, plan.n_rows, plan.parent_worker,
        alive_snapshot);
    entry->pending = static_cast<int>(assign.worker_columns.size());
    entry->delta = assign.delta;
    for (const auto& [w, cols] : assign.worker_columns) {
      entry->workers.push_back(w);
    }
    TS_CHECK(ttask_.Insert(task_id, entry));
    TraceAsyncBegin(TraceCat::kColumnTask, "task", task_id, "n_rows",
                    static_cast<int64_t>(plan.n_rows));

    for (const auto& [w, cols] : assign.worker_columns) {
      ColumnTaskPlan msg;
      msg.task_id = task_id;
      msg.tree_id = plan.tree_id;
      msg.node_id = plan.node_id;
      msg.depth = plan.depth;
      msg.n_rows = plan.n_rows;
      msg.parent_worker = plan.parent_worker;
      msg.parent_task = plan.parent_task;
      msg.side = plan.side;
      msg.columns = cols;
      msg.ctx = ctx;
      SendToWorker(w, MsgType::kColumnTaskPlan, msg.Encode(), task_id);
    }
  }
  tasks_scheduled_.Inc();
  sched_counter_->Inc();

  // Crash window: if a worker we just involved died between the alive_
  // snapshot and now, its plan messages were dropped and no response
  // will ever arrive. Re-plan immediately.
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    bool dead = false;
    for (int w : entry->workers) {
      if (!alive_[w]) dead = true;
    }
    if (plan.parent_worker >= 0 && !alive_[plan.parent_worker]) dead = true;
    if (dead) {
      if (ttask_.Erase(task_id)) {
        load_.Apply(entry->delta, -1.0);
        for (int w : entry->workers) {
          if (alive_[w]) {
            SendToWorker(w, MsgType::kTaskDelete,
                         TaskIdOnly{task_id}.Encode());
          }
        }
        bplan_.PushFront(plan);
      }
    }
  }
}

// ---------------------------------------------------------------------
// θ_recv.
// ---------------------------------------------------------------------

void Master::RecvLoop() {
  while (auto msg = network_->master_queue().Pop()) {
    if (!link_.OnReceive(&*msg, ChannelKind::kTask)) continue;
    switch (static_cast<MsgType>(msg->type)) {
      case MsgType::kColumnTaskResponse:
        HandleColumnResponse(msg->payload);
        break;
      case MsgType::kSubtreeResult:
        HandleSubtreeResult(msg->payload);
        break;
      case MsgType::kWorkerCrashed: {
        BinaryReader r(msg->payload);
        int32_t w = 0;
        if (r.Read(&w).ok() && w >= 0 && w < config_.num_workers) {
          HandleWorkerCrash(w);
        } else {
          TS_LOG(kError) << "master: bad crash notice";
        }
        break;
      }
      case MsgType::kTraceSnapshot:
        HandleTraceSnapshot(msg->payload);
        break;
      default:
        TS_LOG(kError) << "master: unexpected msg type " << msg->type;
    }
  }
}

void Master::HandleColumnResponse(const std::string& payload) {
  ColumnTaskResponse resp;
  if (Status st = ColumnTaskResponse::Decode(payload, &resp); !st.ok()) {
    TS_LOG(kError) << "master: bad column response: " << st.ToString();
    return;
  }
  EntryPtr entry;
  ttask_.Visit(resp.task_id, [&](EntryPtr& e) { entry = e; });
  if (entry == nullptr) return;  // revoked

  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->completed) return;  // stale duplicate
    if (!entry->responded.insert(resp.worker).second) {
      // Replayed response from a worker already counted: folding it in
      // again would double-decrement `pending` and complete the node
      // with partial results.
      dup_msgs_->Inc();
      TS_LOG(kWarn) << "master: dropped duplicate response for task "
                    << resp.task_id << " from w" << resp.worker;
      return;
    }
    if (!entry->have_stats) {
      entry->node_stats = resp.node_stats;
      entry->have_stats = true;
    }
    if (SplitBeats(resp.outcome, entry->best)) {
      entry->best = std::move(resp.outcome);
      entry->best_worker = resp.worker;
    }
    complete = --entry->pending == 0;
    TS_LOG(kDebug) << "master: response task " << resp.task_id << " from w"
                   << resp.worker << " pending=" << entry->pending;
  }
  if (complete) ProcessNodeCompletion(entry);
}

void Master::ProcessNodeCompletion(const EntryPtr& entry) {
  ObserveTaskCompletion(entry);
  // Snapshot the entry (θ_recv is the only mutator at this point).
  uint64_t task_id;
  uint32_t tree_id;
  int32_t node_id;
  int depth;
  uint64_t n_rows;
  std::vector<int> workers;
  SplitOutcome best;
  int best_worker;
  TargetStats stats;
  int et_retries;
  uint64_t parent_task;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    task_id = entry->task_id;
    tree_id = entry->tree_id;
    node_id = entry->node_id;
    depth = entry->depth;
    n_rows = entry->n_rows;
    workers = entry->workers;
    best = entry->best;
    best_worker = entry->best_worker;
    stats = entry->node_stats;
    et_retries = entry->et_retries;
    parent_task = entry->parent_task;
  }

  enum class Action { kDrop, kLeaf, kRetry, kSplit };
  Action action = Action::kDrop;
  int leaf_children = 0;
  TaskContext ctx;
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    auto it = trees_.find(tree_id);
    if (it != trees_.end()) {
      TreeState& ts = it->second;
      ctx = ts.ctx;
      bool no_split =
          !best.valid ||
          (ctx.extra_trees == 0 && best.gain <= kMinSplitGain);
      bool leaf = depth >= ctx.max_depth ||
                  n_rows <= static_cast<uint64_t>(ctx.min_leaf) ||
                  stats.IsPure() || no_split;
      if (leaf && ctx.extra_trees != 0 && !best.valid &&
          !(depth >= ctx.max_depth ||
            n_rows <= static_cast<uint64_t>(ctx.min_leaf) ||
            stats.IsPure()) &&
          et_retries + 1 < 2 * static_cast<int>(ts.candidates.size())) {
        // Completely-random tree hit a constant column: resample
        // another column and try again.
        action = Action::kRetry;
      } else if (leaf) {
        action = Action::kLeaf;
        FinalizeLeaf(&ts, node_id, depth, stats);
        TaskFinished(tree_id);
      } else {
        action = Action::kSplit;
        TreeModel::Node& node = ts.model.mutable_node(node_id);
        node.condition = best.condition;
        node.split_gain = best.gain;
        node.depth = static_cast<uint16_t>(depth);
        FillNodePrediction(stats, &node);
        // Placeholders carry their depth up front: GraftSubtree uses
        // it as the base depth when a subtree-task result hooks in.
        TreeModel::Node left_placeholder;
        left_placeholder.depth = static_cast<uint16_t>(depth + 1);
        TreeModel::Node right_placeholder;
        right_placeholder.depth = static_cast<uint16_t>(depth + 1);
        int32_t left_id = ts.model.AddNode(std::move(left_placeholder));
        int32_t right_id = ts.model.AddNode(std::move(right_placeholder));
        TreeModel::Node& parent = ts.model.mutable_node(node_id);
        parent.left = left_id;
        parent.right = right_id;

        const TargetStats* child_stats[2] = {&best.left_stats,
                                             &best.right_stats};
        int32_t child_ids[2] = {left_id, right_id};
        for (int side = 0; side < 2; ++side) {
          if (LeafByStats(*child_stats[side], depth + 1, ctx)) {
            FinalizeLeaf(&ts, child_ids[side], depth + 1,
                         *child_stats[side]);
            ++leaf_children;
          } else {
            ++ts.pending;
            Plan child;
            child.tree_id = tree_id;
            child.node_id = child_ids[side];
            child.depth = depth + 1;
            child.n_rows = static_cast<uint64_t>(child_stats[side]->Count());
            child.parent_worker = best_worker;
            child.parent_task = task_id;
            child.side = static_cast<uint8_t>(side);
            InsertPlan(child);
          }
        }
        TaskFinished(tree_id);
      }
    }
  }

  load_.Apply(entry->delta, -1.0);
  TS_LOG(kDebug) << "master: task " << task_id << " node " << node_id
                 << " action=" << static_cast<int>(action)
                 << " leaf_children=" << leaf_children;

  switch (action) {
    case Action::kDrop:
    case Action::kLeaf: {
      // No delegate duty: everyone drops the task object.
      for (int w : workers) {
        SendToWorker(w, MsgType::kTaskDelete, TaskIdOnly{task_id}.Encode());
      }
      ttask_.Erase(task_id);
      if (action == Action::kLeaf) NotifyChildDone(parent_task);
      break;
    }
    case Action::kRetry: {
      for (int w : workers) {
        SendToWorker(w, MsgType::kTaskDelete, TaskIdOnly{task_id}.Encode());
      }
      ttask_.Erase(task_id);
      Plan retry;
      retry.tree_id = tree_id;
      retry.node_id = node_id;
      retry.depth = depth;
      retry.n_rows = n_rows;
      retry.parent_worker = entry->parent_worker;
      retry.parent_task = parent_task;
      retry.side = entry->side;
      retry.et_retries = et_retries + 1;
      bplan_.PushFront(retry);
      break;
    }
    case Action::kSplit: {
      bool release_now = false;
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->completed = true;
        entry->children_done += leaf_children;
        release_now = entry->children_done >= 2;
      }
      for (int w : workers) {
        BestSplitNotify notify;
        notify.task_id = task_id;
        notify.is_delegate = (w == best_worker) ? 1 : 0;
        notify.condition = best.condition;
        SendToWorker(w, MsgType::kBestSplitNotify, notify.Encode());
      }
      if (release_now) {
        SendToWorker(best_worker, MsgType::kParentRelease,
                     TaskIdOnly{task_id}.Encode());
        ttask_.Erase(task_id);
      }
      NotifyChildDone(parent_task);
      break;
    }
  }
}

void Master::HandleSubtreeResult(const std::string& payload) {
  SubtreeResult resp;
  if (Status st = SubtreeResult::Decode(payload, &resp); !st.ok()) {
    TS_LOG(kError) << "master: bad subtree result: " << st.ToString();
    return;
  }
  EntryPtr entry;
  ttask_.Visit(resp.task_id, [&](EntryPtr& e) { entry = e; });
  if (entry == nullptr) return;  // revoked

  TreeModel subtree;
  {
    BinaryReader r(resp.tree_bytes);
    TS_CHECK(TreeModel::Deserialize(&r, &subtree).ok());
  }

  uint64_t parent_task;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    parent_task = entry->parent_task;
  }

  TS_LOG(kDebug) << "master: subtree result task " << resp.task_id;
  ObserveTaskCompletion(entry);
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    auto it = trees_.find(entry->tree_id);
    if (it != trees_.end()) {
      TreeState& ts = it->second;
      ts.model.GraftSubtree(entry->node_id, subtree);
      TaskFinished(entry->tree_id);
    }
  }

  load_.Apply(entry->delta, -1.0);
  ttask_.Erase(resp.task_id);
  NotifyChildDone(parent_task);
}

void Master::FinalizeLeaf(TreeState* tree, int32_t node_id, int depth,
                          const TargetStats& stats) {
  TreeModel::Node& node = tree->model.mutable_node(node_id);
  node.condition = SplitCondition{};  // leaf
  node.depth = static_cast<uint16_t>(depth);
  FillNodePrediction(stats, &node);
}

void Master::TaskFinished(uint32_t tree_id) {
  auto it = trees_.find(tree_id);
  TS_CHECK(it != trees_.end());
  TreeState& ts = it->second;
  TS_LOG(kDebug) << "master: tree " << tree_id << " pending now "
                 << ts.pending - 1;
  if (--ts.pending > 0) return;

  // Last task of this tree: flush it to its job and free the pool slot
  // immediately (progress table T_prog, Appendix C).
  JobState& job = jobs_[ts.job_id];
  // Node layout follows task completion order up to here; canonicalize
  // so the serialized tree is identical across runs and transports.
  ts.model.Canonicalize();
  job.trees[ts.tree_index] = std::move(ts.model);
  ++job.done;
  trees_completed_.Inc();
  TraceInstant(TraceCat::kTreeComplete, "tree-complete", tree_id);
  --active_trees_;
  if (job.done == job.spec.num_trees) {
    job.completed = true;
    job_cv_.notify_all();
  }
  trees_.erase(it);
}

void Master::NotifyChildDone(uint64_t parent_task) {
  if (parent_task == 0) return;
  EntryPtr entry;
  ttask_.Visit(parent_task, [&](EntryPtr& e) { entry = e; });
  if (entry == nullptr) return;
  bool release = false;
  int delegate = -1;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    ++entry->children_done;
    release = entry->completed && entry->children_done >= 2;
    delegate = entry->best_worker;
  }
  if (release) {
    SendToWorker(delegate, MsgType::kParentRelease,
                 TaskIdOnly{parent_task}.Encode());
    ttask_.Erase(parent_task);
  }
}

// ---------------------------------------------------------------------
// Observability: slow-task watchdog + cross-rank trace collection.
// ---------------------------------------------------------------------

void Master::WatchdogLoop() {
  const auto period = std::chrono::milliseconds(config_.watchdog_period_ms);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, period, [&] { return stop_.load(); });
    }
    if (stop_.load()) return;

    // Thresholds from the rolling per-kind latency distributions; the
    // min_us floor covers cold histograms (p99 of nothing is 0).
    const uint64_t column_p99 = column_latency_us_->snapshot().Percentile(0.99);
    const uint64_t subtree_p99 =
        subtree_latency_us_->snapshot().Percentile(0.99);
    const double mult = config_.watchdog_multiplier;
    const uint64_t column_limit =
        std::max(static_cast<uint64_t>(mult * static_cast<double>(column_p99)),
                 config_.watchdog_min_us);
    const uint64_t subtree_limit =
        std::max(static_cast<uint64_t>(mult * static_cast<double>(subtree_p99)),
                 config_.watchdog_min_us);

    const uint64_t now = NowNanos();
    ttask_.ForEach([&](const uint64_t&, EntryPtr& e) {
      std::lock_guard<std::mutex> lock(e->mu);
      if (e->completed || e->slow_flagged || e->sched_ns == 0) return;
      const uint64_t age_us = TaskAgeUs(now, e->sched_ns);
      const uint64_t limit = e->is_subtree ? subtree_limit : column_limit;
      if (age_us <= limit) return;
      e->slow_flagged = true;  // flag once per task
      slow_tasks_->Inc();
      TraceInstant(TraceCat::kWatchdog, "slow-task", e->task_id, "age_us",
                   static_cast<int64_t>(age_us));
      std::string ranks;
      for (int w : e->workers) ranks += " w" + std::to_string(w);
      TS_LOG(kWarn) << "master: slow " << (e->is_subtree ? "subtree" : "column")
                    << "-task " << e->task_id << " tree " << e->tree_id
                    << " age=" << age_us << "us limit=" << limit << "us on"
                    << ranks;
    });
  }
}

int Master::RequestWorkerTraces() {
  std::vector<int> targets;
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    for (int w = 0; w < config_.num_workers; ++w) {
      if (alive_[w]) targets.push_back(w);
    }
  }
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    worker_traces_.clear();
    trace_expected_ = targets.size();
  }
  for (int w : targets) {
    network_->Send(ChannelKind::kTrace,
                   Message{kMasterRank, w,
                           static_cast<uint32_t>(MsgType::kTraceRequest), ""});
  }
  return static_cast<int>(targets.size());
}

bool Master::WaitForWorkerTraces(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(trace_mu_);
  return trace_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return worker_traces_.size() >= trace_expected_;
  });
}

std::vector<TraceSnapshotMsg> Master::TakeWorkerTraces() {
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_expected_ = 0;
  return std::move(worker_traces_);
}

void Master::HandleTraceSnapshot(const std::string& payload) {
  TraceSnapshotMsg snap;
  if (Status st = TraceSnapshotMsg::Decode(payload, &snap); !st.ok()) {
    TS_LOG(kError) << "master: bad trace snapshot: " << st.ToString();
    return;
  }
  TS_LOG(kDebug) << "master: trace snapshot from w" << snap.worker << " ("
                 << snap.events.size() << " events, " << snap.dropped
                 << " dropped)";
  std::lock_guard<std::mutex> lock(trace_mu_);
  worker_traces_.push_back(std::move(snap));
  trace_cv_.notify_all();
}

MasterStats Master::GetStats() const {
  MasterStats stats;
  stats.bplan_depth = bplan_.size();
  stats.tasks_in_flight = ttask_.size();
  ttask_.ForEach([&](const uint64_t&, const EntryPtr& e) {
    // Peeking at kind/completion without e->mu: both are set before the
    // entry is published to T_task and only flip once; stats tolerate
    // the benign race.
    if (e->is_subtree) {
      ++stats.subtree_tasks_in_flight;
    } else if (!e->completed) {
      ++stats.column_tasks_in_flight;
    }
  });
  stats.npool = config_.npool;
  stats.tasks_scheduled = tasks_scheduled_.value();
  stats.trees_completed = trees_completed_.value();
  stats.trees_restarted = trees_restarted_.value();
  stats.slow_tasks = slow_tasks_->value();
  MetricsRegistry& reg = MetricsRegistry::Global();
  stats.retransmits = reg.GetCounter("engine.retransmits")->value();
  stats.duplicate_msgs = reg.GetCounter("engine.duplicate_msgs")->value() +
                         reg.GetCounter("engine.duplicate_tasks")->value();
  stats.fenced_msgs = reg.GetCounter("engine.fenced_msgs")->value();
  stats.corrupt_msgs = reg.GetCounter("engine.corrupt_msgs")->value();
  stats.predicted_load.resize(config_.num_workers);
  for (int w = 0; w < config_.num_workers; ++w) {
    std::array<double, 3> l = load_.Get(w);
    stats.predicted_load[w] = {l[0], l[1], l[2]};
  }
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    stats.active_trees = active_trees_;
    stats.jobs_total = jobs_.size();
    for (const auto& [id, job] : jobs_) {
      if (job.completed) ++stats.jobs_completed;
    }
  }
  return stats;
}

// ---------------------------------------------------------------------
// Fault tolerance.
// ---------------------------------------------------------------------

void Master::OnWorkerCrash(int worker) {
  BinaryWriter w;
  w.Write<int32_t>(worker);
  network_->Send(ChannelKind::kTask,
                 Message{kMasterRank, kMasterRank,
                         static_cast<uint32_t>(MsgType::kWorkerCrashed),
                         w.Release()});
}

void Master::HandleWorkerCrash(int worker) {
  TS_LOG(kInfo) << "master: worker " << worker << " crashed";
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    if (!alive_[worker]) return;  // duplicate notice
    alive_[worker] = false;
  }
  // Stop retransmitting to the dead rank; its tasks are re-planned.
  link_.DropPeer(worker);
  load_.ClearWorker(worker);

  // Reassign the lost columns: every column the crashed worker held
  // still has k-1 replicas; re-replicate each onto the live worker
  // with the fewest holdings.
  std::vector<int> lost = placement_.RemoveWorker(worker);
  {
    std::lock_guard<std::mutex> lock(master_mu_);
    std::vector<int> held(config_.num_workers, 0);
    for (int col = 0; col < table_->num_columns(); ++col) {
      if (col == table_->schema().target_index()) continue;
      for (int h : placement_.holders(col)) ++held[h];
    }
    for (int col : lost) {
      int best = -1;
      for (int cand = 0; cand < config_.num_workers; ++cand) {
        if (!alive_[cand]) continue;
        bool already = false;
        for (int h : placement_.holders(col)) already |= (h == cand);
        if (already) continue;
        if (best < 0 || held[cand] < held[best]) best = cand;
      }
      if (best >= 0) {
        placement_.AddHolder(col, best);
        ++held[best];
      }
    }
  }

  // Classify in-flight tasks: tasks whose I_x source (parent worker or
  // completed delegate) died force a tree restart; tasks that merely
  // ran on the dead worker are revoked and re-planned (Section IV,
  // Fault Tolerance).
  std::set<uint32_t> restart_trees;
  std::vector<Plan> replans;
  std::vector<uint64_t> revoke_ids;
  ttask_.ForEach([&](const uint64_t& id, EntryPtr& e) {
    std::lock_guard<std::mutex> lock(e->mu);
    bool involves = false;
    for (int wk : e->workers) involves |= (wk == worker);
    if (e->parent_worker == worker ||
        (e->completed && e->best_worker == worker)) {
      restart_trees.insert(e->tree_id);
    } else if (!e->completed && (involves || e->key_worker == worker)) {
      Plan p;
      p.tree_id = e->tree_id;
      p.node_id = e->node_id;
      p.depth = e->depth;
      p.n_rows = e->n_rows;
      p.parent_worker = e->parent_worker;
      p.parent_task = e->parent_task;
      p.side = e->side;
      p.et_retries = e->et_retries;
      replans.push_back(p);
      revoke_ids.push_back(id);
    }
  });

  // Plans still queued whose parent worker died also break the I_x
  // chain.
  bplan_.RemoveIf([&](const Plan& p) {
    if (p.parent_worker == worker) {
      restart_trees.insert(p.tree_id);
      return true;
    }
    return false;
  });

  // Revoke & re-plan the recoverable tasks (skipping restarted trees —
  // those are wiped wholesale below).
  for (size_t i = 0; i < revoke_ids.size(); ++i) {
    if (restart_trees.count(replans[i].tree_id) > 0) continue;
    EntryPtr entry;
    ttask_.Visit(revoke_ids[i], [&](EntryPtr& e) { entry = e; });
    if (entry == nullptr) continue;
    ttask_.Erase(revoke_ids[i]);
    load_.Apply(entry->delta, -1.0);
    for (int wk : entry->workers) {
      if (wk != worker) {
        SendToWorker(wk, MsgType::kTaskDelete,
                     TaskIdOnly{revoke_ids[i]}.Encode());
      }
    }
    bplan_.PushFront(replans[i]);
  }

  // Restart broken trees from their roots.
  for (uint32_t tree_id : restart_trees) {
    bplan_.RemoveIf([&](const Plan& p) { return p.tree_id == tree_id; });
    std::vector<uint64_t> ids = ttask_.KeysWhere(
        [&](const uint64_t&, const EntryPtr& e) {
          return e->tree_id == tree_id;
        });
    for (uint64_t id : ids) {
      EntryPtr entry;
      ttask_.Visit(id, [&](EntryPtr& e) { entry = e; });
      if (entry != nullptr) load_.Apply(entry->delta, -1.0);
      ttask_.Erase(id);
    }
    for (int wk = 0; wk < config_.num_workers; ++wk) {
      bool live;
      {
        std::lock_guard<std::mutex> lock(master_mu_);
        live = alive_[wk];
      }
      if (live) {
        SendToWorker(wk, MsgType::kTreeRevoke, TreeIdOnly{tree_id}.Encode());
      }
    }
    std::lock_guard<std::mutex> lock(master_mu_);
    auto it = trees_.find(tree_id);
    if (it == trees_.end()) continue;
    TreeState& ts = it->second;
    ts.model = TreeModel(table_->schema().task_kind(),
                         table_->schema().num_classes());
    ts.model.AddNode(TreeModel::Node{});
    ts.pending = 1;
    Plan root;
    root.tree_id = tree_id;
    root.node_id = 0;
    root.depth = 0;
    root.n_rows = table_->num_rows();
    InsertPlan(root);
    trees_restarted_.Inc();
  }
}

}  // namespace treeserver
