#ifndef TREESERVER_ENGINE_MASTER_H_
#define TREESERVER_ENGINE_MASTER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "concurrent/concurrent_hash_map.h"
#include "concurrent/plan_deque.h"
#include "engine/cost_model.h"
#include "engine/messages.h"
#include "engine/reliable.h"
#include "forest/forest.h"
#include "rpc/transport.h"
#include "table/data_table.h"

namespace treeserver {

/// Engine tuning knobs (Section III defaults).
struct EngineConfig {
  int num_workers = 4;
  int compers_per_worker = 4;
  /// k column replicas (k = 2 default: load balancing + fault
  /// tolerance).
  int replication = 2;
  /// τ_D: |D_x| at or below this becomes one subtree-task.
  uint64_t tau_d = 10000;
  /// τ_dfs: |D_x| at or below this switches to depth-first scheduling.
  uint64_t tau_dfs = 80000;
  /// Maximum trees under construction at any time.
  int npool = 200;
  /// Simulated per-endpoint link speed; 0 = unthrottled.
  double bandwidth_mbps = 0.0;
  /// Compress data-channel transfers (delta+varint row ids, bit-packed
  /// categorical values) — the compression extension the paper defers
  /// to future work. Off by default to match the paper's system.
  bool compress_transfers = false;
  /// Period of the engine stats reporter thread in milliseconds; 0
  /// (the default) disables the reporter. When enabled, an EngineStats
  /// snapshot is dumped to stderr every period and at job completion.
  int stats_period_ms = 0;
  /// Slow-task watchdog cadence; every period the master scans T_task
  /// and flags in-flight tasks older than
  /// max(watchdog_multiplier × rolling p99 of their kind,
  /// watchdog_min_us). 0 disables the watchdog thread.
  int watchdog_period_ms = 500;
  double watchdog_multiplier = 8.0;
  /// Floor under the watchdog threshold. Task age runs schedule ->
  /// completion, so it includes worker queue wait; the floor must sit
  /// above normal cold-start queueing (empty latency histograms make
  /// the p99 term useless early on) or healthy runs get flagged.
  uint64_t watchdog_min_us = 2000000;
  /// Test hooks: worker `debug_slow_worker` sleeps `debug_slow_task_ms`
  /// before computing each task, making it a deterministic straggler
  /// for the watchdog tests. -1 / 0 (defaults) disable the delay.
  int debug_slow_worker = -1;
  int debug_slow_task_ms = 0;
  uint64_t seed = 42;
  /// Reliable-delivery layer: first retransmit deadline for an
  /// unacked engine message, the exponential-backoff cap, and how many
  /// retransmits to attempt before giving a message up for dead.
  int ack_timeout_ms = 200;
  int ack_backoff_max_ms = 2000;
  int max_retransmits = 20;

  ReliableOptions ReliableConfig(uint32_t generation = 0) const {
    return ReliableOptions{ack_timeout_ms, ack_backoff_max_ms,
                           max_retransmits, generation};
  }
};

/// Point-in-time master-side statistics (part of EngineStats).
struct MasterStats {
  /// Plans queued in B_plan, waiting for worker assignment.
  size_t bplan_depth = 0;
  /// T_task entries, including completed delegates still serving I_x.
  size_t tasks_in_flight = 0;
  uint64_t column_tasks_in_flight = 0;
  uint64_t subtree_tasks_in_flight = 0;
  /// Tree-pool occupancy (trees under construction) vs its bound.
  int active_trees = 0;
  int npool = 0;
  size_t jobs_total = 0;
  size_t jobs_completed = 0;
  uint64_t tasks_scheduled = 0;
  uint64_t trees_completed = 0;
  uint64_t trees_restarted = 0;
  /// In-flight tasks the watchdog has flagged as stragglers.
  uint64_t slow_tasks = 0;
  /// Reliable-delivery health (process-wide registry counters):
  /// retransmitted engine messages, duplicates suppressed at the
  /// receive seams, stale-generation messages fenced, and CRC-failed
  /// reliable frames dropped.
  uint64_t retransmits = 0;
  uint64_t duplicate_msgs = 0;
  uint64_t fenced_msgs = 0;
  uint64_t corrupt_msgs = 0;
  /// Predicted per-worker load units from M_work (Section VI), to be
  /// compared against the actual per-worker bytes / busy-time.
  struct WorkerLoad {
    double comp = 0.0;
    double send = 0.0;
    double recv = 0.0;
  };
  std::vector<WorkerLoad> predicted_load;
};

/// Age in microseconds of a task scheduled at `sched_ns`, as seen at
/// `now_ns`, saturating at zero: the watchdog reads its clock before
/// scanning T_task, so a task scheduled during the scan is younger
/// than the clock reading, and an unsigned difference would wrap.
inline uint64_t TaskAgeUs(uint64_t now_ns, uint64_t sched_ns) {
  return now_ns > sched_ns ? (now_ns - sched_ns) / 1000 : 0;
}

/// The TreeServer master (Fig. 5 / Fig. 14(a)).
///
/// Owns the plan buffer B_plan (hybrid BFS/DFS deque), the task table
/// T_task, the load matrix M_work, the tree pool (n_pool), and the
/// progress table. Runs θ_main (plan fetch + worker assignment) and
/// θ_recv (task results -> split decisions -> child plans / tree
/// assembly). The master never touches row data: it sees only split
/// conditions and statistics.
class Master {
 public:
  Master(std::shared_ptr<const DataTable> table, Transport* network,
         const EngineConfig& config);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  void Start();
  /// Requests loop exit and joins threads (queues closed by caller).
  void Stop();

  /// Enqueues a training job; trees begin construction as pool slots
  /// free up. Thread-safe.
  uint32_t Submit(const ForestJobSpec& spec);

  /// Blocks until the job completes and returns its forest.
  ForestModel Wait(uint32_t job_id);

  /// Fault tolerance: worker `w` is gone. Revokes and re-plans its
  /// in-flight tasks; trees whose parent-side row index I_x was lost
  /// restart from their root. Thread-safe.
  void OnWorkerCrash(int worker);

  /// Serializes the state the paper's secondary master keeps in sync
  /// (Appendix E): job specs, completed trees, worker liveness. Safe
  /// to call while training runs; in-flight trees are simply not in
  /// the snapshot and restart after a Restore.
  std::string Checkpoint();

  /// Loads a checkpoint into a fresh (not yet Start()ed) master: done
  /// trees are kept, unfinished ones will be re-admitted and retrained
  /// from scratch. Deterministic sampling makes the retrained trees
  /// identical to what the failed master would have produced.
  /// Bumps the fencing epoch past the checkpointed one, so messages
  /// from the previous master's generation are fenced at every
  /// receiver.
  Status Restore(const std::string& checkpoint);

  /// The fencing epoch this master stamps on outgoing messages
  /// (0 for a fresh master; checkpointed + 1 after Restore).
  uint32_t epoch() const { return epoch_; }

  /// Diagnostics.
  uint64_t tasks_scheduled() const { return tasks_scheduled_.value(); }
  uint64_t trees_completed() const { return trees_completed_.value(); }
  uint64_t trees_restarted() const { return trees_restarted_.value(); }
  const LoadMatrix& load_matrix() const { return load_; }
  const ColumnPlacement& placement() const { return placement_; }

  /// Snapshot of scheduler state (B_plan depth, tasks in flight by
  /// kind, tree-pool occupancy, predicted M_work load). Thread-safe;
  /// values are individually coherent, not a linearizable cut.
  MasterStats GetStats() const;

  /// Cross-rank trace aggregation: asks every live worker for a
  /// tracer snapshot (kTraceRequest on the low-priority trace
  /// channel). Returns the number of requests sent. Thread-safe, but
  /// only one collection may be in flight at a time.
  int RequestWorkerTraces();
  /// Blocks until every requested snapshot arrived (or timeout).
  bool WaitForWorkerTraces(int64_t timeout_ms);
  /// Hands over the snapshots collected so far and resets the
  /// collection state.
  std::vector<TraceSnapshotMsg> TakeWorkerTraces();

 private:
  /// A node-task not yet assigned to workers.
  struct Plan {
    uint32_t tree_id = 0;
    int32_t node_id = 0;
    int32_t depth = 0;
    uint64_t n_rows = 0;
    int32_t parent_worker = -1;
    uint64_t parent_task = 0;
    uint8_t side = 0;
    int et_retries = 0;  // extra-trees column resamples so far
  };

  /// T_task entry: a task in flight, or completed but still tracked as
  /// the delegate for its children's I_x (Section V).
  struct Entry {
    std::mutex mu;
    uint64_t task_id = 0;
    uint32_t tree_id = 0;
    int32_t node_id = 0;
    int32_t depth = 0;
    uint64_t n_rows = 0;
    bool is_subtree = false;
    int32_t parent_worker = -1;
    uint64_t parent_task = 0;
    uint8_t side = 0;
    int et_retries = 0;
    uint64_t sched_ns = 0;  // steady clock at SchedulePlan, for latency
    bool slow_flagged = false;  // watchdog already reported this task
    std::vector<int> workers;
    int key_worker = -1;
    int pending = 0;
    /// Workers whose column response was already folded in — a
    /// replayed response must not decrement `pending` twice.
    std::set<int> responded;
    SplitOutcome best;
    int best_worker = -1;
    TargetStats node_stats;
    bool have_stats = false;
    LoadDelta delta;
    // Delegate bookkeeping after completion.
    bool completed = false;
    int children_done = 0;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// A tree under construction.
  struct TreeState {
    uint32_t tree_id = 0;
    uint32_t job_id = 0;
    int tree_index = 0;
    TreeModel model;
    std::vector<int> candidates;
    TaskContext ctx;
    int pending = 0;  // unfinished node constructions (T_prog)
    Rng rng;          // extra-trees per-task seeds
  };

  struct JobState {
    ForestJobSpec spec;
    std::vector<TreeModel> trees;
    int admitted = 0;
    int done = 0;
    bool completed = false;
  };

  void MainLoop();
  void RecvLoop();
  void WatchdogLoop();
  void HandleTraceSnapshot(const std::string& payload);

  // θ_main helpers (master_mu_ NOT held unless stated).
  void AdmitTrees();  // requires master_mu_
  void SchedulePlan(const Plan& plan);

  // θ_recv helpers.
  void HandleColumnResponse(const std::string& payload);
  void HandleSubtreeResult(const std::string& payload);
  void HandleWorkerCrash(int worker);
  void ProcessNodeCompletion(const EntryPtr& entry);
  /// Finalizes a node as a leaf in the tree model. Requires master_mu_.
  void FinalizeLeaf(TreeState* tree, int32_t node_id, int depth,
                    const TargetStats& stats);
  /// Decrements the tree's pending count; flushes the tree when done.
  /// Requires master_mu_.
  void TaskFinished(uint32_t tree_id);
  /// Requires master_mu_ NOT held.
  void NotifyChildDone(uint64_t parent_task);
  void SendToWorker(int worker, MsgType type, std::string payload,
                    uint64_t trace_id = 0);
  void InsertPlan(const Plan& plan);  // B_plan head/tail by τ_dfs
  /// Records a completed task's schedule→completion latency and emits
  /// the trace async-end of its lifecycle.
  void ObserveTaskCompletion(const EntryPtr& entry);

  bool LeafByStats(const TargetStats& stats, int depth,
                   const TaskContext& ctx) const;

  const std::shared_ptr<const DataTable> table_;
  Transport* const network_;
  const EngineConfig config_;
  /// Ack/retransmit + dedup/fencing layer over network_; every
  /// reliable-type send and the θ_recv loop route through it.
  ReliableLink link_;
  /// Fencing epoch (generation) stamped into reliable sends.
  uint32_t epoch_ = 0;

  ColumnPlacement placement_;
  LoadMatrix load_;
  std::vector<bool> alive_;

  PlanDeque<Plan> bplan_;
  ConcurrentHashMap<uint64_t, EntryPtr> ttask_;
  std::atomic<uint64_t> next_task_id_{1};

  // Tree/job state, guarded by master_mu_.
  mutable std::mutex master_mu_;
  std::condition_variable job_cv_;
  std::map<uint32_t, TreeState> trees_;
  std::map<uint32_t, JobState> jobs_;
  std::deque<uint32_t> job_order_;
  uint32_t next_tree_id_ = 1;
  uint32_t next_job_id_ = 1;
  int active_trees_ = 0;

  Counter tasks_scheduled_;
  Counter trees_completed_;
  Counter trees_restarted_;

  // Shared-registry metrics (process-wide, survive the master).
  Histogram* const task_latency_us_;   // schedule -> completion
  Histogram* const bplan_depth_;       // sampled at every insert
  // Per-kind latency histograms: the watchdog compares each in-flight
  // task's age against its own kind's rolling p99.
  Histogram* const column_latency_us_;
  Histogram* const subtree_latency_us_;
  Counter* const slow_tasks_;          // "engine.slow_tasks"
  Counter* const sched_counter_;       // "engine.tasks_scheduled"
  Counter* const dup_msgs_;            // "engine.duplicate_tasks"

  // Trace collection (guarded by trace_mu_).
  std::mutex trace_mu_;
  std::condition_variable trace_cv_;
  std::vector<TraceSnapshotMsg> worker_traces_;
  size_t trace_expected_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};  // Stop() runs once
  std::thread main_thread_;
  std::thread recv_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_thread_;
};

}  // namespace treeserver

#endif  // TREESERVER_ENGINE_MASTER_H_
