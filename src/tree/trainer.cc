#include "tree/trainer.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "table/binned.h"
#include "tree/hist.h"

namespace treeserver {

void FillNodePrediction(const TargetStats& stats, TreeModel::Node* node) {
  node->n_rows = static_cast<uint32_t>(stats.Count());
  if (stats.kind == TaskKind::kClassification) {
    node->pmf = stats.cls.Pmf();
    node->label = stats.cls.Majority();
  } else {
    node->value = stats.reg.Mean();
  }
}

bool SplitBeats(const SplitOutcome& candidate, const SplitOutcome& incumbent) {
  if (!candidate.valid) return false;
  if (!incumbent.valid) return true;
  if (candidate.gain != incumbent.gain) {
    return candidate.gain > incumbent.gain;
  }
  return candidate.condition.column < incumbent.condition.column;
}

namespace {

struct Frame {
  int32_t node_id;
  size_t begin;
  size_t end;
  int depth;  // local depth within this (sub)tree
  // Histogram mode: this node's per-candidate-column histograms,
  // derived from the parent by sibling subtraction. Null means "build
  // from rows when (and if) the node is split".
  std::shared_ptr<NodeHists> hists;
};

// Builds the per-column histograms of one node in a single O(n) pass
// per binned column; unbinned (categorical) entries stay empty.
std::shared_ptr<NodeHists> BuildNodeHists(const BinnedTable& binned,
                                          const Column& target,
                                          const std::vector<int>& candidates,
                                          const SplitContext& ctx,
                                          const uint32_t* rows, size_t n) {
  auto hists = std::make_shared<NodeHists>(candidates.size());
  std::vector<const BinnedColumn*> cols(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    cols[i] = binned.column(candidates[i]);  // nullptr → entry stays empty
  }
  NodeHistogram::BuildMany(cols.data(), cols.size(), target, ctx, rows, n,
                           hists->data());
  return hists;
}

SplitOutcome FindNodeSplit(const DataTable& table, const uint32_t* rows,
                           size_t n, const std::vector<int>& candidates,
                           const SplitContext& ctx, const TreeConfig& config,
                           Rng* rng, const BinnedTable* binned,
                           const NodeHists* hists) {
  const ColumnPtr& target = table.target();
  SplitOutcome best;
  if (config.extra_trees) {
    // Completely-random tree: resample one column (|C| = 1) per node;
    // if its random split is degenerate (constant column), try other
    // columns in random order before giving up.
    TS_CHECK(rng != nullptr) << "extra_trees requires an rng";
    std::vector<int> order = candidates;
    rng->Shuffle(&order);
    for (int col : order) {
      SplitOutcome outcome = FindRandomSplit(*table.column(col), col, *target,
                                             ctx, rows, n, rng);
      if (outcome.valid) return outcome;
    }
    return best;
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    const int col = candidates[i];
    const BinnedColumn* bc = binned ? binned->column(col) : nullptr;
    SplitOutcome outcome;
    if (bc != nullptr && hists != nullptr && !(*hists)[i].empty()) {
      outcome = (*hists)[i].BestSplit(*bc, col, ctx);
    } else {
      outcome = FindBestSplit(*table.column(col), col, *target, ctx, rows, n);
    }
    if (SplitBeats(outcome, best)) best = std::move(outcome);
  }
  return best;
}

}  // namespace

TreeModel TrainTree(const DataTable& table, std::vector<uint32_t> rows,
                    const std::vector<int>& candidate_columns,
                    const TreeConfig& config, Rng* rng,
                    const BinnedTable* binned) {
  const Schema& schema = table.schema();
  SplitContext ctx{schema.task_kind(), config.impurity, schema.num_classes()};
  TreeModel model(ctx.kind, ctx.num_classes);
  // Histogram mode: bin the table once if the caller didn't supply a
  // pre-built view. Extra-trees has no sorted scan to replace, so it
  // always uses the random kernel.
  const bool hist_mode =
      config.split_method == SplitMethod::kHistogram && !config.extra_trees;
  std::shared_ptr<const BinnedTable> owned_binned;
  if (hist_mode && binned == nullptr) {
    owned_binned = BinnedTable::Build(table, config.max_bins);
    binned = owned_binned.get();
  }
  if (!hist_mode) binned = nullptr;
  if (rows.empty()) {
    // Degenerate but well-defined: a single empty leaf.
    TreeModel::Node leaf;
    if (ctx.kind == TaskKind::kClassification) {
      leaf.pmf.assign(ctx.num_classes, 0.0f);
    }
    model.AddNode(std::move(leaf));
    return model;
  }

  const ColumnPtr& target = table.target();
  std::vector<Frame> stack;
  {
    TreeModel::Node root;
    int32_t id = model.AddNode(std::move(root));
    stack.push_back(Frame{id, 0, rows.size(), 0});
  }

  std::vector<uint32_t> scratch;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const size_t n = f.end - f.begin;
    const uint32_t* row_ptr = rows.data() + f.begin;

    TargetStats stats = ComputeTargetStats(*target, ctx, row_ptr, n);
    TreeModel::Node& node = model.mutable_node(f.node_id);
    node.depth = static_cast<uint16_t>(f.depth);
    FillNodePrediction(stats, &node);

    const int global_depth = config.base_depth + f.depth;
    bool leaf = stats.IsPure() || n <= config.min_leaf ||
                global_depth >= config.max_depth;
    if (!leaf) {
      if (binned != nullptr && f.hists == nullptr) {
        // Root, a node whose histograms were skipped as a predicted
        // leaf, or any regression node (never derived, see below):
        // build from its rows.
        f.hists = BuildNodeHists(*binned, *target, candidate_columns, ctx,
                                 row_ptr, n);
      }
      SplitOutcome best;
      if (TraceEnabled()) {
        // Split-eval timing is trace-gated: when tracing is off the
        // hot path pays one relaxed atomic load per node.
        static Histogram* const split_eval_us =
            MetricsRegistry::Global().GetHistogram("trainer.split_eval_us");
        TraceSpan span(TraceCat::kSplitEval, "split-eval");
        span.SetArg("rows", static_cast<int64_t>(n));
        auto start = std::chrono::steady_clock::now();
        best = FindNodeSplit(table, row_ptr, n, candidate_columns, ctx,
                             config, rng, binned, f.hists.get());
        split_eval_us->Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      } else {
        best = FindNodeSplit(table, row_ptr, n, candidate_columns, ctx,
                             config, rng, binned, f.hists.get());
      }
      if (!best.valid || best.gain <= kMinSplitGain) {
        leaf = true;
      } else {
        // Stable partition of rows[f.begin, f.end) by the condition,
        // preserving relative order so the distributed engine (which
        // splits I_x the same way at the delegate worker) produces an
        // identical tree.
        const SplitCondition& cond = best.condition;
        const ColumnPtr& col = table.column(cond.column);
        scratch.clear();
        scratch.reserve(n);
        size_t write = f.begin;
        if (cond.type == DataType::kNumeric) {
          for (size_t i = f.begin; i < f.end; ++i) {
            if (cond.TrainRoutesLeftNumeric(col->numeric_at(rows[i]))) {
              rows[write++] = rows[i];
            } else {
              scratch.push_back(rows[i]);
            }
          }
        } else {
          for (size_t i = f.begin; i < f.end; ++i) {
            if (cond.TrainRoutesLeftCategory(col->category_at(rows[i]))) {
              rows[write++] = rows[i];
            } else {
              scratch.push_back(rows[i]);
            }
          }
        }
        const size_t mid = write;
        std::copy(scratch.begin(), scratch.end(), rows.begin() + mid);
        TS_DCHECK(mid > f.begin && mid < f.end)
            << "split produced an empty child";

        TreeModel::Node left_child;
        TreeModel::Node right_child;
        int32_t left_id = model.AddNode(std::move(left_child));
        int32_t right_id = model.AddNode(std::move(right_child));
        TreeModel::Node& parent = model.mutable_node(f.node_id);
        parent.condition = best.condition;
        parent.split_gain = best.gain;
        parent.left = left_id;
        parent.right = right_id;

        // Histogram mode: where subtraction is exact, build only the
        // smaller child's histograms and derive the larger sibling as
        // parent - smaller. Otherwise (regression) each child builds
        // its own when it is split, exactly as the engine's
        // column-tasks do, so a node's histograms never depend on
        // which path grew it. Children that the depth/min_leaf rules
        // already make leaves skip histogram work entirely.
        std::shared_ptr<NodeHists> left_hists;
        std::shared_ptr<NodeHists> right_hists;
        if (binned != nullptr && NodeHistogram::SubtractionIsExact(ctx.kind)) {
          const size_t nl = mid - f.begin;
          const size_t nr = f.end - mid;
          const bool child_depth_ok =
              config.base_depth + f.depth + 1 < config.max_depth;
          const bool need_left = child_depth_ok && nl > config.min_leaf;
          const bool need_right = child_depth_ok && nr > config.min_leaf;
          if (need_left || need_right) {
            const bool left_smaller = nl <= nr;
            std::shared_ptr<NodeHists>& smaller =
                left_smaller ? left_hists : right_hists;
            std::shared_ptr<NodeHists>& larger =
                left_smaller ? right_hists : left_hists;
            smaller = BuildNodeHists(
                *binned, *target, candidate_columns, ctx,
                left_smaller ? row_ptr : rows.data() + mid,
                left_smaller ? nl : nr);
            if (left_smaller ? need_right : need_left) {
              larger = std::make_shared<NodeHists>(candidate_columns.size());
              for (size_t i = 0; i < candidate_columns.size(); ++i) {
                if (!(*f.hists)[i].empty()) {
                  (*larger)[i] =
                      NodeHistogram::Subtract((*f.hists)[i], (*smaller)[i]);
                }
              }
            }
            if (left_smaller ? !need_left : !need_right) smaller.reset();
          }
        }
        // Right pushed first so the left child is processed next
        // (depth-first, left-to-right), matching B_plan's head-insert
        // order in the engine.
        stack.push_back(
            Frame{right_id, mid, f.end, f.depth + 1, std::move(right_hists)});
        stack.push_back(
            Frame{left_id, f.begin, mid, f.depth + 1, std::move(left_hists)});
      }
    }
  }
  return model;
}

TreeModel TrainTreeOnTable(const DataTable& table,
                           const std::vector<int>& candidate_columns,
                           const TreeConfig& config, Rng* rng,
                           const BinnedTable* binned) {
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  return TrainTree(table, std::move(rows), candidate_columns, config, rng,
                   binned);
}

}  // namespace treeserver
