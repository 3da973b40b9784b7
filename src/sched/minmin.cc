#include "sched/minmin.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "sched/cost_model.h"
#include "util/check.h"
#include "util/ws_runtime.h"

namespace bsio::sched {

namespace {

// Compiler barrier for the argmin folds below. Without it GCC 12 (-O3,
// x86-64) turns the rare "new best" update into a select, which chains
// every node's mct_beats on the previous one; on perfbench's wide-planner
// (256 nodes, rows of near-tie values) that made planning 30-40% slower
// than a predicted branch on a 4-core x86-64 host.
inline void keep_branch() { asm volatile("" ::: "memory"); }

// Folds per-node completion times in node order under mct_beats; exact
// ties go to the earlier node. `ct[j]` must be estimate_completion_time on
// nodes[j].
std::pair<wl::NodeId, double> fold_best_node(
    const PlannerState& ps, const std::vector<wl::NodeId>& nodes,
    const double* ct) {
  wl::NodeId best_node = nodes.front();
  double best_ct = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (mct_beats(ps, ct[j], nodes[j], best_ct, best_node)) {
      best_node = nodes[j];
      best_ct = ct[j];
      keep_branch();
    }
  }
  return {best_node, best_ct};
}

// Commits `task` to `node`, the step every MinMin sweep ends in: prices it
// against ps, applies it, appends it to `plan` and, when asked, records its
// stamps.
CompletionEstimate commit(const wl::Workload& w, const sim::Topology& topo,
                          PlannerState& ps, wl::TaskId task, wl::NodeId node,
                          sim::SubBatchPlan& plan,
                          std::vector<CommitStamp>* stamps) {
  CompletionEstimate est = estimate_completion(w, topo, ps, task, node);
  if (stamps != nullptr)
    stamps->push_back({ps.node_ready[node], est.completion});
  apply_assignment(w, topo, ps, task, node, est);
  plan.tasks.push_back(task);
  plan.assignment[task] = node;
  return est;
}

// Lazy-heap MinMin for large batches. `stale_retry_budget` caps the
// refresh cascade between commits (see minmin.h); SIZE_MAX reproduces the
// historical unbounded behavior bit-for-bit.
void plan_lazy(const wl::Workload& w, const sim::Topology& topo,
               PlannerState& ps, const std::vector<wl::TaskId>& pending,
               const std::vector<wl::NodeId>& nodes,
               std::size_t stale_retry_budget, sim::SubBatchPlan& plan,
               std::vector<CommitStamp>* stamps) {
  WsRuntime& pool = WsRuntime::global();
  const std::size_t N = nodes.size();
  struct Entry {
    double ct;
    wl::TaskId task;
    bool operator<(const Entry& o) const { return ct > o.ct; }  // min-heap
  };

  // Initial sweep: every task's per-node estimates in parallel (read-only
  // against ps), each row folded in place so only the per-task key is kept
  // — materializing the full T x N matrix costs ~800 MB at 100k x 1k and
  // the fold only ever reads one row. Heap built sequentially in pending
  // order.
  std::vector<double> key(pending.size());
  pool.parallel_for_each(pending.size(), [&](std::size_t i) {
    std::vector<double> r(N);
    estimate_completion_row(w, topo, ps, pending[i], nodes, r.data());
    key[i] = fold_best_node(ps, nodes, r.data()).second;
  });
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < pending.size(); ++i)
    heap.push({key[i], pending[i]});

  std::vector<bool> done(w.num_tasks(), false);
  std::vector<double> row(N);
  // Best fresh candidate seen in the current refresh cascade: all of them
  // were evaluated against the same ps (no commit in between), so the
  // recorded (task, node, ct) stays exact until the next commit.
  std::size_t retries = 0;
  bool fresh_valid = false;
  double fresh_ct = 0.0;
  wl::TaskId fresh_task = 0;
  wl::NodeId fresh_node = 0;
  while (!heap.empty()) {
    Entry e = heap.top();
    heap.pop();
    if (done[e.task]) continue;
    // Serial on purpose: the row costs about N compares plus a few core
    // evaluations, less than a fork-join across the runtime.
    estimate_completion_row(w, topo, ps, e.task, nodes, row.data());
    auto [node, best_ct] = fold_best_node(ps, nodes, row.data());
    const bool stale =
        !heap.empty() && best_ct > heap.top().ct + 1e-9 * (1.0 + best_ct);
    if (stale && retries < stale_retry_budget) {
      heap.push({best_ct, e.task});  // stale; retry later
      if (!fresh_valid || best_ct < fresh_ct) {
        fresh_valid = true;
        fresh_ct = best_ct;
        fresh_task = e.task;
        fresh_node = node;
      }
      ++retries;
      continue;
    }
    wl::TaskId task = e.task;
    if (stale && fresh_valid && fresh_ct < best_ct) {
      // Budget exhausted: commit the best candidate refreshed in this
      // cascade instead; the popped entry rejoins the heap with its fresh
      // key. (Its stale twin pushed earlier is skipped via done[].)
      heap.push({best_ct, e.task});
      task = fresh_task;
      node = fresh_node;
    }
    commit(w, topo, ps, task, node, plan, stamps);
    done[task] = true;
    retries = 0;
    fresh_valid = false;
  }
}

}  // namespace

void minmin_plan_into(const wl::Workload& w, const sim::Topology& topo,
                      PlannerState& ps, const std::vector<wl::TaskId>& pending,
                      const std::vector<wl::NodeId>& nodes,
                      std::size_t exact_threshold,
                      std::size_t stale_retry_budget, sim::SubBatchPlan& plan,
                      std::vector<CommitStamp>* stamps) {
  BSIO_CHECK_MSG(!nodes.empty(), "MinMin: no compute node is alive");
  if (pending.empty()) return;

  if (pending.size() > exact_threshold) {
    plan_lazy(w, topo, ps, pending, nodes, stale_retry_budget, plan, stamps);
    return;
  }

  // Unassigned tasks live in a doubly-linked list over pending positions:
  // removal is O(1) while sweeps and folds keep visiting survivors in
  // original pending order — a plain swap-and-pop would permute the fold
  // order and flip exact-tie picks.
  const std::size_t T = pending.size();
  const auto sentinel = static_cast<std::uint32_t>(T);
  std::vector<std::uint32_t> next(T + 1), prev(T + 1);
  for (std::size_t i = 0; i <= T; ++i) {
    next[i] = static_cast<std::uint32_t>(i + 1 <= T ? i + 1 : 0);
    prev[i] = static_cast<std::uint32_t>(i > 0 ? i - 1 : T);
  }

  // Readers of each file among the pending positions, sorted by file: a
  // commit re-prices exactly the readers of the files it staged.
  std::vector<std::pair<wl::FileId, std::uint32_t>> readers;
  for (std::size_t i = 0; i < T; ++i)
    for (wl::FileId f : w.task(pending[i]).files)
      readers.push_back({f, static_cast<std::uint32_t>(i)});
  std::sort(readers.begin(), readers.end());

  // lb[i]: the minimum of row i when it was last priced (-inf = unknown).
  // It bounds every entry of the current row from below until one of the
  // task's files gains a holder (see minmin.h).
  constexpr double kUnknown = -std::numeric_limits<double>::infinity();
  std::vector<double> lb(T, kUnknown);
  const std::size_t N = nodes.size();
  std::vector<double> ct(T * N);

  // First sweep: every row against the frozen ps, one per index in
  // parallel — bit-identical at any thread count. Later sweeps price only
  // the few rows whose bound could still beat the incumbent, serially in
  // fold order, instead of paying a fork-join.
  WsRuntime::global().parallel_for_each(T, [&](std::size_t i) {
    estimate_completion_row(w, topo, ps, pending[i], nodes, &ct[i * N]);
  });
  bool first = true;

  while (next[sentinel] != sentinel) {
    // Fold in the historical (task, node) order. A row is skipped only when
    // its bound cannot beat the incumbent, so no skipped entry could have
    // won: the pick is the full sweep's.
    double best_ct = std::numeric_limits<double>::infinity();
    std::uint32_t best_i = sentinel;
    wl::NodeId best_node = nodes.front();
    for (std::uint32_t i = next[sentinel]; i != sentinel; i = next[i]) {
      double* row = &ct[static_cast<std::size_t>(i) * N];
      if (!first) {
        if (mct_cannot_beat(lb[i], best_ct)) continue;
        estimate_completion_row(w, topo, ps, pending[i], nodes, row);
      }
      double row_min = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < N; ++j) {
        const double cand = row[j];
        row_min = std::min(row_min, cand);
        if (mct_beats(ps, cand, nodes[j], best_ct, best_node)) {
          best_ct = cand;
          best_i = i;
          best_node = nodes[j];
          keep_branch();
        }
      }
      lb[i] = row_min;
    }
    first = false;

    const CompletionEstimate est =
        commit(w, topo, ps, pending[best_i], best_node, plan, stamps);
    next[prev[best_i]] = next[best_i];
    prev[next[best_i]] = prev[best_i];
    for (const CompletionEstimate::Stage& s : est.stages) {
      auto it = std::lower_bound(readers.begin(), readers.end(),
                                 std::make_pair(s.file, std::uint32_t{0}));
      for (; it != readers.end() && it->first == s.file; ++it)
        lb[it->second] = kUnknown;
    }
  }
}

sim::SubBatchPlan MinMinScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  ps_.reset(ctx.batch, ctx.topology, ctx.engine.state());
  sim::SubBatchPlan plan;
  minmin_plan_into(ctx.batch, ctx.topology, ps_, pending, ctx.alive_nodes(),
                   exact_threshold_, stale_retry_budget_, plan);
  return plan;
}

}  // namespace bsio::sched
