#include "sched/alternatives.h"

#include <cmath>
#include <limits>

#include "sched/cost_model.h"
#include "util/check.h"

namespace bsio::sched {

namespace {

struct NodeChoice {
  wl::NodeId node = 0;
  double completion = std::numeric_limits<double>::infinity();
  double second_best = std::numeric_limits<double>::infinity();
};

// Best node of `task` under mct_beats, from its MCT row (`row` holds
// nodes.size() slots), plus the runner-up completion Sufferage needs.
NodeChoice evaluate(const wl::Workload& w, const sim::Topology& topo,
                    const PlannerState& ps, wl::TaskId task,
                    const std::vector<wl::NodeId>& nodes, double* row) {
  estimate_completion_row(w, topo, ps, task, nodes, row);
  NodeChoice out;
  out.node = nodes.front();
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (mct_beats(ps, row[j], nodes[j], out.completion, out.node)) {
      out.second_best = out.completion;
      out.completion = row[j];
      out.node = nodes[j];
    } else if (row[j] < out.second_best) {
      out.second_best = row[j];
    }
  }
  return out;
}

// Shared greedy loop: `prefer(a_choice, b_choice) == true` when a should
// be committed before b.
template <typename Prefer>
sim::SubBatchPlan greedy_commit(const std::vector<wl::TaskId>& pending,
                                const SchedulerContext& ctx, Prefer prefer) {
  const wl::Workload& w = ctx.batch;
  const sim::Topology& topo = ctx.topology;
  PlannerState ps(w, topo, ctx.engine.state());
  const std::vector<wl::NodeId>& nodes = ctx.alive_nodes();
  BSIO_CHECK_MSG(!nodes.empty(), "greedy_commit: no compute node is alive");

  sim::SubBatchPlan plan;
  std::vector<wl::TaskId> todo = pending;
  std::vector<double> row(nodes.size());
  while (!todo.empty()) {
    std::size_t best_i = 0;
    NodeChoice best_choice;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      const NodeChoice choice =
          evaluate(w, topo, ps, todo[i], nodes, row.data());
      if (i == 0 || prefer(choice, best_choice)) {
        best_i = i;
        best_choice = choice;
      }
    }
    const wl::TaskId task = todo[best_i];
    const CompletionEstimate est =
        estimate_completion(w, topo, ps, task, best_choice.node);
    apply_assignment(w, topo, ps, task, best_choice.node, est);
    plan.tasks.push_back(task);
    plan.assignment[task] = best_choice.node;
    todo.erase(todo.begin() + best_i);
  }
  return plan;
}

}  // namespace

sim::SubBatchPlan SufferageScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  auto sufferage = [](const NodeChoice& ch) {
    return std::isinf(ch.second_best)
               ? std::numeric_limits<double>::infinity()  // only one node
               : ch.second_best - ch.completion;
  };
  return greedy_commit(pending, ctx,
                       [&](const NodeChoice& a, const NodeChoice& b) {
                         return sufferage(a) > sufferage(b);
                       });
}

sim::SubBatchPlan MaxMinScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  return greedy_commit(pending, ctx,
                       [](const NodeChoice& a, const NodeChoice& b) {
                         return a.completion > b.completion;
                       });
}

}  // namespace bsio::sched
