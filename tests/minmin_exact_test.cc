// MinMin's exact sweep against the full O(T^2) sweep it prunes: the pruned
// sweep re-prices only rows whose kept lower bound could still beat the
// incumbent, and must pick the same task, on the same node, at every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "sched/cost_model.h"
#include "sched/minmin.h"
#include "sim/cluster.h"
#include "sim/state.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "workload/types.h"

namespace bsio::sched {
namespace {

// The historical exact sweep, kept here as the reference: price every
// unassigned task's row against the current state, fold all of them in
// pending order under mct_beats, commit the winner, repeat.
sim::SubBatchPlan full_sweep(const wl::Workload& w, const sim::Topology& topo,
                             PlannerState& ps,
                             const std::vector<wl::TaskId>& pending,
                             const std::vector<wl::NodeId>& nodes) {
  sim::SubBatchPlan plan;
  std::vector<wl::TaskId> alive = pending;
  std::vector<double> row(nodes.size());
  while (!alive.empty()) {
    double best_ct = std::numeric_limits<double>::infinity();
    std::size_t best_a = 0;
    wl::NodeId best_node = nodes.front();
    for (std::size_t a = 0; a < alive.size(); ++a) {
      estimate_completion_row(w, topo, ps, alive[a], nodes, row.data());
      for (std::size_t j = 0; j < nodes.size(); ++j)
        if (mct_beats(ps, row[j], nodes[j], best_ct, best_node)) {
          best_ct = row[j];
          best_a = a;
          best_node = nodes[j];
        }
    }
    const wl::TaskId task = alive[best_a];
    apply_assignment(w, topo, ps, task, best_node,
                     estimate_completion(w, topo, ps, task, best_node));
    plan.tasks.push_back(task);
    plan.assignment[task] = best_node;
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(best_a));
  }
  return plan;
}

// Zipf-shared reads over a small catalogue, two file sizes so sums tie, and
// every fourth task an exact duplicate of an earlier one (same files, same
// compute), so exact ties between rows are common.
wl::Workload zipf_workload(std::uint64_t seed, std::size_t storage_nodes) {
  Rng rng(seed);
  const std::size_t num_files = 40;
  std::vector<wl::FileInfo> files(num_files);
  for (std::size_t f = 0; f < num_files; ++f) {
    files[f].size_bytes = (rng.bernoulli(0.5) ? 32.0 : 64.0) * sim::kMB;
    files[f].home_storage_node =
        static_cast<wl::NodeId>(rng.uniform(storage_nodes));
  }
  const ZipfTable zipf(num_files, 1.1);
  std::vector<wl::TaskInfo> tasks(60);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (t % 4 == 3) {
      tasks[t] = tasks[rng.uniform(t)];
      continue;
    }
    const std::size_t k = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < k; ++i)
      tasks[t].files.push_back(static_cast<wl::FileId>(zipf.draw(rng)));
    tasks[t].compute_seconds = rng.bernoulli(0.5) ? 0.5 : 0.25;
  }
  return wl::Workload(std::move(tasks), std::move(files));
}

// Storage slow enough (the OSUMED class) that waiting for a busy replica
// holder beats a remote read, so a commit's new holders do lower other
// tasks' rows and stale bounds would show.
sim::ClusterConfig slow_storage(sim::ClusterConfig c) {
  c.storage_disk_bw = 25.0 * sim::kMB;
  return c;
}

std::vector<std::pair<std::string, sim::ClusterConfig>> clusters() {
  std::vector<std::pair<std::string, sim::ClusterConfig>> out;
  out.push_back({"xio", sim::xio_cluster(8, 4)});
  out.push_back({"slow xio", slow_storage(sim::xio_cluster(8, 4))});
  out.push_back({"uplink", sim::osumed_cluster(8, 4)});
  out.push_back({"racked", slow_storage(sim::racked_cluster(8, 4, 2))});
  const sim::ClusterConfig slow = slow_storage(sim::xio_cluster(8, 4));
  out.push_back({"skewed", sim::make_skewed_cluster(slow, 0.5, 3)});
  std::vector<std::pair<std::string, sim::ClusterConfig>> with_off;
  for (const auto& [name, c] : out) {
    with_off.push_back({name, c});
    sim::ClusterConfig off = c;
    off.allow_replication = false;
    with_off.push_back({name + " no-replication", off});
  }
  return with_off;
}

TEST(MinMinExact, PrunedSweepMatchesFullSweep) {
  for (const auto& [name, c] : clusters()) {
    const sim::Topology topo(c);
    const sim::ClusterState cold(c.num_compute_nodes, sim::kUnlimited);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const wl::Workload w = zipf_workload(seed, c.num_storage_nodes);
      Rng rng(seed * 7919);
      // A shuffled subset of the tasks, on all nodes or a sparse subset.
      std::vector<wl::TaskId> pending(w.num_tasks());
      std::iota(pending.begin(), pending.end(), wl::TaskId{0});
      rng.shuffle(pending);
      pending.resize(20 + rng.uniform(41));
      std::vector<wl::NodeId> nodes(c.num_compute_nodes);
      std::iota(nodes.begin(), nodes.end(), wl::NodeId{0});
      if (seed % 2 == 0) nodes = {0, 2, 3, 5, 7};

      // Holders seeded through add_planned, some nodes already busy.
      PlannerState ps(w, topo, cold);
      for (int k = 0; k < 12; ++k) {
        const auto f = static_cast<wl::FileId>(rng.uniform(w.num_files()));
        const auto n =
            static_cast<wl::NodeId>(rng.uniform(c.num_compute_nodes));
        ps.add_planned(f, n, rng.uniform_double(0.0, 2.0));
      }
      for (int k = 0; k < 3; ++k)
        ps.node_ready[rng.uniform(c.num_compute_nodes)] =
            rng.uniform_double(0.0, 1.5);
      PlannerState ref_ps = ps;

      sim::SubBatchPlan got;
      minmin_plan_into(w, topo, ps, pending, nodes, pending.size(),
                       std::numeric_limits<std::size_t>::max(), got);
      const sim::SubBatchPlan want =
          full_sweep(w, topo, ref_ps, pending, nodes);
      const std::string where = name + " seed " + std::to_string(seed);
      ASSERT_EQ(got.tasks, want.tasks) << where;
      ASSERT_EQ(got.assignment, want.assignment) << where;
    }
  }
}

}  // namespace
}  // namespace bsio::sched
