// estimate_completion_row against the per-node estimate it stands in for:
// every slot must be bit-identical to estimate_completion_time on that node,
// whatever the topology, the planner state or the node list.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "sched/cost_model.h"
#include "sim/cluster.h"
#include "sim/state.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace bsio::sched {
namespace {

wl::Workload row_workload(std::uint64_t seed, std::size_t storage_nodes) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 48;
  cfg.files_per_task = 4;
  cfg.overlap = 0.7;
  cfg.file_size_bytes = 64.0 * sim::kMB;
  cfg.file_size_jitter = 0.3;
  cfg.compute_jitter = 0.3;
  cfg.num_storage_nodes = storage_nodes;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

std::vector<wl::NodeId> all_nodes(std::size_t n) {
  std::vector<wl::NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), wl::NodeId{0});
  return nodes;
}

// Compares the row of every task in `w` with the per-node estimates.
void expect_rows_match(const wl::Workload& w, const sim::Topology& topo,
                       const PlannerState& ps,
                       const std::vector<wl::NodeId>& nodes,
                       const std::string& where) {
  std::vector<double> row(nodes.size());
  for (wl::TaskId t = 0; t < w.num_tasks(); ++t) {
    estimate_completion_row(w, topo, ps, t, nodes, row.data());
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const double ref = estimate_completion_time(w, topo, ps, t, nodes[j]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                std::bit_cast<std::uint64_t>(ref))
          << where << ": task " << t << " node " << nodes[j] << " row "
          << row[j] << " per-node " << ref;
    }
  }
}

// Commits `steps` random (task, node) pairs through the planner's own
// estimate + apply path, checking every row after each few commits.
void random_walk(const wl::Workload& w, const sim::Topology& topo,
                 PlannerState& ps, const std::vector<wl::NodeId>& nodes,
                 std::uint64_t seed, std::size_t steps,
                 const std::string& where) {
  Rng rng(seed);
  expect_rows_match(w, topo, ps, nodes, where + " fresh");
  for (std::size_t s = 0; s < steps; ++s) {
    const auto task = static_cast<wl::TaskId>(rng.uniform(w.num_tasks()));
    const wl::NodeId node = nodes[rng.uniform(nodes.size())];
    const CompletionEstimate est = estimate_completion(w, topo, ps, task, node);
    apply_assignment(w, topo, ps, task, node, est);
    if (s % 8 == 7)
      expect_rows_match(w, topo, ps, nodes,
                        where + " step " + std::to_string(s));
  }
}

// Topologies covering every branch of the rule: uniform with and without a
// shared uplink, racks, NIC caps and CPU speeds, no replication.
std::vector<std::pair<std::string, sim::ClusterConfig>> row_clusters() {
  std::vector<std::pair<std::string, sim::ClusterConfig>> out;
  out.push_back({"xio", sim::xio_cluster(12, 4)});
  out.push_back({"uplink", sim::osumed_cluster(12, 4)});
  out.push_back({"racked", sim::racked_cluster(12, 4, 3)});
  sim::ClusterConfig nic = sim::xio_cluster(12, 4);
  nic.compute_nic_bw.assign(12, 400.0 * sim::kMB);
  nic.compute_nic_bw[5] = 90.0 * sim::kMB;
  out.push_back({"nic", nic});
  out.push_back({"skewed", sim::make_skewed_cluster(sim::xio_cluster(12, 4),
                                                    0.5, 3)});
  sim::ClusterConfig norepl = sim::osumed_cluster(12, 4);
  norepl.allow_replication = false;
  out.push_back({"no-replication", norepl});
  return out;
}

TEST(CostModelRow, MatchesPerNodeEstimateAlongRandomPlans) {
  for (const auto& [name, c] : row_clusters()) {
    const sim::Topology topo(c);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const wl::Workload w = row_workload(seed, c.num_storage_nodes);
      // Seed a few cached copies so the walk starts with replica holders.
      sim::ClusterState st(c.num_compute_nodes, sim::kUnlimited);
      Rng rng(seed * 977);
      for (int k = 0; k < 10; ++k) {
        const auto f = static_cast<wl::FileId>(rng.uniform(w.num_files()));
        const auto n =
            static_cast<wl::NodeId>(rng.uniform(c.num_compute_nodes));
        st.add(n, f, w.file_size(f), rng.uniform_double(0.0, 5.0));
      }
      PlannerState ps(w, topo, st);
      random_walk(w, topo, ps, all_nodes(c.num_compute_nodes), seed, 120,
                  name + " seed " + std::to_string(seed));

      // A sparse node subset (the alive-node list after crashes) on a
      // fresh state.
      PlannerState ps2(w, topo, st);
      random_walk(w, topo, ps2, {0, 2, 3, 7, 11}, seed + 100, 60,
                  name + " subset seed " + std::to_string(seed));
    }
  }
}

TEST(CostModelRow, TasksWithAllFilesLocalAndNoFiles) {
  for (const auto& [name, c] : row_clusters()) {
    const sim::Topology topo(c);
    std::vector<wl::FileInfo> files(6);
    for (std::size_t f = 0; f < files.size(); ++f) {
      files[f].size_bytes = (40.0 + 10.0 * f) * sim::kMB;
      files[f].home_storage_node =
          static_cast<wl::NodeId>(f % c.num_storage_nodes);
    }
    std::vector<wl::TaskInfo> tasks(4);
    tasks[0].files = {0, 1, 2};
    tasks[1].files = {2, 3};
    tasks[2].files = {};  // no inputs at all
    tasks[3].files = {4, 5};
    for (auto& t : tasks) t.compute_seconds = 1.5;
    const wl::Workload w(std::move(tasks), std::move(files));
    const sim::ClusterState cold(c.num_compute_nodes, sim::kUnlimited);
    PlannerState ps(w, topo, cold);
    // Every file of task 0 already on node 4; task 1 half local on node 6.
    for (wl::FileId f : {0u, 1u, 2u}) ps.add_planned(f, 4, 0.5);
    ps.add_planned(2, 6, 1.0);
    ps.node_ready[4] = 3.0;
    ps.node_ready[9] = 0.25;
    expect_rows_match(w, topo, ps, all_nodes(c.num_compute_nodes), name);
  }
}

// The earliest instant any source of the task's first file frees up,
// recomputed here from the cost model's definition.
double first_file_x0(const wl::Workload& w, const sim::Topology& topo,
                     const PlannerState& ps, wl::TaskId task,
                     wl::NodeId dst) {
  const wl::FileId f0 = w.task(task).files.front();
  const wl::NodeId home = w.file(f0).home_storage_node;
  const sim::TransferPath rp = topo.remote_path(home, dst);
  double x0 = ps.storage_ready[home];
  for (std::uint32_t l = 0; l < rp.num_links; ++l)
    x0 = std::max(x0, ps.link_ready[rp.links[l]]);
  if (topo.config().allow_replication)
    for (const auto& [holder, avail] : ps.planned[f0])
      x0 = std::min(x0, std::max(ps.node_ready[holder], avail));
  return x0;
}

TEST(CostModelRow, NodeReadyAtTheBoundaryAndOneUlpAround) {
  for (const auto& [name, c] : row_clusters()) {
    const sim::Topology topo(c);
    const wl::Workload w = row_workload(11, c.num_storage_nodes);
    const sim::ClusterState cold(c.num_compute_nodes, sim::kUnlimited);
    PlannerState ps(w, topo, cold);
    const std::vector<wl::NodeId> nodes = all_nodes(c.num_compute_nodes);
    Rng rng(29);
    for (int s = 0; s < 40; ++s) {
      const auto task = static_cast<wl::TaskId>(rng.uniform(w.num_tasks()));
      const wl::NodeId node = nodes[rng.uniform(nodes.size())];
      apply_assignment(w, topo, ps, task, node,
                       estimate_completion(w, topo, ps, task, node));
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (wl::TaskId t = 0; t < w.num_tasks(); t += 3) {
      PlannerState probe = ps;
      const double x0 = first_file_x0(w, topo, probe, t, 0);
      // Nodes holding none of the task's files, in row order, get ready
      // times straddling x0 (the first one is the evaluated representative
      // when it qualifies); the rest keep their walked ready times.
      const double probes[] = {std::nextafter(x0, -inf), x0,
                               std::nextafter(x0, inf), x0};
      std::size_t k = 0;
      for (wl::NodeId n : nodes) {
        if (k == 4) break;
        bool holds = false;
        for (wl::FileId f : w.task(t).files)
          holds = holds || probe.on_node(f, n);
        if (!holds) probe.node_ready[n] = probes[k++];
      }
      expect_rows_match(w, topo, probe, nodes,
                        name + " boundary task " + std::to_string(t));
    }
  }
}

TEST(CostModelRow, ConcurrentRowsMatchSerialRows) {
  // One row per task on the planners' runtime against one shared state,
  // the shape of MinMin's lazy initial sweep and JobDataPresent's ECT sweep.
  const sim::ClusterConfig c = sim::osumed_cluster(12, 4);
  const sim::Topology topo(c);
  const wl::Workload w = row_workload(6, c.num_storage_nodes);
  const sim::ClusterState cold(c.num_compute_nodes, sim::kUnlimited);
  PlannerState ps(w, topo, cold);
  const std::vector<wl::NodeId> nodes = all_nodes(c.num_compute_nodes);
  Rng rng(17);
  for (int s = 0; s < 30; ++s) {
    const auto task = static_cast<wl::TaskId>(rng.uniform(w.num_tasks()));
    const wl::NodeId node = nodes[rng.uniform(nodes.size())];
    apply_assignment(w, topo, ps, task, node,
                     estimate_completion(w, topo, ps, task, node));
  }
  const std::size_t N = nodes.size();
  std::vector<double> par(w.num_tasks() * N);
  WsRuntime::global().parallel_for_each(w.num_tasks(), [&](std::size_t t) {
    estimate_completion_row(w, topo, ps, static_cast<wl::TaskId>(t), nodes,
                            &par[t * N]);
  });
  std::vector<double> row(N);
  for (wl::TaskId t = 0; t < w.num_tasks(); ++t) {
    estimate_completion_row(w, topo, ps, t, nodes, row.data());
    for (std::size_t j = 0; j < N; ++j)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(par[t * N + j]),
                std::bit_cast<std::uint64_t>(row[j]))
          << "task " << t << " node " << nodes[j];
  }
}

TEST(CostModelRow, FreshUniformStateRunsTheCoreOnce) {
  const sim::ClusterConfig c = sim::osumed_cluster(16, 4);
  const sim::Topology topo(c);
  const wl::Workload w = row_workload(4, c.num_storage_nodes);
  const sim::ClusterState cold(c.num_compute_nodes, sim::kUnlimited);
  const PlannerState ps(w, topo, cold);
  const std::vector<wl::NodeId> nodes = all_nodes(c.num_compute_nodes);
  std::vector<double> row(nodes.size());
  for (wl::TaskId t = 0; t < w.num_tasks(); ++t) {
    EXPECT_EQ(estimate_completion_row(w, topo, ps, t, nodes, row.data()), 1u);
    for (double v : row) EXPECT_EQ(v, row.front());
  }

  // A heterogeneous topology is priced node by node.
  const sim::Topology skewed(
      sim::make_skewed_cluster(sim::xio_cluster(16, 4), 0.5, 3));
  const PlannerState ps2(w, skewed, cold);
  EXPECT_EQ(estimate_completion_row(w, skewed, ps2, 0, nodes, row.data()),
            nodes.size());
}

// The reset before node-cache visiting: every file id in order, its holders
// from the holder index, each stamp through available_at.
void reference_reset(PlannerState& ps, const wl::Workload& w,
                     const sim::Topology& topo,
                     const sim::ClusterState& current, double origin) {
  const sim::ClusterState empty(current.num_nodes(), sim::kUnlimited);
  ps.reset(w, topo, empty, origin);
  for (wl::FileId f = 0; f < w.num_files(); ++f)
    for (wl::NodeId n : current.holders(f)) {
      double avail = current.available_at(n, f);
      if (origin > 0.0) avail = std::max(0.0, avail - origin);
      ps.add_planned(f, n, avail);
    }
}

TEST(PlannerState, ResetFromNodeCachesMatchesHolderOrder) {
  const sim::ClusterConfig c = sim::osumed_cluster(12, 4);
  const sim::Topology topo(c);
  const wl::Workload w = row_workload(6, c.num_storage_nodes);
  // One pair of states reused across rounds, as the planners reuse theirs,
  // so each reset also has to clear what the previous round set.
  PlannerState ps;
  PlannerState ref;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    sim::ClusterState cache(c.num_compute_nodes, sim::kUnlimited);
    // Ids past the workload's files stand for another batch's files; reset
    // must skip them.
    const std::size_t ids = w.num_files() + 8;
    for (int op = 0; op < 400; ++op) {
      const auto node =
          static_cast<wl::NodeId>(rng.uniform(c.num_compute_nodes));
      const auto file = static_cast<wl::FileId>(rng.uniform(ids));
      const double r = rng.uniform_double();
      if (r < 0.7) {
        cache.add(node, file, 1.0, rng.uniform_double() * 100.0);
      } else if (r < 0.97) {
        if (cache.has(node, file)) cache.remove(node, file, 1.0);
      } else {
        cache.clear_node(node);
      }
    }
    for (double origin : {0.0, 37.5}) {
      ps.reset(w, topo, cache, origin);
      reference_reset(ref, w, topo, cache, origin);
      ASSERT_EQ(ps.planned.size(), ref.planned.size());
      for (wl::FileId f = 0; f < w.num_files(); ++f) {
        ASSERT_EQ(ps.planned[f].size(), ref.planned[f].size())
            << "seed " << seed << " file " << f;
        for (std::size_t i = 0; i < ps.planned[f].size(); ++i) {
          EXPECT_EQ(ps.planned[f][i].first, ref.planned[f][i].first)
              << "seed " << seed << " file " << f;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ps.planned[f][i].second),
                    std::bit_cast<std::uint64_t>(ref.planned[f][i].second))
              << "seed " << seed << " file " << f;
        }
        for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n)
          ASSERT_EQ(ps.on_node(f, n), ref.on_node(f, n))
              << "seed " << seed << " file " << f << " node " << n;
      }
    }
  }
}

}  // namespace
}  // namespace bsio::sched
