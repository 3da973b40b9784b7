#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/topology.h"
#include "sim/engine.h"
#include "sim/plan.h"
#include "sim/state.h"
#include "sim/timeline.h"
#include "workload/synthetic.h"

namespace bsio::sim {
namespace {

TEST(Timeline, ReserveAndQueryGaps) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 5.0), 0.0);
  tl.reserve(0.0, 10.0);
  EXPECT_DOUBLE_EQ(tl.horizon(), 10.0);
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 5.0), 10.0);
  tl.reserve(20.0, 5.0);
  // Gap [10, 20) fits 10 but not 11.
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 11.0), 25.0);
  EXPECT_DOUBLE_EQ(tl.earliest_free(12.0, 5.0), 12.0);
  tl.reserve(10.0, 10.0);  // fill the gap exactly
  tl.validate();
  EXPECT_DOUBLE_EQ(tl.busy_time(), 25.0);
}

TEST(Timeline, ZeroDurationIsNoop) {
  Timeline tl;
  tl.reserve(5.0, 0.0);
  EXPECT_EQ(tl.num_reservations(), 0u);
}

TEST(Timeline, EarliestCommonFree) {
  Timeline a, b;
  a.reserve(0.0, 10.0);
  b.reserve(12.0, 10.0);
  // Need 2 units free on both: a free from 10, b busy [12,22) -> common at
  // 10 only if 10+2 <= 12: exactly fits.
  std::vector<const Timeline*> tls{&a, &b};
  EXPECT_DOUBLE_EQ(earliest_common_free(tls, 0.0, 2.0), 10.0);
  EXPECT_DOUBLE_EQ(earliest_common_free(tls, 0.0, 3.0), 22.0);
  // Null entries are ignored.
  std::vector<const Timeline*> with_null{&a, nullptr, &b};
  EXPECT_DOUBLE_EQ(earliest_common_free(with_null, 0.0, 2.0), 10.0);
}

TEST(ClusterState, AddRemoveHolders) {
  ClusterState st(3, 100.0);
  EXPECT_FALSE(st.has(0, 7));
  st.add(0, 7, 40.0, 5.0);
  st.add(2, 7, 40.0, 9.0);
  EXPECT_TRUE(st.has(0, 7));
  EXPECT_DOUBLE_EQ(st.available_at(2, 7), 9.0);
  EXPECT_EQ(st.num_copies(7), 2u);
  EXPECT_EQ(st.holders(7), (std::vector<wl::NodeId>{0, 2}));
  EXPECT_DOUBLE_EQ(st.used_bytes(0), 40.0);
  st.remove(0, 7, 40.0);
  EXPECT_FALSE(st.has(0, 7));
  EXPECT_DOUBLE_EQ(st.used_bytes(0), 0.0);
}

TEST(ClusterState, PopularityEvictionOrder) {
  // Eq. 22: popularity = freq * size / copies; lowest evicted first.
  ClusterState st(2, 1000.0);
  st.add(0, 1, 100.0, 0.0);  // freq 1 -> pop 100
  st.add(0, 2, 100.0, 0.0);  // freq 5 -> pop 500
  st.add(0, 3, 10.0, 0.0);   // freq 9 -> pop 90
  st.add(1, 2, 100.0, 0.0);  // second copy of 2 -> pop 250
  auto freq = [](wl::FileId f) { return f == 1 ? 1.0 : (f == 2 ? 5.0 : 9.0); };
  auto size = [](wl::FileId f) { return f == 3 ? 10.0 : 100.0; };
  auto victims = st.select_victims(0, 105.0, {}, EvictionPolicy::kPopularity,
                                   freq, size);
  // Order: 3 (90), 1 (100) -> 110 freed >= 105.
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 3u);
  EXPECT_EQ(victims[1], 1u);
}

TEST(ClusterState, LruEvictionOrderAndPinning) {
  ClusterState st(1, 1000.0);
  st.add(0, 1, 100.0, 0.0);
  st.add(0, 2, 100.0, 0.0);
  st.add(0, 3, 100.0, 0.0);
  st.touch(0, 1, 50.0);
  st.touch(0, 2, 20.0);
  auto one = [](wl::FileId) { return 1.0; };
  auto size = [](wl::FileId) { return 100.0; };
  auto victims =
      st.select_victims(0, 100.0, {3}, EvictionPolicy::kLru, one, size);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);  // 3 pinned, 2 older than 1
}

TEST(ClusterState, VictimSelectionFailsWhenPinnedBlocksAll) {
  ClusterState st(1, 100.0);
  st.add(0, 1, 100.0, 0.0);
  auto one = [](wl::FileId) { return 1.0; };
  auto size = [](wl::FileId) { return 100.0; };
  EXPECT_TRUE(
      st.select_victims(0, 50.0, {1}, EvictionPolicy::kLru, one, size)
          .empty());
}

// The eviction order select_victims promises on node 0, written as the full
// sort it replaced: every unpinned cached file by (key, file) ascending,
// taken until `need` bytes are freed; empty when even all of them fall
// short.
std::vector<wl::FileId> victims_by_full_sort(
    const ClusterState& st, double need, const std::vector<wl::FileId>& cached,
    const std::vector<wl::FileId>& pinned, EvictionPolicy policy,
    const std::vector<double>& last_use,
    const std::function<double(wl::FileId)>& freq,
    const std::function<double(wl::FileId)>& size) {
  std::vector<std::pair<double, wl::FileId>> order;
  for (wl::FileId f : cached) {
    if (std::find(pinned.begin(), pinned.end(), f) != pinned.end()) continue;
    double key = 0.0;
    switch (policy) {
      case EvictionPolicy::kPopularity:
        key = freq(f) * size(f) / static_cast<double>(st.num_copies(f));
        break;
      case EvictionPolicy::kLru:
        key = last_use[f];
        break;
      case EvictionPolicy::kSizeAscending:
        key = size(f);
        break;
    }
    order.push_back({key, f});
  }
  std::sort(order.begin(), order.end());
  std::vector<wl::FileId> victims;
  double freed = 0.0;
  for (const auto& [key, f] : order) {
    if (freed >= need) break;
    victims.push_back(f);
    freed += size(f);
  }
  if (freed < need) return {};
  return victims;
}

TEST(ClusterState, SelectVictimsMatchesFullSort) {
  const EvictionPolicy policies[] = {EvictionPolicy::kPopularity,
                                     EvictionPolicy::kLru,
                                     EvictionPolicy::kSizeAscending};
  std::mt19937_64 rng(7);
  auto uniform = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t num_files = 4 + uniform(60);
    // Few distinct sizes, frequencies and use stamps, so equal keys are
    // common and the file id has to break the tie.
    std::vector<double> sizes(num_files), freqs(num_files);
    for (std::size_t f = 0; f < num_files; ++f) {
      sizes[f] = 10.0 * static_cast<double>(1 + uniform(4));
      freqs[f] = static_cast<double>(uniform(4));
    }
    ClusterState st(3, 1e9);
    std::vector<wl::FileId> cached;
    std::vector<double> last_use(num_files, 0.0);
    for (std::size_t f = 0; f < num_files; ++f) {
      const auto file = static_cast<wl::FileId>(f);
      if (uniform(4) != 0) {
        const double avail = static_cast<double>(uniform(3));
        st.add(0, file, sizes[f], avail);
        const double use = static_cast<double>(uniform(5));
        st.touch(0, file, use);
        last_use[f] = std::max(avail, use);
        cached.push_back(file);
      }
      // Extra copies elsewhere change the popularity key's divisor.
      for (wl::NodeId n : {1u, 2u})
        if (uniform(3) == 0) st.add(n, file, sizes[f], 0.0);
    }
    std::vector<wl::FileId> pinned;
    for (wl::FileId f : cached)
      if (uniform(5) == 0) pinned.push_back(f);
    double total = 0.0;
    for (wl::FileId f : cached) total += sizes[f];
    // From nothing to more than every unpinned byte (unsatisfiable).
    const double need = total * 1.1 * static_cast<double>(uniform(101)) / 100.0;
    auto freq = [&](wl::FileId f) { return freqs[f]; };
    auto size = [&](wl::FileId f) { return sizes[f]; };
    for (EvictionPolicy policy : policies) {
      const std::vector<wl::FileId> got =
          st.select_victims(0, need, pinned, policy, freq, size);
      const std::vector<wl::FileId> want = victims_by_full_sort(
          st, need, cached, pinned, policy, last_use, freq, size);
      ASSERT_EQ(got, want) << "trial " << trial << " policy "
                           << static_cast<int>(policy) << " need " << need;
    }
  }
}

// --- Engine tests on tiny hand-checkable workloads. ---

wl::Workload tiny_workload(std::size_t tasks, std::size_t files_per_task,
                           double overlap, std::uint64_t seed = 1) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.files_per_task = files_per_task;
  cfg.overlap = overlap;
  cfg.file_size_bytes = 100.0 * kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

ClusterConfig tiny_cluster() {
  ClusterConfig c;
  c.num_compute_nodes = 2;
  c.num_storage_nodes = 2;
  c.storage_disk_bw = 100.0 * kMB;   // remote: 1 s per 100 MB file
  c.storage_net_bw = 1000.0 * kMB;
  c.compute_net_bw = 400.0 * kMB;    // replica: 0.25 s per file
  c.local_disk_bw = 1000.0 * kMB;
  return c;
}

SubBatchPlan all_on(const wl::Workload& w, wl::NodeId node) {
  SubBatchPlan p;
  for (const auto& t : w.tasks()) {
    p.tasks.push_back(t.id);
    p.assignment[t.id] = node;
  }
  return p;
}

TEST(Engine, SingleTaskTiming) {
  // One task, one 100 MB file: remote 1 s + local read 0.1 s + compute.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(1);
  tasks[0].files = {0};
  tasks[0].compute_seconds = 2.0;
  wl::Workload w(std::move(tasks), std::move(files));

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(all_on(w, 0)).value();
  EXPECT_EQ(stats.tasks_executed, 1u);
  EXPECT_EQ(stats.remote_transfers, 1u);
  EXPECT_EQ(stats.replications, 0u);
  EXPECT_NEAR(eng.makespan(), 1.0 + 0.1 + 2.0, 1e-9);
}

TEST(Engine, SharedFileIsTransferredOnceToSameNode) {
  // Two tasks on the same node sharing one file: one remote transfer.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(all_on(w, 0)).value();
  EXPECT_EQ(stats.remote_transfers, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Engine, ReplicationBeatsSecondRemoteTransfer) {
  // Two tasks on different nodes sharing one file. The second node should
  // replicate (0.25 s) from the first rather than re-fetch remotely (1 s),
  // because the engine's dynamic rule picks the faster source.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 1u);
  EXPECT_EQ(stats.replications, 1u);
  EXPECT_GT(stats.replica_bytes, 0.0);
}

TEST(Engine, NoReplicationFlagForcesRemote) {
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;

  ClusterConfig c = tiny_cluster();
  c.allow_replication = false;
  ExecutionEngine eng(c, w);
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 2u);
  EXPECT_EQ(stats.replications, 0u);
}

TEST(Engine, FixedStagingDirectiveIsHonoured) {
  // Force the second node to use a remote transfer even though a replica
  // would be faster (IP plans fix sources statically).
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;
  p.staging[{0u, 0u}] = {SourceKind::kRemote, wl::kInvalidNode};
  p.staging[{0u, 1u}] = {SourceKind::kRemote, wl::kInvalidNode};

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 2u);
  EXPECT_EQ(stats.replications, 0u);
}

TEST(Engine, StorageContentionSerialisesTransfers) {
  // Two tasks on different nodes, distinct files on the SAME storage node:
  // the single-port model serialises the two 1 s transfers.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {1};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;

  ExecutionEngine eng(tiny_cluster(), w);
  ASSERT_TRUE(eng.execute(p).ok());
  // Second transfer starts at 1.0; completes 2.0; + 0.1 read.
  EXPECT_NEAR(eng.makespan(), 2.1, 1e-9);
  eng.storage_timeline(0).validate();
}

TEST(Engine, EvictionTriggersWhenDiskIsTight) {
  // Disk holds exactly one 100 MB file; two tasks on the same node with
  // different files force an eviction.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {1};
  wl::Workload w(std::move(tasks), std::move(files));

  ClusterConfig c = tiny_cluster();
  c.disk_capacity = 100.0 * kMB;
  ExecutionEngine eng(c, w);
  auto stats = eng.execute(all_on(w, 0)).value();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.remote_transfers, 2u);
}

TEST(Engine, RestageCountsEvictedFileFetchedAgain) {
  // File 0 is needed by tasks 1 and 3; file 1 (task 2) evicts it in
  // between, so file 0 is staged twice.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(3);
  tasks[0].files = {0};
  tasks[1].files = {1};
  tasks[2].files = {0};
  // In one sub-batch the ECT rule would smartly run the two file-0 tasks
  // back to back; split into two sub-batches to force the interleaving.
  wl::Workload w(std::move(tasks), std::move(files));

  ClusterConfig c = tiny_cluster();
  c.disk_capacity = 100.0 * kMB;
  EngineOptions lru_opts;
  lru_opts.eviction = EvictionPolicy::kLru;
  ExecutionEngine eng(c, w, lru_opts);
  SubBatchPlan p1;
  p1.tasks = {0, 1};
  p1.assignment[0] = 0;
  p1.assignment[1] = 0;
  SubBatchPlan p2;
  p2.tasks = {2};
  p2.assignment[2] = 0;
  auto s1 = eng.execute(p1).value();
  auto s2 = eng.execute(p2).value();
  EXPECT_EQ(s1.remote_transfers, 2u);
  EXPECT_EQ(s1.evictions, 1u);  // file 0 evicted to admit file 1
  EXPECT_EQ(s2.evictions, 1u);  // file 1 evicted to re-admit file 0
  EXPECT_EQ(s2.remote_transfers + s2.replications, 1u);
  EXPECT_EQ(s2.restages, 1u);  // file 0 staged again after eviction
}

TEST(Engine, MakespanMonotonicAcrossSubBatches) {
  wl::Workload w = tiny_workload(12, 3, 0.5);
  ExecutionEngine eng(tiny_cluster(), w);
  SubBatchPlan p1, p2;
  for (wl::TaskId t = 0; t < 6; ++t) {
    p1.tasks.push_back(t);
    p1.assignment[t] = t % 2;
  }
  for (wl::TaskId t = 6; t < 12; ++t) {
    p2.tasks.push_back(t);
    p2.assignment[t] = t % 2;
  }
  ASSERT_TRUE(eng.execute(p1).ok());
  double m1 = eng.makespan();
  ASSERT_TRUE(eng.execute(p2).ok());
  EXPECT_GE(eng.makespan(), m1);
  EXPECT_EQ(eng.totals().tasks_executed, 12u);
}

TEST(Engine, EveryRequestedFileRemotelyTransferredAtLeastOnce) {
  wl::Workload w = tiny_workload(20, 4, 0.6, 7);
  ExecutionEngine eng(tiny_cluster(), w);
  SubBatchPlan p = all_on(w, 0);
  for (auto& [t, n] : p.assignment) n = t % 2;
  auto stats = eng.execute(p).value();
  std::size_t requested = 0;
  for (const auto& f : w.files())
    if (!w.tasks_of_file(f.id).empty()) ++requested;
  EXPECT_GE(stats.remote_transfers, requested);
}

TEST(Engine, PendingRequestsDrainToZero) {
  wl::Workload w = tiny_workload(10, 3, 0.4, 3);
  ExecutionEngine eng(tiny_cluster(), w);
  SubBatchPlan p = all_on(w, 0);
  ASSERT_TRUE(eng.execute(p).ok());
  for (const auto& f : w.files())
    EXPECT_DOUBLE_EQ(eng.pending_requests(f.id), 0.0);
}

TEST(Engine, TimelinesNeverOverlap) {
  wl::Workload w = tiny_workload(30, 4, 0.7, 11);
  ClusterConfig c = tiny_cluster();
  c.disk_capacity = 500.0 * kMB;
  ExecutionEngine eng(c, w);
  SubBatchPlan p = all_on(w, 0);
  for (auto& [t, n] : p.assignment) n = t % 2;
  ASSERT_TRUE(eng.execute(p).ok());
  for (std::size_t s = 0; s < c.num_storage_nodes; ++s)
    eng.storage_timeline(s).validate();
  for (std::size_t n = 0; n < c.num_compute_nodes; ++n)
    eng.compute_timeline(n).validate();
}

TEST(Cluster, Presets) {
  ClusterConfig xio = xio_cluster(4, 4);
  EXPECT_DOUBLE_EQ(Topology(xio).uniform_remote_bw(), 210.0 * kMB);
  ClusterConfig osumed = osumed_cluster(8, 4);
  Topology osumed_topo(osumed);
  EXPECT_DOUBLE_EQ(osumed_topo.uniform_remote_bw(), 12.5 * kMB);
  EXPECT_EQ(osumed.num_compute_nodes, 8u);
  EXPECT_GT(osumed_topo.uniform_replica_bw(), osumed_topo.uniform_remote_bw());
  EXPECT_TRUE(xio.validate().ok());
  EXPECT_TRUE(osumed.validate().ok());
}

}  // namespace
}  // namespace bsio::sim
