// Session goldens: run_batch outcomes recorded before run_batch and the
// stream service were folded onto one session loop (sched/driver.h).
//
// The topology goldens pin fault-free runs. The rows below pin the paths
// the fold moved most: the lazy MinMin heap planned through delta
// insertion, crash-orphan re-planning through the incremental planner for
// JobDataPresent, IP, BiPartition and MinMin, transfer retries, tiered
// replication with background repair, and speculation on a degraded node.
// Every value was captured from the batch driver as it stood before the
// fold; a mismatch means the session stopped reproducing that driver, not
// that the table needs regenerating. The write/repair row was recorded
// before the engine's foreground staging, background repair and write-back
// flush were folded onto one copy pricer: it pins flush_to_home, capped
// stage_replica and a stale-home read that counts lost_versions. The
// Sufferage and MaxMin rows were recorded before their per-node
// estimate_completion calls became one estimate_completion_row per task
// and their tie rule became the one MinMin uses. Each row must hold at 1,
// 2 and 8 planning threads.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sched/alternatives.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "service/catalog.h"
#include "sim/cluster.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

struct GoldenCase {
  const char* name;
  wl::Workload workload;
  sim::ClusterConfig cluster;
  sched::BatchRunOptions options;
  std::function<std::unique_ptr<sched::Scheduler>()> make;
};

wl::Workload synthetic(std::size_t tasks, std::size_t files_per_task,
                       double overlap, double file_mb, std::uint64_t seed) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.files_per_task = files_per_task;
  cfg.overlap = overlap;
  cfg.file_size_bytes = file_mb * sim::kMB;
  cfg.num_storage_nodes = 4;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

// Truncated by node count, never wall clock, so the IP plan is exact.
std::unique_ptr<sched::Scheduler> deterministic_ip() {
  sched::IpSchedulerOptions o = sched::IpScheduler::default_options();
  for (ip::MipOptions* m : {&o.selection_mip, &o.allocation_mip}) {
    m->time_limit_seconds = 1e9;
    m->max_nodes = 2000;
    m->stall_node_limit = 64;
  }
  return std::make_unique<sched::IpScheduler>(o);
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const auto lazy_minmin = [] {
    return std::make_unique<sched::MinMinScheduler>(400, 32);
  };
  {
    // 480 tasks: above the exact threshold, so the lazy heap plans.
    GoldenCase c{"lazy-minmin", synthetic(480, 4, 0.8, 20.0, 3),
                 sim::xio_cluster(8, 4), {}, lazy_minmin};
    c.cluster.disk_capacity = 1.0 * sim::kGB;
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"lazy-minmin-crash", synthetic(480, 4, 0.8, 20.0, 3),
                 sim::xio_cluster(8, 4), {}, lazy_minmin};
    c.cluster.disk_capacity = 1.0 * sim::kGB;
    c.options.faults.compute_crashes = {{2, 20.0}};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"jdp-crash", synthetic(60, 3, 0.6, 50.0, 5),
                 sim::osumed_cluster(4, 4), {}, [] {
                   return std::make_unique<sched::JobDataPresentScheduler>();
                 }};
    c.options.faults.compute_crashes = {{1, 40.0}};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"ip-crash", synthetic(24, 3, 0.5, 50.0, 11),
                 sim::xio_cluster(4, 4), {}, deterministic_ip};
    c.options.faults.compute_crashes = {{1, 2.0}};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"bipartition-faults-rf", synthetic(120, 4, 0.7, 40.0, 7),
                 sim::xio_cluster(6, 4), {}, [] {
                   return std::make_unique<sched::BiPartitionScheduler>();
                 }};
    c.cluster.disk_capacity = 0.6 * sim::kGB;
    c.options.faults.seed = 17;
    c.options.faults.transfer_failure_prob = 0.01;
    c.options.faults.compute_crashes = {{0, 6.0}};
    c.options.replication.enabled = true;
    c.options.replication.tiers = {{0.0, 1}, {3.0, 2}};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"minmin-speculation", synthetic(40, 3, 0.5, 64.0, 23),
                 sim::xio_cluster(4, 4), {}, [] {
                   return std::make_unique<sched::MinMinScheduler>();
                 }};
    c.options.faults.compute_slowdowns = {
        {0, 0.0, std::numeric_limits<double>::infinity(), 6.0}};
    c.options.speculation.enabled = true;
    c.options.speculation.straggler_ratio = 1.3;
    c.options.speculation.min_cached_inputs = 0;
    cases.push_back(std::move(c));
  }
  {
    // Writes with capped repair: node 1 crashes before the first repair
    // round, taking un-flushed versions with it (a stale-home read counts
    // lost_versions); the rounds after each sub-batch flush dirty homes and
    // fan hot files out at 40 MB/s.
    service::SharedCatalogConfig catalog;
    catalog.num_files = 48;
    catalog.mean_file_size_bytes = 40.0 * sim::kMB;
    catalog.seed = 3;
    service::ServiceBatchConfig batch;
    batch.tasks_per_batch = 96;
    batch.files_per_task = 3;
    batch.write_fraction = 0.3;
    wl::Workload w = service::make_service_batch(
        service::make_shared_catalog(catalog), batch, 29);
    GoldenCase c{"bipartition-writes-repair", std::move(w),
                 sim::xio_cluster(6, 4), {}, [] {
                   return std::make_unique<sched::BiPartitionScheduler>();
                 }};
    c.cluster.disk_capacity = 0.5 * sim::kGB;
    c.options.faults.compute_crashes = {{1, 5.0}};
    c.options.replication.enabled = true;
    c.options.replication.tiers = {{0.0, 1}, {1.0, 2}};
    c.options.replication.repair_bandwidth_cap = 40.0 * sim::kMB;
    cases.push_back(std::move(c));
  }
  {
    // Sufferage and MaxMin under a crash and on limited disks: their MCT
    // rows, the shared node-choice tie rule and crash-orphan re-planning.
    GoldenCase c{"sufferage-crash", synthetic(80, 3, 0.6, 40.0, 13),
                 sim::xio_cluster(6, 4), {}, [] {
                   return std::make_unique<sched::SufferageScheduler>();
                 }};
    c.cluster.disk_capacity = 0.8 * sim::kGB;
    c.options.faults.compute_crashes = {{2, 5.0}};
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c{"maxmin-retries", synthetic(80, 4, 0.7, 40.0, 19),
                 sim::osumed_cluster(4, 4), {}, [] {
                   return std::make_unique<sched::MaxMinScheduler>();
                 }};
    c.options.faults.seed = 5;
    c.options.faults.transfer_failure_prob = 0.01;
    c.options.faults.compute_crashes = {{0, 30.0}};
    cases.push_back(std::move(c));
  }
  return cases;
}

// FNV-1a over the bits of the sorted task completion instants.
std::uint64_t completion_hash(const std::vector<double>& times) {
  std::uint64_t h = 1469598103934665603ull;
  for (double t : times) {
    h ^= std::bit_cast<std::uint64_t>(t);
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenRow {
  const char* name;
  double makespan;  // hexfloat: compared for exact bit equality
  std::size_t sub_batches;
  std::uint64_t remote_transfers;
  std::uint64_t replications;
  std::uint64_t evictions;
  std::uint64_t cache_hits;
  std::uint64_t transfer_retries;
  std::uint64_t task_reexecutions;
  std::uint64_t node_crashes;
  std::uint64_t speculative_launches;
  std::uint64_t speculative_wins;
  std::uint64_t replicas_created;
  std::uint64_t home_flushes;
  std::uint64_t lost_versions;
  double remote_bytes;
  double replica_bytes;
  double recovery_seconds;
  double wasted_seconds;
  double repair_bytes;
  double repair_seconds;
  std::int64_t lp_pivots;
  std::int64_t mip_nodes;
  std::size_t replica_deficit;
  std::uint64_t completions;  // completion_hash of task_completion_times
};

const GoldenRow kGolden[] = {
    // clang-format off
    {"lazy-minmin", 0x1.f4e434a9b1007p+4, 1,
     962, 72, 626, 886, 0, 0, 0, 0, 0, 0, 0, 0,
     0x1.2cap+34, 0x1.68p+30, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 0x7ac8091cedd1a1a9ull},
    {"lazy-minmin-crash", 0x1.fd93bfa2608b3p+4, 2,
     972, 55, 619, 897, 0, 1, 1, 0, 0, 0, 0, 0,
     0x1.2fcp+34, 0x1.13p+30, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 0x10a5e616ae2e3707ull},
    {"jdp-crash", 0x1.3a59999999996p+8, 2,
     76, 28, 0, 79, 0, 1, 1, 0, 0, 0, 0, 0,
     0x1.dbp+31, 0x1.5ep+30, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 0xd0e1d77f5c74703aull},
    {"ip-crash", 0x1.0652e52e52e53p+3, 2,
     46, 5, 0, 24, 0, 1, 1, 0, 0, 0, 0, 0,
     0x1.1f8p+31, 0x1.f4p+27, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
     3192, 204, 0, 0xce0bcdd98d88a28ull},
    {"bipartition-faults-rf", 0x1.066859b8cebfcp+5, 8,
     325, 18, 303, 141, 4, 1, 1, 0, 0, 49, 0, 0,
     0x1.964p+33, 0x1.68p+29, 0x1.6186186186186p+1, 0x0p+0, 0x1.eap+30,
     0x1.2aaaaaaaaaaabp+3,
     0, 0, 0, 0x25b0cf945a39d0f8ull},
    {"minmin-speculation", 0x1.57a0095cbec1bp+4, 1,
     91, 0, 0, 48, 0, 0, 0, 7, 7, 0, 0, 0,
     0x1.6cp+32, 0x0p+0, 0x0p+0, 0x1.27e322092ad03p+3, 0x0p+0, 0x0p+0,
     0, 0, 0, 0x92edbf6eee695289ull},
    {"bipartition-writes-repair", 0x1.820da90c98cb1p+4, 2,
     74, 43, 18, 174, 0, 1, 1, 0, 0, 11, 18, 1,
     0x1.77453a8a768cbp+31, 0x1.b358b9e5f38d8p+30, 0x0p+0, 0x0p+0,
     0x1.2453b490d54dbp+30, 0x1.d3b920e7bbaf9p+4,
     0, 0, 2, 0x265911b65724b763ull},
    {"sufferage-crash", 0x1.601767dce4343p+4, 2,
     134, 1, 62, 108, 0, 1, 1, 0, 0, 0, 0, 0,
     0x1.4fp+32, 0x1.4p+25, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 0x9752ccdc16959d0dull},
    {"maxmin-retries", 0x1.57b851eb851dfp+8, 2,
     101, 71, 0, 152, 4, 1, 1, 0, 0, 0, 0, 0,
     0x1.f9p+31, 0x1.63p+31, 0x1.7333333333334p+2, 0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 0x2dd657631b78ca8dull},
    // clang-format on
};

TEST(SessionGoldens, RunBatchReproducesPreFoldDriver) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(std::size(kGolden), cases.size());
  for (std::size_t threads : {1, 2, 8}) {
    WsRuntime::set_global_threads(threads);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const GoldenCase& c = cases[i];
      const GoldenRow& g = kGolden[i];
      SCOPED_TRACE(std::string(c.name) + " at " + std::to_string(threads) +
                   " threads");
      ASSERT_EQ(std::string(g.name), c.name);
      auto scheduler = c.make();
      const sched::BatchRunResult r =
          sched::run_batch(*scheduler, c.workload, c.cluster, c.options);
      ASSERT_TRUE(r.ok()) << r.error;
      const sim::ExecutionStats& s = r.stats;
      EXPECT_EQ(r.batch_time, g.makespan);
      EXPECT_EQ(r.sub_batches, g.sub_batches);
      EXPECT_EQ(s.tasks_executed, c.workload.num_tasks());
      EXPECT_EQ(s.remote_transfers, g.remote_transfers);
      EXPECT_EQ(s.replications, g.replications);
      EXPECT_EQ(s.evictions, g.evictions);
      EXPECT_EQ(s.cache_hits, g.cache_hits);
      EXPECT_EQ(s.transfer_retries, g.transfer_retries);
      EXPECT_EQ(s.task_reexecutions, g.task_reexecutions);
      EXPECT_EQ(s.node_crashes, g.node_crashes);
      EXPECT_EQ(s.speculative_launches, g.speculative_launches);
      EXPECT_EQ(s.speculative_wins, g.speculative_wins);
      EXPECT_EQ(s.replicas_created, g.replicas_created);
      EXPECT_EQ(s.home_flushes, g.home_flushes);
      EXPECT_EQ(s.lost_versions, g.lost_versions);
      EXPECT_EQ(s.remote_bytes, g.remote_bytes);
      EXPECT_EQ(s.replica_bytes, g.replica_bytes);
      EXPECT_EQ(s.recovery_seconds, g.recovery_seconds);
      EXPECT_EQ(s.wasted_seconds, g.wasted_seconds);
      EXPECT_EQ(s.repair_bytes, g.repair_bytes);
      EXPECT_EQ(s.repair_seconds, g.repair_seconds);
      EXPECT_EQ(s.lp_pivots, g.lp_pivots);
      EXPECT_EQ(s.mip_nodes, g.mip_nodes);
      EXPECT_EQ(r.replica_deficit, g.replica_deficit);
      EXPECT_EQ(completion_hash(r.task_completion_times), g.completions);
    }
  }
  WsRuntime::set_global_threads(0);
}

}  // namespace
}  // namespace bsio
