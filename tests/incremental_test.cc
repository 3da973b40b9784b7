// Incremental (rolling-horizon) planning tests.
//
// Part 1 is the quiescence contract: a StreamServiceLoop fed ONE batch at
// t = 0 with a drain-all horizon must reproduce the batch driver — and the
// PR 4 topology goldens — BIT for BIT (hexfloat makespans, every engine
// counter), for MinMin (delta insertion) and BiPartition (part repair,
// including the limited-disk two-round presets), at 1, 2 and 8 planning
// threads. Part 2 unit-tests the planner mechanics: delta-extend leaving
// the earlier wave untouched, the BiPartition footprint gate, the
// commit_horizon freeze rule and its release-at-least-one progress rule,
// and the dirty-set derivation. Part 3 exercises the streaming loop proper:
// overlapping batches, SLO accounting, and the typed error surface.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/incremental.h"
#include "sched/minmin.h"
#include "service/catalog.h"
#include "service/stream.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

// ------------------------------------------------------ quiescence goldens

// Same workload and presets as tests/topology_test.cc kGolden.
wl::Workload golden_workload() {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 24;
  cfg.files_per_task = 3;
  cfg.overlap = 0.5;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.num_storage_nodes = 4;
  cfg.seed = 11;
  return wl::make_synthetic(cfg);
}

sim::ClusterConfig golden_preset(const std::string& name,
                                 double unique_bytes) {
  sim::ClusterConfig c = (name == "xio" || name == "xio_disk")
                             ? sim::xio_cluster(4, 4)
                             : sim::osumed_cluster(4, 4);
  if (name == "xio_disk" || name == "osumed_disk")
    c.disk_capacity = 0.35 * unique_bytes;
  return c;
}

struct QuiescentRow {
  const char* preset;
  bool bipartition;     // false = MinMin
  double batch_time;    // hexfloat: the PR 4 golden, bit-exact
  std::size_t windows;  // = the batch driver's sub_batches
};

// batch_time values are the kGolden rows of tests/topology_test.cc; a
// mismatch here means the incremental path stopped reproducing the batch
// arithmetic, not that these need regenerating.
const QuiescentRow kQuiescent[] = {
    // clang-format off
    {"xio",         false, 0x1.915f15f15f16p+2,   1},
    {"osumed",      false, 0x1.2519999999999p+7,  1},
    {"xio_disk",    false, 0x1.915f15f15f16p+2,   1},
    {"osumed_disk", false, 0x1.2519999999999p+7,  1},
    {"xio",         true,  0x1.915f15f15f16p+2,   1},
    {"osumed",      true,  0x1.268p+7,            1},
    {"xio_disk",    true,  0x1.a09c09c09c09dp+2,  2},
    {"osumed_disk", true,  0x1.23b3333333333p+7,  2},
    // clang-format on
};

std::unique_ptr<sched::Scheduler> quiescent_scheduler(bool bipartition) {
  if (bipartition)
    return std::make_unique<sched::BiPartitionScheduler>();
  return std::make_unique<sched::MinMinScheduler>();
}

TEST(StreamQuiescence, BitIdenticalToBatchDriverAtAnyThreadCount) {
  const wl::Workload w = golden_workload();
  const std::size_t thread_counts[] = {1, 2, 8};
  for (std::size_t threads : thread_counts) {
    WsRuntime::set_global_threads(threads);
    for (const QuiescentRow& row : kQuiescent) {
      SCOPED_TRACE(std::string(row.preset) +
                   (row.bipartition ? "/BiPartition/" : "/MinMin/") +
                   std::to_string(threads) + "t");
      const sim::ClusterConfig c =
          golden_preset(row.preset, w.unique_request_bytes());

      auto batch_sched = quiescent_scheduler(row.bipartition);
      const sched::BatchRunResult r =
          sched::run_batch(*batch_sched, w, c, sched::BatchRunOptions{});
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.batch_time, row.batch_time);
      EXPECT_EQ(r.sub_batches, row.windows);

      auto stream_sched = quiescent_scheduler(row.bipartition);
      service::StreamOptions sopts;  // drain-all horizon, no admission bound
      service::StreamServiceLoop loop(*stream_sched, c, w.files(), sopts);
      std::vector<service::BatchArrival> arrivals(1);
      arrivals[0] = {0.0, 0, {}, w};
      auto res = loop.run(std::move(arrivals));
      ASSERT_TRUE(res.ok()) << res.error().message;
      const service::StreamResult& s = res.value();

      // Bitwise, not approximate: the quiescence contract.
      EXPECT_EQ(s.stats.completion_time, r.batch_time);
      EXPECT_EQ(s.stats.windows_committed, r.sub_batches);
      EXPECT_EQ(s.stats.exec.remote_transfers, r.stats.remote_transfers);
      EXPECT_EQ(s.stats.exec.replications, r.stats.replications);
      EXPECT_EQ(s.stats.exec.evictions, r.stats.evictions);
      EXPECT_EQ(s.stats.exec.restages, r.stats.restages);
      EXPECT_EQ(s.stats.exec.cache_hits, r.stats.cache_hits);
      EXPECT_EQ(s.stats.exec.remote_bytes, r.stats.remote_bytes);
      EXPECT_EQ(s.stats.exec.replica_bytes, r.stats.replica_bytes);
      ASSERT_EQ(s.batches.size(), 1u);
      EXPECT_TRUE(s.batches[0].completed);
      EXPECT_EQ(s.batches[0].response_time, r.batch_time);
      EXPECT_EQ(s.stats.slo_attainment, 1.0);
      EXPECT_EQ(s.stats.tasks_executed, w.num_tasks());
    }
  }
  WsRuntime::set_global_threads(0);
}

// ------------------------------------------------------- planner mechanics

TEST(DeltaMinMin, ExtendLeavesEarlierWaveUntouched) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = golden_workload();
  const sim::ClusterConfig c = golden_preset("xio", w.unique_request_bytes());
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  auto planner = sched::make_incremental_planner(mm);

  std::vector<wl::TaskId> first, second;
  for (wl::TaskId t = 0; t < 12; ++t) first.push_back(t);
  for (wl::TaskId t = 12; t < 24; ++t) second.push_back(t);
  planner->extend(first, ctx);
  const std::vector<sched::LiveTask> snap = planner->live();
  ASSERT_EQ(snap.size(), 12u);

  planner->extend(second, ctx);
  ASSERT_EQ(planner->live().size(), 24u);
  // Delta insertion: the first wave's commitments (order AND placement)
  // survive verbatim; the newcomers only append.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(planner->live()[i].task, snap[i].task);
    EXPECT_EQ(planner->live()[i].node, snap[i].node);
  }
  WsRuntime::set_global_threads(0);
}

// Re-prices the live plan from scratch — reset against the engine's cache,
// then estimate and apply every entry in live order — and checks each
// entry's stamps bit for bit against that replay.
void expect_stamps_match_replay(const sched::IncrementalPlanner& planner,
                                const sched::SchedulerContext& ctx,
                                double origin, const std::string& where) {
  sched::PlannerState ps;
  ps.reset(ctx.batch, ctx.topology, ctx.engine.state(), origin);
  for (const sched::LiveTask& lt : planner.live()) {
    const double start = ps.node_ready[lt.node];
    const sched::CompletionEstimate est = sched::estimate_completion(
        ctx.batch, ctx.topology, ps, lt.task, lt.node);
    sched::apply_assignment(ctx.batch, ctx.topology, ps, lt.task, lt.node,
                            est);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(lt.est_start),
              std::bit_cast<std::uint64_t>(start))
        << where << ": task " << lt.task;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(lt.est_completion),
              std::bit_cast<std::uint64_t>(est.completion))
        << where << ": task " << lt.task;
  }
}

TEST(DeltaMinMin, InsertStampsMatchReplay) {
  WsRuntime::set_global_threads(1);
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 48;
  cfg.files_per_task = 3;
  cfg.overlap = 0.6;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.file_size_jitter = 0.3;
  cfg.num_storage_nodes = 4;
  cfg.seed = 5;
  const wl::Workload w = wl::make_synthetic(cfg);
  const sim::ClusterConfig c = sim::osumed_cluster(4, 4);
  // The exact sweep, and the lazy heap (threshold 4) on the same script.
  for (std::size_t threshold : {std::size_t{400}, std::size_t{4}}) {
    const std::string where = "threshold " + std::to_string(threshold);
    sched::MinMinScheduler mm(threshold);
    sim::EngineOptions eo;
    eo.eviction = mm.eviction_policy();
    sim::ExecutionEngine eng(c, w, eo);
    sched::SchedulerContext ctx{w, c, eng};
    auto planner = sched::make_incremental_planner(mm);

    std::vector<wl::TaskId> wave;
    for (wl::TaskId t = 0; t < 16; ++t) wave.push_back(t);
    planner->extend(wave, ctx);
    expect_stamps_match_replay(*planner, ctx, 0.0, where + " first extend");

    // Run part of the plan so the engine holds cached copies, move the
    // planner's origin, and insert the next wave on top of the rest.
    sched::HorizonOptions h;
    h.window_seconds = 1.0;
    const sim::SubBatchPlan window = planner->commit_horizon(h);
    ASSERT_FALSE(window.tasks.empty());
    ASSERT_TRUE(eng.execute(window).ok());
    const double origin = 2.0;
    planner->set_origin(origin);
    wave.clear();
    for (wl::TaskId t = 16; t < 40; ++t) wave.push_back(t);
    planner->extend(wave, ctx);
    expect_stamps_match_replay(*planner, ctx, origin, where + " extend");

    // Repair: the live readers of the window's files are re-inserted.
    std::vector<wl::FileId> touched;
    for (wl::TaskId t : window.tasks)
      for (wl::FileId f : w.task(t).files) touched.push_back(f);
    const std::vector<wl::TaskId> dirty = planner->dirty_from_files(w, touched);
    ASSERT_FALSE(dirty.empty()) << where;
    planner->repair(dirty, ctx);
    expect_stamps_match_replay(*planner, ctx, origin, where + " repair");
  }
  WsRuntime::set_global_threads(0);
}

// Files 0..5 over 2 storage nodes; tasks 2 and 3 differ in whether they
// share a file with the {0, 1} part (task 2 disjoint, task 3 reads file 0).
wl::Workload gate_workload() {
  std::vector<wl::FileInfo> files;
  for (wl::FileId f = 0; f < 6; ++f)
    files.push_back({f, 10.0 * sim::kMB, static_cast<wl::NodeId>(f % 2)});
  std::vector<wl::TaskInfo> tasks;
  tasks.push_back({0, 1.0, {0, 1}, {}});
  tasks.push_back({1, 1.0, {0, 2}, {}});
  tasks.push_back({2, 1.0, {3, 4}, {}});
  tasks.push_back({3, 1.0, {0, 5}, {}});
  return wl::Workload(tasks, files);
}

sim::ClusterConfig small_cluster(std::size_t compute, std::size_t storage) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = storage;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  return c;
}

TEST(PartRepair, FootprintGateKeepsDisjointPartStanding) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = gate_workload();
  const sim::ClusterConfig c = small_cluster(2, 2);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  sched::PartRepairPlanner planner(mm, /*footprint_gate=*/true);

  planner.extend({0, 1}, ctx);
  ASSERT_EQ(planner.live().size(), 2u);
  const std::vector<sched::LiveTask> snap = planner.live();

  // Task 2 shares no file with the live part: the selection stands, the
  // newcomer only queues in the backlog.
  planner.extend({2}, ctx);
  ASSERT_EQ(planner.live().size(), 2u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(planner.live()[i].task, snap[i].task);
    EXPECT_EQ(planner.live()[i].node, snap[i].node);
  }
  ASSERT_EQ(planner.backlog().size(), 1u);
  EXPECT_EQ(planner.backlog()[0], 2u);

  // Task 3 reads file 0, dirtying the part: it dissolves and level-1
  // selection re-runs over everything outstanding.
  planner.extend({3}, ctx);
  EXPECT_EQ(planner.live().size(), 4u);
  EXPECT_TRUE(planner.backlog().empty());
  WsRuntime::set_global_threads(0);
}

TEST(PartRepair, RepairDissolvesOnlyWhenDirtyHitsLive) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = gate_workload();
  const sim::ClusterConfig c = small_cluster(2, 2);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  sched::PartRepairPlanner planner(mm, /*footprint_gate=*/true);

  planner.extend({0, 1}, ctx);
  const std::vector<sched::LiveTask> snap = planner.live();
  // Dirty set disjoint from the live part: nothing moves.
  planner.repair({2}, ctx);
  ASSERT_EQ(planner.live().size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(planner.live()[i].task, snap[i].task);
  // Dirty set hitting the part: full replan (still both tasks, repriced).
  planner.repair({0}, ctx);
  EXPECT_EQ(planner.live().size(), 2u);
  WsRuntime::set_global_threads(0);
}

TEST(DeltaMinMin, DirtyFromFilesIntersectsLiveFootprints) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = gate_workload();
  const sim::ClusterConfig c = small_cluster(2, 2);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  auto planner = sched::make_incremental_planner(mm);
  planner->extend({0, 1, 2, 3}, ctx);

  // File 0 is read by tasks 0, 1 and 3; file 3 only by task 2.
  std::vector<wl::TaskId> d0 = planner->dirty_from_files(w, {0});
  std::vector<wl::TaskId> d3 = planner->dirty_from_files(w, {3});
  EXPECT_EQ(d0, (std::vector<wl::TaskId>{0, 1, 3}));
  EXPECT_EQ(d3, (std::vector<wl::TaskId>{2}));
  EXPECT_TRUE(planner->dirty_from_files(w, {}).empty());
  WsRuntime::set_global_threads(0);
}

TEST(CommitHorizon, FreezeRuleAndEnsureProgress) {
  WsRuntime::set_global_threads(1);
  // One compute node: the three tasks serialize, so their estimated starts
  // strictly increase.
  std::vector<wl::FileInfo> files = {{0, 50.0 * sim::kMB, 0}};
  std::vector<wl::TaskInfo> tasks = {
      {0, 10.0, {0}, {}}, {1, 10.0, {0}, {}}, {2, 10.0, {0}, {}}};
  const wl::Workload w(tasks, files);
  const sim::ClusterConfig c = small_cluster(1, 1);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  auto planner = sched::make_incremental_planner(mm);
  planner->extend({0, 1, 2}, ctx);
  ASSERT_EQ(planner->live().size(), 3u);
  EXPECT_EQ(planner->live()[0].est_start, 0.0);
  EXPECT_GT(planner->live()[1].est_start, 1.0);
  EXPECT_GT(planner->live()[2].est_start, planner->live()[1].est_start);

  // A 1-second window contains only the first task's start.
  sched::HorizonOptions h;
  h.window_seconds = 1.0;
  sim::SubBatchPlan p1 = planner->commit_horizon(h);
  ASSERT_EQ(p1.tasks.size(), 1u);
  EXPECT_EQ(p1.tasks[0], 0u);
  EXPECT_EQ(planner->live().size(), 2u);

  // The survivors start past the window; the progress rule still releases
  // the earliest one.
  sim::SubBatchPlan p2 = planner->commit_horizon(h);
  ASSERT_EQ(p2.tasks.size(), 1u);
  EXPECT_EQ(p2.tasks[0], 1u);

  EXPECT_EQ(planner->live().size(), 1u);

  // Drain-all freezes whatever remains.
  h.window_seconds = 0.0;
  sim::SubBatchPlan p4 = planner->commit_horizon(h);
  ASSERT_EQ(p4.tasks.size(), 1u);
  EXPECT_EQ(p4.tasks[0], 2u);
  EXPECT_TRUE(planner->drained());
  WsRuntime::set_global_threads(0);
}

// A faulty base scheduler: `repeat` names its first pending task twice;
// otherwise it always plans task 0, which is no longer pending from the
// second round on. The session's window checks must stop both.
class FaultyScheduler : public sched::Scheduler {
 public:
  explicit FaultyScheduler(bool repeat) : repeat_(repeat) {}
  std::string name() const override { return "faulty"; }
  sim::SubBatchPlan plan_sub_batch(const std::vector<wl::TaskId>& pending,
                                   const sched::SchedulerContext&) override {
    sim::SubBatchPlan plan;
    const wl::TaskId t = repeat_ ? pending.front() : 0;
    plan.tasks = repeat_ ? std::vector<wl::TaskId>{t, t}
                         : std::vector<wl::TaskId>{t};
    plan.assignment[t] = 0;
    return plan;
  }

 private:
  bool repeat_;
};

TEST(SessionChecksDeathTest, WindowRepeatingATaskAborts) {
  const wl::Workload w = gate_workload();
  FaultyScheduler s(/*repeat=*/true);
  EXPECT_DEATH(sched::run_batch(s, w, small_cluster(2, 2)),
               "window repeats tasks");
}

TEST(SessionChecksDeathTest, WindowNamingACommittedTaskAborts) {
  const wl::Workload w = gate_workload();
  FaultyScheduler s(/*repeat=*/false);
  EXPECT_DEATH(sched::run_batch(s, w, small_cluster(2, 2)),
               "committed to an earlier window");
}

// --------------------------------------------------------- streaming loop

std::vector<wl::FileInfo> stream_catalog(std::uint64_t seed = 7) {
  service::SharedCatalogConfig cfg;
  cfg.num_files = 32;
  cfg.mean_file_size_bytes = 25.0 * sim::kMB;
  cfg.file_size_jitter = 0.2;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return service::make_shared_catalog(cfg);
}

TEST(StreamService, OverlappingBatchesCompleteWithSloAccounting) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  const sim::ClusterConfig c = small_cluster(4, 2);

  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 6;
  bcfg.files_per_task = 3;
  bcfg.zipf_s = 1.0;
  service::ArrivalConfig acfg;
  acfg.rate = 0.5;  // arrivals land while earlier batches still run
  acfg.num_batches = 4;
  acfg.seed = 3;
  acfg.slo_classes = {{50.0, 4.0}, {200.0, 1.0}};
  service::BatchArrivalProcess process(catalog, bcfg, acfg);
  auto arrivals = process.generate();
  ASSERT_TRUE(arrivals.ok()) << arrivals.error().message;

  service::StreamOptions opts;
  opts.admission.policy = service::AdmissionPolicy::kDeadlineAware;
  opts.admission.aging_weight = 0.1;
  opts.horizon.window_seconds = 20.0;
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, c, catalog, opts);
  auto res = loop.run(std::move(arrivals).value());
  ASSERT_TRUE(res.ok()) << res.error().message;
  const service::StreamResult& s = res.value();

  EXPECT_EQ(s.stats.batches_arrived, 4u);
  EXPECT_EQ(s.stats.batches_completed, 4u);
  EXPECT_EQ(s.stats.rejected_batches, 0u);
  EXPECT_EQ(s.stats.shed_batches, 0u);
  EXPECT_EQ(s.stats.tasks_executed, 4u * 6u);
  EXPECT_GE(s.stats.p99_response, s.stats.p50_response);
  EXPECT_GE(s.stats.slo_attainment, 0.0);
  EXPECT_LE(s.stats.slo_attainment, 1.0);
  std::size_t met = 0;
  for (const service::StreamBatchMetrics& m : s.batches) {
    EXPECT_TRUE(m.completed);
    EXPECT_GE(m.admit_time, m.arrival_time);
    EXPECT_GE(m.completion_time, m.admit_time);
    EXPECT_EQ(m.slo_met, m.response_time <= m.deadline_seconds);
    if (m.slo_met) ++met;
  }
  EXPECT_EQ(s.stats.slo_met, met);
  // Determinism: a second identical run reproduces the first bit for bit.
  sched::MinMinScheduler mm2;
  service::StreamServiceLoop loop2(mm2, c, catalog, opts);
  auto again = process.generate();
  ASSERT_TRUE(again.ok());
  auto res2 = loop2.run(std::move(again).value());
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2.value().stats.completion_time, s.stats.completion_time);
  EXPECT_EQ(res2.value().stats.p99_response, s.stats.p99_response);
  WsRuntime::set_global_threads(0);
}

TEST(StreamService, CatalogueMismatchIsTyped) {
  const std::vector<wl::FileInfo> catalog = stream_catalog(7);
  const std::vector<wl::FileInfo> other = stream_catalog(8);
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  std::vector<service::BatchArrival> arrivals(1);
  arrivals[0].time = 0.0;
  arrivals[0].index = 0;
  arrivals[0].batch = service::make_service_batch(other, bcfg, 1);
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("catalogue"), std::string::npos);
}

TEST(StreamService, InfeasibleTaskIsTyped) {
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  std::vector<service::BatchArrival> arrivals(1);
  arrivals[0].batch = service::make_service_batch(catalog, bcfg, 1);
  sim::ClusterConfig c = small_cluster(2, 2);
  c.disk_capacity = 1.0;  // nothing fits
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, c, catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("Section 4.2"), std::string::npos);
}

// Two arrivals sharing an index would leave another index's record blank
// and over-count one batch's completions; the input check rejects them.
TEST(StreamService, DuplicateArrivalIndexIsTyped) {
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 3;
  std::vector<service::BatchArrival> arrivals(2);
  for (std::size_t i = 0; i < 2; ++i) {
    arrivals[i].time = static_cast<double>(i);
    arrivals[i].index = 0;
    arrivals[i].batch = service::make_service_batch(catalog, bcfg, 1 + i);
  }
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("more than once"), std::string::npos);
}

// A NaN arrival time compares false both ways, so it would pass the sort
// check and then never be offered — the loop would spin forever. +inf
// would report a NaN response, and a negative time would backdate the
// batch before the clock's origin. All three are typed input errors.
TEST(StreamService, RejectsNonFiniteArrivalTimes) {
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 3;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Each pair is sorted as far as `<` can tell.
  for (const auto& [t0, t1] : std::vector<std::pair<double, double>>{
           {0.0, nan}, {nan, 1.0}, {0.0, inf}, {-1.0, 0.0}}) {
    std::vector<service::BatchArrival> arrivals(2);
    arrivals[0].time = t0;
    arrivals[1].time = t1;
    for (std::size_t i = 0; i < 2; ++i) {
      arrivals[i].index = i;
      arrivals[i].batch = service::make_service_batch(catalog, bcfg, 1 + i);
    }
    sched::MinMinScheduler mm;
    service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, {});
    auto res = loop.run(std::move(arrivals));
    ASSERT_FALSE(res.ok()) << t0 << ", " << t1;
    EXPECT_NE(res.error().message.find("finite and >= 0"), std::string::npos)
        << res.error().message;
  }
}

// A batch with no tasks completes the moment it is admitted; otherwise it
// would hold its live slot forever and, at the barrier, stall every later
// arrival.
TEST(StreamService, EmptyBatchCompletesOnAdmission) {
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 3;
  std::vector<service::BatchArrival> arrivals(2);
  arrivals[0].time = 1.0;
  arrivals[0].index = 0;
  arrivals[0].batch = wl::Workload({}, catalog);
  arrivals[1].time = 2.0;
  arrivals[1].index = 1;
  arrivals[1].batch = service::make_service_batch(catalog, bcfg, 1);
  sched::MinMinScheduler mm;
  service::StreamOptions opts;
  opts.max_live_batches = 1;
  service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, opts);
  auto res = loop.run(std::move(arrivals));
  ASSERT_TRUE(res.ok()) << res.error().message;
  const service::StreamResult& s = res.value();
  EXPECT_EQ(s.stats.batches_completed, 2u);
  EXPECT_TRUE(s.batches[0].completed);
  EXPECT_EQ(s.batches[0].response_time, 0.0);
  EXPECT_TRUE(s.batches[1].completed);
  EXPECT_EQ(s.stats.tasks_executed, 3u);
}

// A compute node fail-stops mid-run under overlapping batches: its killed
// and queued tasks are re-planned on the survivors through the session's
// recovery path, and repair restores replication factor 2 on them. The
// windowed cases fail without the session's two stream-only crash rules:
// - window 5 s, node 0 at 25 s: batches admitted at different instants
//   share a window, and the later epoch holds tasks placed on node 0 when
//   it crashes during the earlier epoch;
// - wide catalogue, node 1 at 18 s: planned-but-uncommitted entries on
//   node 1 share no file with the window that ran, so only the dead-node
//   rule re-places them before the next commit.
TEST(StreamService, SurvivesComputeCrashAtReplicationFactorTwo) {
  struct Case {
    std::size_t catalog_files, tasks_per_batch, files_per_task;
    double zipf_s, rate;
    std::uint64_t seed;
    double window_seconds;
    wl::NodeId node;
    double crash_time;
  };
  const Case cases[] = {
      {32, 6, 3, 1.0, 0.5, 5, 20.0, 0, 4.0},
      {32, 6, 3, 1.0, 0.5, 12, 5.0, 0, 25.0},
      {2000, 12, 4, 0.0, 0.2, 1, 5.0, 1, 18.0},
  };
  WsRuntime::set_global_threads(1);
  for (const Case& k : cases) {
    SCOPED_TRACE("crash of node " + std::to_string(k.node) + " at " +
                 std::to_string(k.crash_time) + " s");
    service::SharedCatalogConfig ccfg;
    ccfg.num_files = k.catalog_files;
    ccfg.mean_file_size_bytes = 25.0 * sim::kMB;
    ccfg.file_size_jitter = 0.2;
    ccfg.num_storage_nodes = 2;
    ccfg.seed = 7;
    const std::vector<wl::FileInfo> catalog =
        service::make_shared_catalog(ccfg);
    service::ServiceBatchConfig bcfg;
    bcfg.tasks_per_batch = k.tasks_per_batch;
    bcfg.files_per_task = k.files_per_task;
    bcfg.zipf_s = k.zipf_s;
    service::ArrivalConfig acfg;
    acfg.rate = k.rate;
    acfg.num_batches = 6;
    acfg.seed = k.seed;
    service::BatchArrivalProcess process(catalog, bcfg, acfg);
    auto arrivals = process.generate();
    ASSERT_TRUE(arrivals.ok()) << arrivals.error().message;

    service::StreamOptions opts;
    opts.horizon.window_seconds = k.window_seconds;
    opts.replication.enabled = true;
    opts.replication.tiers = {{0.0, 2}};
    opts.faults.compute_crashes = {{k.node, k.crash_time}};
    sched::MinMinScheduler mm;
    service::StreamServiceLoop loop(mm, small_cluster(4, 2), catalog, opts);
    auto res = loop.run(std::move(arrivals).value());
    ASSERT_TRUE(res.ok()) << res.error().message;
    const service::StreamStats& s = res.value().stats;

    EXPECT_EQ(s.exec.node_crashes, 1u);
    EXPECT_GT(s.exec.task_reexecutions, 0u);
    EXPECT_GT(s.exec.replicas_created, 0u);
    EXPECT_EQ(s.batches_completed, 6u);
    EXPECT_EQ(s.tasks_executed, 6u * k.tasks_per_batch);
    EXPECT_EQ(s.replica_deficit, 0u);
    for (const service::StreamBatchMetrics& m : res.value().batches)
      EXPECT_TRUE(m.completed);
  }
  WsRuntime::set_global_threads(0);
}

}  // namespace
}  // namespace bsio
