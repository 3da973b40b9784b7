#include "sched/driver.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/ws_runtime.h"

namespace bsio::sched {

Status validate_run(Scheduler& scheduler, const sim::ClusterConfig& cluster,
                    const BatchRunOptions& options,
                    const std::vector<const wl::Workload*>& batches) {
  // A malformed BSIO_THREADS is user input, not an internal bug: surface
  // the parse error here instead of aborting inside the runtime the first
  // time a planner sweep touches it.
  if (const Status v = WsRuntime::validate_env(); !v.ok()) return v;
  if (const Status v = cluster.validate(); !v.ok()) return v;
  if (const Status v = options.faults.validate(cluster); !v.ok()) return v;
  if (const Status v = options.speculation.validate(); !v.ok()) return v;
  if (const Status v = options.replication.validate(cluster.num_compute_nodes);
      !v.ok())
    return v;
  // Stats-reuse guard: a scheduler instance still loaded with a previous
  // run's counters must be reset before serving another run.
  if (const Status v = scheduler.begin_batch(); !v.ok()) return v;

  // Checked against the smallest node so the guarantee survives crashes
  // (the minimum over any alive subset is no smaller than the minimum over
  // all nodes).
  double min_cap = cluster.node_disk_capacity(0);
  for (std::size_t n = 1; n < cluster.num_compute_nodes; ++n)
    min_cap = std::min(min_cap, cluster.node_disk_capacity(n));
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const wl::Workload& w = *batches[b];
    for (const auto& t : w.tasks()) {
      double bytes = 0.0;
      for (wl::FileId f : t.files) bytes += w.file_size(f);
      if (bytes <= min_cap) continue;
      const std::string batch =
          batches.size() > 1 ? "batch " + std::to_string(b) + " " : "";
      return Err(batch + "task " + std::to_string(t.id) + " needs " +
                 std::to_string(bytes) +
                 " bytes of input but the smallest compute node disk holds " +
                 std::to_string(min_cap) +
                 " (a task's file set must fit on one node, paper Section "
                 "4.2)");
    }
  }
  return OkStatus();
}

// --- Session. ---

Session::Session(Scheduler& scheduler, const wl::Workload& workload,
                 const sim::ClusterConfig& cluster,
                 const BatchRunOptions& options)
    : scheduler_(scheduler),
      workload_(workload),
      cluster_(cluster),
      engine_(cluster, workload,
              {scheduler.eviction_policy(), /*trace=*/false, options.faults,
               options.speculation}),
      planner_(make_incremental_planner(scheduler)) {
  // Replica lifecycle: one repair round after every window, floored at the
  // current makespan — the next window's foreground transfers then contend
  // with the repair reservations on the shared timelines. Planners see
  // manager-placed replicas through the engine's cluster state.
  if (options.replication.enabled)
    repair_ = std::make_unique<replica::ReplicaManager>(workload,
                                                        options.replication);
}

Status Session::admit(wl::TaskId first, double release) {
  if (const Status s = engine_.admit_new_tasks(); !s.ok()) return s;
  if (drained()) origin_ = release;
  const std::size_t n = workload_.num_tasks();
  release_.resize(n, release);
  committed_.resize(n, 0);
  for (std::size_t t = first; t < n; ++t) {
    release_[t] = release;
    fresh_.push_back(static_cast<wl::TaskId>(t));
  }
  admitted_ += n - first;
  return OkStatus();
}

bool Session::drained() const {
  return fresh_.empty() && orphans_.empty() && planner_->drained();
}

Result<std::vector<wl::TaskId>> Session::step(const HorizonOptions& horizon) {
  if (drained()) return std::vector<wl::TaskId>{};
  if (engine_.alive_count() == 0)
    return Err("every compute node crashed with tasks still pending");

  // Plan: repair what the last executed window dirtied, fold in the crash
  // orphans and the fresh admissions, freeze the next horizon window.
  const SchedulerContext ctx(workload_, cluster_, engine_);
  WallTimer timer;
  planner_->set_origin(origin_);
  // Live entries placed on a node that has crashed since are dirty too: a
  // windowed horizon can leave them uncommitted across the crash.
  std::vector<wl::TaskId> dirty;
  if (!last_window_files_.empty())
    dirty = planner_->dirty_from_files(workload_, last_window_files_);
  for (const LiveTask& lt : planner_->live())
    if (!engine_.node_alive(lt.node)) dirty.push_back(lt.task);
  if (!dirty.empty()) planner_->repair(dirty, ctx);
  std::vector<wl::TaskId> incoming = std::move(orphans_);
  orphans_.clear();
  for (wl::TaskId t : incoming) committed_[t] = 0;
  incoming.insert(incoming.end(), fresh_.begin(), fresh_.end());
  fresh_.clear();
  planner_->extend(std::move(incoming), ctx);
  sim::SubBatchPlan plan = planner_->commit_horizon(horizon);
  planning_seconds_ += timer.elapsed_seconds();
  ++cycles_;
  if (plan.empty()) {
    if (planner_->drained()) return std::vector<wl::TaskId>{};
    return Err("incremental planner committed an empty window with work "
               "outstanding");
  }

  // Internal-fault checks: the window names each task once, and only tasks
  // admitted and not committed to an earlier window.
  for (wl::TaskId t : plan.tasks) {
    BSIO_CHECK_MSG(t < committed_.size(), "window names an un-admitted task");
    BSIO_CHECK_MSG(committed_[t] != 2, "window repeats tasks");
    BSIO_CHECK_MSG(committed_[t] == 0,
                   "window names a task committed to an earlier window");
    committed_[t] = 2;
  }

  // Split the window per admission epoch (ascending, window order within
  // each): reservations of a task start no earlier than its own admission.
  // run_batch has a single epoch at 0 — the batch behaviour, bit for bit.
  std::vector<double> epochs;
  for (wl::TaskId t : plan.tasks) epochs.push_back(release_[t]);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  std::vector<wl::TaskId> stranded;  // their node crashed in an earlier epoch
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    sim::SubBatchPlan sub;
    sub.release_time = epochs[e];
    // Staging directives are keyed by (file, node) and consulted lazily;
    // prefetches fire once, with the window's first epoch.
    sub.staging = plan.staging;
    if (e == 0) sub.prefetches = plan.prefetches;
    for (wl::TaskId t : plan.tasks) {
      if (release_[t] != epochs[e]) continue;
      const wl::NodeId node = plan.assignment.at(t);
      if (e > 0 && !engine_.node_alive(node)) {
        stranded.push_back(t);
        continue;
      }
      sub.tasks.push_back(t);
      sub.assignment[t] = node;
    }
    if (sub.tasks.empty()) continue;
    auto executed = engine_.execute(sub);
    if (!executed.ok()) return executed.error();
  }
  ++windows_;

  // The window's file footprint is the next cycle's dirty-set seed.
  std::vector<char> touched(workload_.num_files(), 0);
  last_window_files_.clear();
  for (wl::TaskId t : plan.tasks) {
    committed_[t] = 1;
    if (engine_.task_executed(t)) ++executed_;
    for (wl::FileId f : workload_.task(t).files)
      if (!touched[f]) {
        touched[f] = 1;
        last_window_files_.push_back(f);
      }
  }

  // Recovery: tasks orphaned by node crashes (killed mid-run or queued on a
  // node that died) are re-planned on the surviving nodes next step.
  orphans_ = engine_.take_orphaned();
  orphans_.insert(orphans_.end(), stranded.begin(), stranded.end());
  if (!orphans_.empty()) {
    BSIO_LOG(kDebug) << scheduler_.name() << ": re-planning "
                     << orphans_.size() << " tasks orphaned by crashes ("
                     << engine_.alive_count() << " nodes alive)";
  }
  if (repair_ != nullptr) repair_round(engine_.makespan());
  return std::move(plan.tasks);
}

replica::RepairReport Session::repair_round(double now) {
  const replica::RepairReport rep = repair_->run_repairs(engine_, now);
  ++repair_rounds_;
  if (rep.flushes_scheduled + rep.replicas_scheduled > 0) {
    BSIO_LOG(kDebug) << scheduler_.name() << ": repair round scheduled "
                     << rep.flushes_scheduled << " flushes and "
                     << rep.replicas_scheduled << " replicas ("
                     << rep.deferred << " deferred)";
  }
  return rep;
}

void Session::repair_idle(double now) {
  if (repair_ != nullptr && !repair_->files_below_target(engine_).empty())
    repair_round(now);
}

std::size_t Session::converge(double floor) {
  if (repair_ == nullptr) return 0;
  for (int round = 0; round < 8; ++round) {
    if (repair_->files_below_target(engine_).empty()) break;
    const replica::RepairReport rep = repair_round(floor);
    if (rep.flushes_scheduled + rep.replicas_scheduled == 0) break;
    floor = std::max(floor, rep.last_completion);
  }
  return repair_->files_below_target(engine_).size();
}

sim::ExecutionStats Session::totals() const {
  sim::ExecutionStats stats = engine_.totals();
  scheduler_.add_solver_stats(stats);
  return stats;
}

// --- The batch entry point. ---

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const sim::FaultConfig& faults) {
  BatchRunOptions options;
  options.faults = faults;
  return run_batch(scheduler, workload, cluster, options);
}

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const BatchRunOptions& options) {
  BatchRunResult result;
  result.scheduler = scheduler.name();
  if (const Status v = validate_run(scheduler, cluster, options, {&workload});
      !v.ok()) {
    result.error = v.error().message;
    result.tasks_stranded = workload.num_tasks();
    return result;
  }
  result.planning_threads = WsRuntime::global().num_threads();

  // The whole batch arrives at t = 0; a drain-all horizon freezes each
  // planned sub-batch whole.
  Session session(scheduler, workload, cluster, options);
  if (const Status s = session.admit(0, 0.0); !s.ok()) {
    result.error = s.error().message;
    result.tasks_stranded = workload.num_tasks();
    return result;
  }
  while (!session.drained()) {
    auto window = session.step(HorizonOptions{});
    if (!window.ok()) {
      result.error = window.error().message;
      result.tasks_stranded = session.unexecuted();
      break;
    }
  }
  if (result.ok())
    result.replica_deficit = session.converge(session.engine().makespan());

  result.batch_time = session.engine().makespan();
  result.sub_batches = session.windows();
  result.scheduling_seconds = session.planning_seconds();
  result.stats = session.totals();
  result.task_completion_times = session.engine().completed_task_times();
  std::sort(result.task_completion_times.begin(),
            result.task_completion_times.end());
  result.per_task_scheduling_ms =
      workload.num_tasks() > 0
          ? result.scheduling_seconds * 1e3 /
                static_cast<double>(workload.num_tasks())
          : 0.0;
  return result;
}

}  // namespace bsio::sched
