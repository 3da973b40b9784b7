// The session loop: the paper's three-stage loop (sub-batch selection ->
// allocation -> runtime ordering/staging), with the runtime stage executed
// by the simulation engine. One Session serves both entry points:
//
//  - run_batch admits every task of one workload at t = 0 and steps with a
//    drain-all horizon until the batch is done (Figs 3-6 and the Fig 6(b)
//    scheduling overhead);
//  - service::StreamServiceLoop admits each arriving batch at its admission
//    instant and steps with a rolling horizon window, so batches overlap on
//    the one engine.
//
// The session owns the engine (with fault injection and speculation), the
// incremental planner (sched/incremental.h), crash recovery and the replica
// lifecycle manager. Recovery: tasks orphaned by compute-node crashes feed
// back into the planner and are re-planned on the surviving nodes in the
// next step. A run only fails when every compute node has crashed with
// tasks still pending, when the engine rejects a plan, or when the
// configuration itself is invalid (validate_run).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "replica/replica.h"
#include "sched/incremental.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::sched {

// Run controls shared by run_batch and the stream service.
struct BatchRunOptions {
  sim::FaultConfig faults;
  // Speculative task replication inside the engine's recovery surface
  // (sim/faults.h, DESIGN.md §10). Off by default: the run is bit-identical
  // to the non-speculative driver.
  sim::SpeculationConfig speculation;
  // Replica lifecycle manager (src/replica): tiered replication targets,
  // background repair after crashes, write-back of mutable files. Off by
  // default — a disabled config keeps the run bit-identical to the
  // replication-free driver (PR 4 golden contract).
  replica::ReplicaConfig replication;
};

struct BatchRunResult {
  std::string scheduler;
  double batch_time = 0.0;          // simulated makespan (what Figs 3-6a plot)
  double scheduling_seconds = 0.0;  // wall-clock planning time (Fig 6b)
  double per_task_scheduling_ms = 0.0;
  // Threads the planners' parallel sweeps ran on (WsRuntime::global()).
  std::size_t planning_threads = 1;
  std::size_t sub_batches = 0;
  sim::ExecutionStats stats;
  // Non-empty when the batch could not finish (invalid configuration, every
  // compute node crashed, or the engine rejected a plan). `ok()` runs
  // executed every task.
  std::string error;
  std::size_t tasks_stranded = 0;  // pending tasks when the run gave up
  // Completion instant of every executed task, ascending — the raw series
  // behind tail-latency percentiles (p50/p95/p99 of task response).
  std::vector<double> task_completion_times;
  // Files still below their tier's replication target when the batch
  // drained (replication enabled only): unrepairable deficits — versions
  // lost to writer crashes, or copies that fit on no surviving disk.
  std::size_t replica_deficit = 0;
  bool ok() const { return error.empty(); }
};

// The single validation pass of every session: BSIO_THREADS, the cluster,
// faults, speculation and replication against the cluster, the scheduler's
// stats-reuse guard (Scheduler::begin_batch), and the paper's Section 4.2
// feasibility — every task's file set must fit on the smallest compute node
// disk, so staging can complete whichever nodes survive — over every task
// of every batch in `batches`.
Status validate_run(Scheduler& scheduler, const sim::ClusterConfig& cluster,
                    const BatchRunOptions& options,
                    const std::vector<const wl::Workload*>& batches);

class Session {
 public:
  // `workload` may grow through Workload::append_tasks between admit()
  // calls and must outlive the session. The inputs must have passed
  // validate_run.
  Session(Scheduler& scheduler, const wl::Workload& workload,
          const sim::ClusterConfig& cluster, const BatchRunOptions& options);

  // Makes tasks [first, workload.num_tasks()) plannable. Their reservations
  // start no earlier than `release`. Admitting into a drained session
  // rebases the planner-relative clock to `release`; crash orphans never
  // rebase it, so run_batch plans every round against origin 0.
  Status admit(wl::TaskId first, double release);

  // No admitted task is waiting to be planned or executed.
  bool drained() const;

  // One planning cycle: repair the live plan where the last window moved
  // file residency, fold in fresh admissions and crash orphans, freeze the
  // next `horizon` window and execute it — one engine call per admission
  // epoch, so a late admission never floors co-committed tasks of earlier
  // ones — then run a repair round. Returns the window's tasks; those a
  // crash killed, and those placed on a node that crashed during an
  // earlier epoch of the window, are not executed and return through the
  // orphan path.
  // Empty when drained.
  Result<std::vector<wl::TaskId>> step(const HorizonOptions& horizon);

  // A repair round at `now` when some file is below its tier target — for
  // idle gaps between arrivals. No-op without replication.
  void repair_idle(double now);

  // Drain-time convergence: a round's fan-out can unlock the next one (a
  // fresh copy becomes a source; a budget bound spreads work over rounds),
  // so bounded extra rounds run from `floor`, each floored at the previous
  // round's last completion. Returns the files still below target: real
  // deficits (lost versions, copies that fit nowhere). 0 without
  // replication.
  std::size_t converge(double floor);

  const sim::ExecutionEngine& engine() const { return engine_; }
  // Engine totals plus the scheduler's solver counters.
  sim::ExecutionStats totals() const;
  // Admitted tasks not executed yet.
  std::size_t unexecuted() const { return admitted_ - executed_; }

  double planning_seconds() const { return planning_seconds_; }
  std::size_t cycles() const { return cycles_; }
  std::size_t windows() const { return windows_; }
  std::size_t repair_rounds() const { return repair_rounds_; }

 private:
  replica::RepairReport repair_round(double now);

  Scheduler& scheduler_;
  const wl::Workload& workload_;
  sim::ClusterConfig cluster_;
  sim::ExecutionEngine engine_;
  std::unique_ptr<IncrementalPlanner> planner_;
  std::unique_ptr<replica::ReplicaManager> repair_;  // null: no replication

  std::vector<wl::TaskId> fresh_;    // admitted, not yet handed to extend()
  std::vector<wl::TaskId> orphans_;  // crash-killed, awaiting re-planning
  std::vector<double> release_;      // per task: its admission instant
  // Per task: 0 waiting for a window, 1 committed, 2 in the window being
  // checked.
  std::vector<char> committed_;
  std::vector<wl::FileId> last_window_files_;  // next repair's dirty seed
  double origin_ = 0.0;  // planner-relative time base
  std::size_t admitted_ = 0;
  std::size_t executed_ = 0;
  double planning_seconds_ = 0.0;
  std::size_t cycles_ = 0;
  std::size_t windows_ = 0;
  std::size_t repair_rounds_ = 0;
};

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const BatchRunOptions& options);

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const sim::FaultConfig& faults = {});

}  // namespace bsio::sched
