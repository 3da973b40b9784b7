// Public facade of the library.
//
// One call — run_batch_scheduler(algorithm, workload, cluster) — runs the
// full pipeline of the paper: sub-batch selection, task allocation and file
// placement by the chosen algorithm, then the Section 6 runtime (task
// ordering, dynamic staging, eviction) on the cluster simulator, returning
// the simulated batch execution time, the scheduling overhead and the
// transfer statistics.
//
// Quickstart:
//   auto workload = bsio::wl::make_image_calibrated({}, 0.85).workload;
//   auto cluster = bsio::sim::xio_cluster(4, 4);
//   auto result = bsio::core::run_batch_scheduler(
//       bsio::core::Algorithm::kBiPartition, workload, cluster);
//   std::cout << result.batch_time << "\n";
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "workload/types.h"

namespace bsio::core {

enum class Algorithm {
  kIp,              // 0-1 Integer Programming (Section 4)
  kBiPartition,     // bi-level hypergraph partitioning (Section 5)
  kMinMin,          // MinMin with implicit replication (baseline)
  kJobDataPresent,  // JobDataPresent + DataLeastLoaded (baseline)
  kSufferage,       // extra baseline (Maheswaran et al., data-aware)
  kMaxMin,          // extra baseline
};

const char* algorithm_name(Algorithm a);
// The paper's four schemes (what the figure benches compare).
std::vector<Algorithm> all_algorithms();
// The paper's four plus the extra baselines.
std::vector<Algorithm> extended_algorithms();

struct RunOptions {
  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  sched::BiPartitionOptions bipartition;
  // Fault injection (sim/faults.h); the default injects nothing. With
  // faults the driver re-schedules crash-orphaned tasks on surviving nodes
  // and BatchRunResult::error reports unrecoverable runs.
  sim::FaultConfig faults;
  // Speculative task replication (sim/faults.h, DESIGN.md §10); disabled by
  // default, in which case runs are bit-identical to the retry-only driver.
  sim::SpeculationConfig speculation;
};

// Instantiates the scheduler implementing `algorithm`.
std::unique_ptr<sched::Scheduler> make_scheduler(Algorithm algorithm,
                                                 const RunOptions& options = {});

// Runs the batch end to end and reports the results.
sched::BatchRunResult run_batch_scheduler(Algorithm algorithm,
                                          const wl::Workload& workload,
                                          const sim::ClusterConfig& cluster,
                                          const RunOptions& options = {});

}  // namespace bsio::core
