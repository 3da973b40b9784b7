#include "core/batch_scheduler.h"

#include "sched/alternatives.h"
#include "sched/minmin.h"
#include "util/check.h"

namespace bsio::core {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kIp:
      return "IP";
    case Algorithm::kBiPartition:
      return "BiPartition";
    case Algorithm::kMinMin:
      return "MinMin";
    case Algorithm::kJobDataPresent:
      return "JobDataPresent";
    case Algorithm::kSufferage:
      return "Sufferage";
    case Algorithm::kMaxMin:
      return "MaxMin";
  }
  return "?";
}

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::kIp, Algorithm::kBiPartition, Algorithm::kMinMin,
          Algorithm::kJobDataPresent};
}

std::vector<Algorithm> extended_algorithms() {
  auto v = all_algorithms();
  v.push_back(Algorithm::kSufferage);
  v.push_back(Algorithm::kMaxMin);
  return v;
}

std::unique_ptr<sched::Scheduler> make_scheduler(Algorithm algorithm,
                                                 const RunOptions& options) {
  switch (algorithm) {
    case Algorithm::kIp:
      return std::make_unique<sched::IpScheduler>(options.ip);
    case Algorithm::kBiPartition:
      return std::make_unique<sched::BiPartitionScheduler>(
          options.bipartition);
    case Algorithm::kMinMin:
      return std::make_unique<sched::MinMinScheduler>();
    case Algorithm::kJobDataPresent:
      return std::make_unique<sched::JobDataPresentScheduler>();
    case Algorithm::kSufferage:
      return std::make_unique<sched::SufferageScheduler>();
    case Algorithm::kMaxMin:
      return std::make_unique<sched::MaxMinScheduler>();
  }
  BSIO_CHECK_MSG(false, "unknown algorithm");
  return nullptr;
}

sched::BatchRunResult run_batch_scheduler(Algorithm algorithm,
                                          const wl::Workload& workload,
                                          const sim::ClusterConfig& cluster,
                                          const RunOptions& options) {
  auto scheduler = make_scheduler(algorithm, options);
  sched::BatchRunOptions run_options;
  run_options.faults = options.faults;
  run_options.speculation = options.speculation;
  return sched::run_batch(*scheduler, workload, cluster, run_options);
}

}  // namespace bsio::core
