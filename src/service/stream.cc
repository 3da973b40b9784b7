#include "service/stream.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "sched/driver.h"
#include "util/logging.h"
#include "util/stats.h"

namespace bsio::service {

StreamServiceLoop::StreamServiceLoop(sched::Scheduler& scheduler,
                                     const sim::ClusterConfig& cluster,
                                     std::vector<wl::FileInfo> catalog,
                                     StreamOptions options)
    : scheduler_(scheduler),
      cluster_(cluster),
      catalog_(std::move(catalog)),
      options_(std::move(options)) {}

Result<StreamResult> StreamServiceLoop::run(
    std::vector<BatchArrival> arrivals) {
  // The arrival sequence itself: finite non-negative times (the clock starts
  // at 0, and a NaN time would never be offered), sorted, indices a
  // permutation of 0..N-1 (each arrival owns exactly one result record),
  // and every batch built over exactly the shared catalogue — the merged
  // workload fixes files up front and only grows tasks.
  std::vector<char> seen(arrivals.size(), 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const BatchArrival& a = arrivals[i];
    if (!std::isfinite(a.time) || a.time < 0.0)
      return Err("arrival time must be finite and >= 0, got " +
                 std::to_string(a.time));
    if (i > 0 && a.time < arrivals[i - 1].time)
      return Err("arrival sequence must be sorted by time");
    if (a.index >= arrivals.size())
      return Err("arrival indices must be dense 0..N-1");
    if (seen[a.index])
      return Err("arrival index " + std::to_string(a.index) +
                 " appears more than once");
    seen[a.index] = 1;
    const wl::Workload& b = a.batch;
    if (b.num_files() != catalog_.size())
      return Err("arrival " + std::to_string(a.index) + " batch has " +
                 std::to_string(b.num_files()) +
                 " files but the shared catalogue has " +
                 std::to_string(catalog_.size()));
    for (std::size_t f = 0; f < catalog_.size(); ++f)
      if (b.file(f).size_bytes != catalog_[f].size_bytes ||
          b.file(f).home_storage_node != catalog_[f].home_storage_node)
        return Err("arrival " + std::to_string(a.index) + " file " +
                   std::to_string(f) +
                   " disagrees with the shared catalogue");
  }

  const sched::BatchRunOptions run_options{
      options_.faults, options_.speculation, options_.replication};
  scheduler_.reset_run_stats();
  {
    std::vector<const wl::Workload*> batches;
    batches.reserve(arrivals.size());
    for (const BatchArrival& a : arrivals) batches.push_back(&a.batch);
    if (const Status v =
            sched::validate_run(scheduler_, cluster_, run_options, batches);
        !v.ok())
      return v.error();
  }

  StreamResult result;
  result.batches.resize(arrivals.size());
  std::vector<std::size_t> remaining(arrivals.size(), 0);
  for (const BatchArrival& a : arrivals) {
    StreamBatchMetrics& m = result.batches[a.index];
    m.index = a.index;
    m.tasks = a.batch.num_tasks();
    m.arrival_time = a.time;
    m.deadline_seconds = a.slo.deadline_seconds;
    m.weight = a.slo.weight;
  }
  result.stats.batches_arrived = arrivals.size();

  // The one session of the whole run, over the growable merged workload.
  wl::Workload stream({}, catalog_);
  sched::Session session(scheduler_, stream, cluster_, run_options);
  AdmissionQueue queue(cluster_, options_.admission);
  std::vector<std::size_t> batch_of_task;  // merged task id -> arrival index
  double clock = 0.0;
  std::size_t next = 0;
  std::size_t live_batches = 0;

  const auto complete = [&](std::size_t idx) {
    StreamBatchMetrics& m = result.batches[idx];
    m.completed = true;
    m.response_time = m.completion_time - m.arrival_time;
    m.slo_met = m.response_time <= m.deadline_seconds;
    ++result.stats.batches_completed;
    if (m.slo_met) ++result.stats.slo_met;
    --live_batches;
  };

  while (next < arrivals.size() || !queue.empty() || !session.drained()) {
    // Idle service, nothing queued or live: a quiescent gap. Repair runs
    // here first — the links are idle until the next arrival, so the
    // manager's background copies burn otherwise-dead time — then the
    // clock jumps to that arrival.
    if (session.drained() && queue.empty() && next < arrivals.size() &&
        arrivals[next].time > clock) {
      session.repair_idle(clock);
      clock = arrivals[next].time;
    }

    // Offer everything that has arrived by now; bounced offers are
    // accounted per the overload policy.
    while (next < arrivals.size() && arrivals[next].time <= clock) {
      const std::size_t idx = arrivals[next].index;
      if (const Status s = queue.offer(std::move(arrivals[next])); !s.ok()) {
        BSIO_LOG(kDebug) << "stream: " << s.error().message;
        result.batches[idx].rejected = true;
        ++result.stats.rejected_batches;
      }
      ++next;
    }
    for (const QueuedBatch& victim : queue.take_shed()) {
      result.batches[victim.arrival.index].shed = true;
      ++result.stats.shed_batches;
    }

    // Admit queued batches into the live window: their tasks append to the
    // merged workload and join the session at the current clock.
    while (!queue.empty() && (options_.max_live_batches == 0 ||
                              live_batches < options_.max_live_batches)) {
      QueuedBatch q = queue.pop(clock);
      const std::size_t idx = q.arrival.index;
      const std::size_t n = q.arrival.batch.num_tasks();
      const wl::TaskId first = stream.append_tasks(q.arrival.batch.tasks());
      if (const Status s = session.admit(first, clock); !s.ok())
        return s.error();
      batch_of_task.insert(batch_of_task.end(), n, idx);
      remaining[idx] = n;
      result.batches[idx].admit_time = clock;
      if (q.degraded) {
        result.batches[idx].degraded = true;
        ++result.stats.degraded_batches;
      }
      ++live_batches;
      if (n == 0) {
        result.batches[idx].completion_time = clock;
        complete(idx);
      }
    }

    if (session.drained()) continue;
    auto window = session.step(options_.horizon);
    if (!window.ok()) return window.error();

    for (wl::TaskId t : window.value()) {
      if (!session.engine().task_executed(t)) continue;  // orphaned
      const std::size_t idx = batch_of_task[t];
      StreamBatchMetrics& m = result.batches[idx];
      m.completion_time =
          std::max(m.completion_time, session.engine().task_completion(t));
      if (--remaining[idx] == 0) complete(idx);
    }
    clock = std::max(clock, session.engine().makespan());
  }

  result.stats.replica_deficit =
      session.converge(std::max(clock, session.engine().makespan()));

  std::vector<double> responses;
  responses.reserve(result.stats.batches_completed);
  for (const StreamBatchMetrics& m : result.batches)
    if (m.completed) {
      responses.push_back(m.response_time);
      result.stats.mean_response += m.response_time;
      result.stats.max_response =
          std::max(result.stats.max_response, m.response_time);
    }
  if (!responses.empty()) {
    result.stats.mean_response /= static_cast<double>(responses.size());
    result.stats.p50_response = percentile(responses, 50.0);
    result.stats.p99_response = percentile(responses, 99.0);
  }
  if (result.stats.batches_arrived > 0)
    result.stats.slo_attainment =
        static_cast<double>(result.stats.slo_met) /
        static_cast<double>(result.stats.batches_arrived);
  result.stats.exec = session.totals();
  result.stats.tasks_executed =
      static_cast<std::size_t>(result.stats.exec.tasks_executed);
  result.stats.total_planning_seconds = session.planning_seconds();
  result.stats.planning_cycles = session.cycles();
  result.stats.windows_committed = session.windows();
  result.stats.repair_rounds = session.repair_rounds();
  result.stats.completion_time = clock;
  return result;
}

}  // namespace bsio::service
