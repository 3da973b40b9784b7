// perfbench: the repository benchmark. Runs ONE named workload through the
// public entry points (sched::run_batch, service::StreamServiceLoop::run),
// checks the outputs, and prints one JSON result line as the last line of
// standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// --trace 0 reports the end-to-end metrics of untraced repetitions; --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics, the tracing overhead, and writes the recorded spans to
// --spans-out. Every repetition, traced or not, and one extra repetition at
// one planner thread must produce the same plan fingerprint; any failed
// check sets "correct": false and the exit code to 1. README.md in this
// directory explains the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "replica/replica.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/minmin.h"
#include "service/arrival.h"
#include "service/catalog.h"
#include "service/stream.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/ws_runtime.h"
#include "workload/sat.h"
#include "workload/synthetic.h"

namespace {

using namespace bsio;
using Clock = std::chrono::steady_clock;

// Every measured repetition runs the work-stealing runtime at this many
// threads, below the core count of a 4-core host, so the numbers do not
// depend on how many cores the host has.
constexpr std::size_t kThreads = 2;
// Fewest measured repetitions per run, whatever --seconds says.
constexpr std::size_t kMinReps = 3;
// Set-up rounds before the first repetition, and the share of the measuring
// time further rounds may take between repetitions.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupShare = 0.05;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

double median_of(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

// ---------------------------------------------------------------- spans --

struct Span {
  std::string name;
  double start = 0.0;  // seconds since process start
  double end = 0.0;
  int parent = -1;  // index into SpanLog::spans(), -1 = root
  int run = 0;      // repetition (or set-up round) the span belongs to
};

// Spans kept in memory and written once when the run ends. Children of one
// span never overlap (every traced layer call is sequential), so a span's
// self time is its duration minus the sum of its children's durations.
class SpanLog {
 public:
  int open(const char* name, int parent, int run) {
    spans_.push_back({name, now_s(), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

  const std::vector<Span>& spans() const { return spans_; }

  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  double self_seconds(int id) const {
    double self = duration(id);
    for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
         ++i)
      if (spans_[i].parent == id) self -= duration(static_cast<int>(i));
    return self;
  }
  std::vector<int> children(int id, const char* name) const {
    std::vector<int> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent == id && spans_[i].name == name)
        out.push_back(static_cast<int>(i));
    return out;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"run\": %d, "
                   "\"self\": %.9f}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent, s.run,
                   self_seconds(static_cast<int>(i)),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; a null log
// records nothing, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, int run)
      : log_(log), id_(log != nullptr ? log->open(name, parent, run) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Per-call numbers the IP scheduler exposes through last_solve().
struct IpTotals {
  double select_s = 0.0;
  double alloc_s = 0.0;
  long select_nodes = 0;
  long alloc_nodes = 0;
};

// Forwards every virtual method of sched::Scheduler to `inner` and records
// each plan_sub_batch call as a span under the run_batch span. Batch
// workloads only: the stream service picks its incremental planner from
// the scheduler's dynamic type (sched::make_incremental_planner), so a
// wrapper there would silently swap delta-MinMin for the part-repair
// planner. The stream runner therefore takes a concrete MinMinScheduler.
class TracingScheduler final : public sched::Scheduler {
 public:
  TracingScheduler(sched::Scheduler& inner, SpanLog& log, int parent, int run)
      : inner_(inner),
        ip_(dynamic_cast<const sched::IpScheduler*>(&inner)),
        log_(log),
        parent_(parent),
        run_(run) {}

  std::string name() const override { return inner_.name(); }
  Status begin_batch() override { return inner_.begin_batch(); }
  void reset_run_stats() override { inner_.reset_run_stats(); }
  sim::SubBatchPlan plan_sub_batch(const std::vector<wl::TaskId>& pending,
                                   const sched::SchedulerContext& ctx)
      override {
    sim::SubBatchPlan plan;
    {
      ScopedSpan span(&log_, "plan_sub_batch", parent_, run_);
      plan = inner_.plan_sub_batch(pending, ctx);
    }
    if (ip_ != nullptr) {
      const sched::IpScheduler::SolveInfo& s = ip_->last_solve();
      ip_totals_.select_s += s.selection_seconds;
      ip_totals_.alloc_s += s.allocation_seconds;
      ip_totals_.select_nodes += s.selection_nodes;
      ip_totals_.alloc_nodes += s.allocation_nodes;
    }
    return plan;
  }
  sim::EvictionPolicy eviction_policy() const override {
    return inner_.eviction_policy();
  }
  void add_solver_stats(sim::ExecutionStats& stats) const override {
    inner_.add_solver_stats(stats);
  }

  const IpTotals& ip_totals() const { return ip_totals_; }

 private:
  sched::Scheduler& inner_;
  const sched::IpScheduler* ip_;
  SpanLog& log_;
  int parent_;
  int run_;
  IpTotals ip_totals_;
};

// ------------------------------------------------------------ workloads --

struct BatchCase {
  wl::Workload workload;
  sim::ClusterConfig cluster;
  sched::BatchRunOptions options;
  std::function<std::unique_ptr<sched::Scheduler>()> make;
};

struct StreamCase {
  sim::ClusterConfig cluster;
  std::vector<wl::FileInfo> catalog;
  std::vector<service::BatchArrival> arrivals;
  service::StreamOptions options;
};

// The scale_sweep cluster: slow storage disks behind a fast network, so
// staging dominates and storage ports saturate.
sim::ClusterConfig scale_cluster(std::size_t compute_nodes,
                                 std::size_t storage_nodes, double disk) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = storage_nodes;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  c.disk_capacity = disk;
  return c;
}

wl::Workload streaming_tasks(std::size_t tasks, std::size_t universe,
                             double zipf_s, std::size_t storage_nodes,
                             std::uint64_t seed) {
  wl::StreamingSyntheticConfig w;
  w.num_tasks = tasks;
  w.files_per_task = 8;
  w.universe_files = universe;
  w.zipf_s = zipf_s;
  w.file_size_bytes = 50.0 * sim::kMB;
  w.file_size_jitter = 0.25;
  w.num_storage_nodes = storage_nodes;
  w.seed = seed;
  return wl::make_synthetic_streaming(w);
}

// Re-homes every file on a storage node hashed from (seed, file) instead of
// the generator's Hilbert declustering. At 1000 tasks the SAT calibrator
// tiles the dataset the same way for every seed, so this is what the seed
// changes: the simulated transfers differ, while the IP formulation (and
// with it all LP and branch-and-bound work) stays the same. A seeded file
// size jitter instead changed the LP work by up to 4x between seeds.
wl::Workload scatter_homes(const wl::Workload& w, std::uint64_t seed,
                           std::size_t storage_nodes) {
  std::vector<wl::FileInfo> files = w.files();
  for (wl::FileInfo& f : files)
    f.home_storage_node = static_cast<wl::NodeId>(
        hash_mix(seed ^ (0x9e3779b97f4a7c15ULL * (f.id + 1))) %
        storage_nodes);
  return wl::Workload(w.tasks(), std::move(files));
}

// MinMin in its lazy-heap mode with the scale_sweep refresh budget.
std::unique_ptr<sched::Scheduler> make_lazy_minmin() {
  return std::make_unique<sched::MinMinScheduler>(0, 32);
}

// Each set-up function builds the inputs of one workload from the seed,
// recording its stages as spans when `log` is non-null.
BatchCase setup_dense_engine(std::uint64_t seed, SpanLog* log, int parent,
                             int run) {
  BatchCase c;
  {
    ScopedSpan s(log, "workload.gen", parent, run);
    c.workload = streaming_tasks(5000, 2'000'000, 0.0, 4, seed);
  }
  c.cluster = scale_cluster(8, 4, sim::kUnlimited);
  c.make = make_lazy_minmin;
  return c;
}

BatchCase setup_wide_planner(std::uint64_t seed, SpanLog* log, int parent,
                             int run) {
  BatchCase c;
  {
    ScopedSpan s(log, "workload.gen", parent, run);
    c.workload = streaming_tasks(2000, 2'000'000, 0.0, 32, seed);
  }
  c.cluster = scale_cluster(256, 32, sim::kUnlimited);
  c.make = make_lazy_minmin;
  return c;
}

BatchCase setup_disk_faults(std::uint64_t seed, SpanLog* log, int parent,
                            int run) {
  BatchCase c;
  {
    ScopedSpan s(log, "workload.gen", parent, run);
    c.workload = streaming_tasks(2000, 40'000, 0.9, 4, seed);
  }
  c.cluster = scale_cluster(32, 4, 4.0 * sim::kGB);
  c.options.faults.seed = hash_mix(seed ^ 0x6661756c74ULL);  // "fault"
  c.options.faults.transfer_failure_prob = 0.01;
  c.options.faults.compute_crashes = {{0, 600.0}};
  c.options.replication.enabled = true;
  c.options.replication.tiers = {{0.0, 1}, {3.0, 2}};
  c.make = [] { return std::make_unique<sched::BiPartitionScheduler>(); };
  return c;
}

BatchCase setup_ip_sat(std::uint64_t seed, SpanLog* log, int parent,
                       int run) {
  BatchCase c;
  {
    ScopedSpan s(log, "workload.gen", parent, run);
    wl::SatConfig sat;
    sat.num_tasks = 1000;
    sat.seed = seed;
    c.workload = scatter_homes(wl::make_sat_calibrated(sat, 0.40).workload,
                               seed, sat.num_storage_nodes);
  }
  c.cluster = sim::xio_cluster(8, 4);
  c.cluster.disk_capacity = 2.0 * sim::kGB;
  c.make = [] {
    // Node-limited MIPs with the wall-clock limits off, so the plans do
    // not depend on machine load.
    sched::IpSchedulerOptions o = sched::IpScheduler::default_options();
    o.max_subbatch_tasks = 32;
    for (ip::MipOptions* m : {&o.selection_mip, &o.allocation_mip}) {
      m->time_limit_seconds = std::numeric_limits<double>::infinity();
      m->max_nodes = 50;
      m->stall_node_limit = 64;
    }
    return std::make_unique<sched::IpScheduler>(o);
  };
  return c;
}

// stream-rw keeps the catalogue, the calibration batch and the arrival
// instants fixed and lets the seed draw what each batch reads and writes
// and its SLO class. Across Poisson samples of 1000 arrivals at u = 0.9
// the p99 response spread by about 40% (interquartile range over median,
// five seeds), which would swamp any change to the service itself; 2000
// arrivals over one fixed sample bring the content-only spread to ~4%.
constexpr std::uint64_t kStreamFixedSeed = 11;

StreamCase setup_stream_rw(std::uint64_t seed, SpanLog* log, int parent,
                           int run) {
  StreamCase c;
  c.cluster = scale_cluster(16, 4, 2.0 * sim::kGB);
  service::ServiceBatchConfig batch;
  batch.tasks_per_batch = 32;
  batch.files_per_task = 4;
  batch.zipf_s = 1.1;
  batch.write_fraction = 0.2;
  wl::Workload probe;
  {
    ScopedSpan s(log, "workload.gen", parent, run);
    service::SharedCatalogConfig cat;
    cat.num_files = 1024;
    cat.num_storage_nodes = 4;
    cat.seed = kStreamFixedSeed;
    c.catalog = service::make_shared_catalog(cat);
    probe = service::make_service_batch(c.catalog, batch, kStreamFixedSeed);
  }
  // One cold MinMin batch fixes the utilisation unit m, as in
  // service_throughput --stream.
  double m = 0.0;
  {
    ScopedSpan s(log, "calibrate", parent, run);
    sched::MinMinScheduler mm;
    const sched::BatchRunResult r = sched::run_batch(mm, probe, c.cluster);
    if (!r.ok() || !(r.batch_time > 0.0)) {
      std::fprintf(stderr, "perfbench: calibration batch failed: %s\n",
                   r.error.c_str());
      std::exit(1);
    }
    m = r.batch_time;
  }
  {
    ScopedSpan s(log, "service.arrival_gen", parent, run);
    service::ArrivalConfig a;
    a.rate = 0.9 / m;
    a.num_batches = 2000;
    a.seed = seed;
    a.slo_classes = {{3.0 * m, 4.0}, {8.0 * m, 1.0}};
    auto gen =
        service::BatchArrivalProcess(c.catalog, batch, a).generate();
    if (!gen.ok()) {
      std::fprintf(stderr, "perfbench: arrival generation failed: %s\n",
                   gen.error().message.c_str());
      std::exit(1);
    }
    c.arrivals = std::move(gen).value();
    // Open loop: exponential gaps at rate a.rate from the fixed seed.
    Rng gaps(kStreamFixedSeed);
    double t = 0.0;
    for (service::BatchArrival& arrival : c.arrivals) {
      t += -std::log(1.0 - gaps.uniform_double()) / a.rate;
      arrival.time = t;
    }
  }
  c.options.admission.policy = service::AdmissionPolicy::kDeadlineAware;
  c.options.admission.aging_weight = 0.25;
  c.options.horizon.window_seconds = 0.5 * m;
  c.options.replication.enabled = true;
  c.options.replication.tiers = {{0.0, 1}, {4.0, 2}};
  return c;
}

// -------------------------------------------------------------- runs --

// Everything one repetition yields. The fingerprint folds every simulated
// output (makespan and response bits, transfer, replica, LP and MIP
// counters), so two repetitions agree on it only if they planned and
// simulated identically.
struct Outcome {
  std::string error;      // non-empty: a failed correctness check
  double wall_s = 0.0;    // the timed entry-point call
  double tasks = 0.0;     // tasks executed
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double makespan_s = 0.0;
  double resp_p50_s = 0.0;
  double resp_p99_s = 0.0;
  std::uint64_t fingerprint = 0;
  sim::ExecutionStats stats;
  double plan_s = 0.0;  // the entry point's own planning timer
  std::size_t plan_calls = 0;
  std::size_t replica_deficit = 0;
  // Traced repetitions only: planning and the rest of the traced call.
  double span_plan_s = 0.0;
  double span_exec_s = 0.0;
  // Batch workloads, traced repetitions only.
  double plan_ms_p50 = 0.0;
  double plan_ms_max = 0.0;
  IpTotals ip;
  // Stream workload only.
  service::StreamStats stream;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p99_s = 0.0;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_stats(Fnv& h, const sim::ExecutionStats& s) {
  for (std::uint64_t v :
       {s.tasks_executed, s.remote_transfers, s.replications, s.evictions,
        s.restages, s.cache_hits, s.transfer_retries, s.task_reexecutions,
        s.node_crashes, s.replicas_created, s.replicas_invalidated,
        s.home_flushes, s.lost_versions})
    h.add(v);
  for (double v : {s.remote_bytes, s.replica_bytes, s.cache_hit_bytes,
                   s.recovery_seconds, s.repair_bytes, s.repair_seconds})
    h.add(v);
  for (std::int64_t v : {s.lp_factorizations, s.lp_factor_fill_nnz,
                         s.lp_pivots, s.lp_bound_flips, s.lp_degenerate_pivots,
                         s.mip_nodes})
    h.add(static_cast<std::uint64_t>(v));
}

Outcome run_batch_case(const BatchCase& c, SpanLog* log, int run) {
  Outcome o;
  const std::size_t n = c.workload.num_tasks();
  o.attempted = n;
  auto scheduler = c.make();
  sched::BatchRunResult r;
  IpTotals ip;
  int batch_span = -1;
  const double t0 = now_s();
  if (log != nullptr) {
    ScopedSpan span(log, "run_batch", -1, run);
    batch_span = span.id();
    TracingScheduler traced(*scheduler, *log, batch_span, run);
    r = sched::run_batch(traced, c.workload, c.cluster, c.options);
    ip = traced.ip_totals();
  } else {
    r = sched::run_batch(*scheduler, c.workload, c.cluster, c.options);
  }
  o.wall_s = now_s() - t0;

  o.stats = r.stats;
  o.tasks = static_cast<double>(r.stats.tasks_executed);
  o.makespan_s = r.batch_time;
  o.plan_s = r.scheduling_seconds;
  o.plan_calls = r.sub_batches;
  o.replica_deficit = r.replica_deficit;
  if (!r.ok()) {
    o.error = "run_batch failed: " + r.error;
    o.failed = n;
    return o;
  }
  o.failed = r.tasks_stranded;
  if (r.tasks_stranded != 0 || r.stats.tasks_executed != n ||
      r.task_completion_times.size() != n) {
    o.error = "batch did not execute every task exactly once (" +
              std::to_string(r.stats.tasks_executed) + " executed, " +
              std::to_string(r.task_completion_times.size()) +
              " completions, " + std::to_string(r.tasks_stranded) +
              " stranded, " + std::to_string(n) + " tasks)";
    o.failed = std::max<std::size_t>(o.failed, 1);
    return o;
  }
  // Every task of a batch arrives at t = 0: its response is its
  // completion time.
  o.resp_p50_s = percentile(r.task_completion_times, 50.0);
  o.resp_p99_s = percentile(r.task_completion_times, 99.0);

  Fnv h;
  h.add(o.makespan_s);
  h.add(o.resp_p50_s);
  h.add(o.resp_p99_s);
  h.add(static_cast<std::uint64_t>(r.sub_batches));
  h.add(static_cast<std::uint64_t>(r.replica_deficit));
  add_stats(h, r.stats);
  o.fingerprint = h.value();

  if (log != nullptr) {
    std::vector<double> calls_ms;
    for (int id : log->children(batch_span, "plan_sub_batch")) {
      calls_ms.push_back(1e3 * log->duration(id));
      o.span_plan_s += log->duration(id);
    }
    o.span_exec_s = log->self_seconds(batch_span);
    o.plan_ms_p50 = median_of(calls_ms);
    o.plan_ms_max = calls_ms.empty() ? 0.0 : max_of(calls_ms);
    o.ip = ip;
  }
  return o;
}

// Takes the concrete MinMinScheduler on purpose: see TracingScheduler.
Outcome run_stream_case(const StreamCase& c, SpanLog* log, int run) {
  Outcome o;
  o.attempted = c.arrivals.size();
  std::vector<service::BatchArrival> arrivals = c.arrivals;  // run() consumes
  std::size_t submitted_tasks = 0;
  for (const service::BatchArrival& a : arrivals)
    submitted_tasks += a.batch.num_tasks();
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, c.cluster, c.catalog, c.options);
  int run_span = -1;
  const double t0 = now_s();
  Result<service::StreamResult> res = [&] {
    ScopedSpan span(log, "stream.run", -1, run);
    run_span = span.id();
    return loop.run(std::move(arrivals));
  }();
  o.wall_s = now_s() - t0;
  if (!res.ok()) {
    o.error = "StreamServiceLoop::run failed: " + res.error().message;
    o.failed = o.attempted;
    return o;
  }
  const service::StreamResult& r = res.value();
  const service::StreamStats& s = r.stats;
  o.stream = s;
  o.stats = s.exec;
  o.tasks = static_cast<double>(s.tasks_executed);
  o.makespan_s = s.completion_time;
  o.resp_p50_s = s.p50_response;
  o.resp_p99_s = s.p99_response;
  o.plan_s = s.total_planning_seconds;
  o.plan_calls = s.planning_cycles;
  o.replica_deficit = s.replica_deficit;
  o.failed = s.batches_arrived - s.batches_completed;

  std::size_t completed_tasks = 0;
  std::vector<double> waits;
  for (const service::StreamBatchMetrics& b : r.batches) {
    if (b.completed + b.shed + b.rejected != 1) {
      o.error = "batch " + std::to_string(b.index) +
                " did not end exactly once (completed/shed/rejected)";
      return o;
    }
    if (b.completed) completed_tasks += b.tasks;
    if (!b.rejected && !b.shed) waits.push_back(b.admit_time - b.arrival_time);
  }
  if (s.batches_arrived != c.arrivals.size() ||
      s.batches_completed + s.shed_batches + s.rejected_batches !=
          s.batches_arrived) {
    o.error = "stream lost batches: " + std::to_string(s.batches_completed) +
              " completed + " + std::to_string(s.shed_batches) + " shed + " +
              std::to_string(s.rejected_batches) + " rejected != " +
              std::to_string(c.arrivals.size()) + " arrived";
    return o;
  }
  if (s.tasks_executed != completed_tasks ||
      s.exec.tasks_executed != completed_tasks ||
      (s.batches_completed == s.batches_arrived &&
       completed_tasks != submitted_tasks)) {
    o.error = "stream executed " + std::to_string(s.tasks_executed) +
              " tasks, completed batches hold " +
              std::to_string(completed_tasks);
    return o;
  }
  o.queue_wait_p50_s = waits.empty() ? 0.0 : percentile(waits, 50.0);
  o.queue_wait_p99_s = waits.empty() ? 0.0 : percentile(waits, 99.0);

  Fnv h;
  for (double v : {s.completion_time, s.p50_response, s.p99_response,
                   s.mean_response, s.slo_attainment, o.queue_wait_p50_s,
                   o.queue_wait_p99_s})
    h.add(v);
  for (std::size_t v :
       {s.batches_completed, s.shed_batches, s.rejected_batches,
        s.degraded_batches, s.slo_met, s.planning_cycles,
        s.windows_committed, s.repair_rounds, s.replica_deficit})
    h.add(static_cast<std::uint64_t>(v));
  add_stats(h, s.exec);
  o.fingerprint = h.value();

  // The service is not wrapped (see TracingScheduler): its own planning
  // timer splits the run() span.
  if (log != nullptr) {
    o.span_plan_s = s.total_planning_seconds;
    o.span_exec_s = log->duration(run_span) - o.span_plan_s;
  }
  return o;
}

// ------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a value that is not finite is a bug in
    // this file, reported as a failed check by the caller.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dense-engine|"
               "wide-planner|disk-faults|ip-sat|stream-rw> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are "
          "required");
  return a;
}

// One workload behind a uniform interface: set up from the seed, then run
// repetitions of the timed entry-point call.
struct Bench {
  std::function<void(std::uint64_t, SpanLog*, int, int)> setup;
  std::function<Outcome(SpanLog*, int)> run;
  std::function<std::size_t()> files;
  std::function<std::size_t()> tasks;
  bool stream = false;
  bool ip = false;
};

Bench make_bench(const std::string& name) {
  Bench b;
  if (name == "stream-rw") {
    auto c = std::make_shared<StreamCase>();
    b.stream = true;
    b.setup = [c](std::uint64_t seed, SpanLog* log, int parent, int run) {
      *c = StreamCase{};  // release the previous round before rebuilding
      *c = setup_stream_rw(seed, log, parent, run);
    };
    b.run = [c](SpanLog* log, int run) {
      return run_stream_case(*c, log, run);
    };
    b.files = [c] { return c->catalog.size(); };
    b.tasks = [c] {
      std::size_t n = 0;
      for (const service::BatchArrival& a : c->arrivals)
        n += a.batch.num_tasks();
      return n;
    };
    return b;
  }
  BatchCase (*setup)(std::uint64_t, SpanLog*, int, int) = nullptr;
  if (name == "dense-engine") setup = setup_dense_engine;
  if (name == "wide-planner") setup = setup_wide_planner;
  if (name == "disk-faults") setup = setup_disk_faults;
  if (name == "ip-sat") setup = setup_ip_sat;
  if (setup == nullptr) usage(("unknown workload " + name).c_str());
  b.ip = name == "ip-sat";
  auto c = std::make_shared<BatchCase>();
  b.setup = [c, setup](std::uint64_t seed, SpanLog* log, int parent,
                       int run) {
    *c = BatchCase{};
    *c = setup(seed, log, parent, run);
  };
  b.run = [c](SpanLog* log, int run) { return run_batch_case(*c, log, run); };
  b.files = [c] { return c->workload.num_files(); };
  b.tasks = [c] { return c->workload.num_tasks(); };
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const Status v = WsRuntime::validate_env(); !v.ok())
    usage(v.error().message.c_str());
  Bench bench = make_bench(args.workload);
  SpanLog spans;
  SpanLog* log = args.trace ? &spans : nullptr;
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  // Set-up: seeded input generation plus the runtime start. Each round
  // rebuilds the same inputs from the seed; setup_s is the median round.
  std::vector<double> setup_s, gen_s, arrival_gen_s;
  const auto set_up = [&] {
    const int round = static_cast<int>(setup_s.size());
    const double t0 = now_s();
    ScopedSpan span(log, "setup", -1, round);
    {
      ScopedSpan rt(log, "runtime.start", span.id(), round);
      WsRuntime::set_global_threads(kThreads);
    }
    bench.setup(args.seed, log, span.id(), round);
    setup_s.push_back(now_s() - t0);
    if (log != nullptr) {
      for (int id : spans.children(span.id(), "workload.gen"))
        gen_s.push_back(spans.duration(id));
      for (int id : spans.children(span.id(), "service.arrival_gen"))
        arrival_gen_s.push_back(spans.duration(id));
    }
  };
  for (std::size_t i = 0; i < kMinSetups; ++i) set_up();

  // One untraced repetition at one planner thread: the thread-count half
  // of the determinism check, sched.plan_1t_s, and a warm-up for the
  // measured repetitions.
  WsRuntime::set_global_threads(1);
  const Outcome one_thread = bench.run(nullptr, -1);
  WsRuntime::set_global_threads(kThreads);
  check(one_thread.error.empty(), "1-thread run: " + one_thread.error);

  // Measured repetitions. With --trace 1 untraced and traced repetitions
  // alternate, so the overhead compares neighbours in time. A set-up round
  // precedes a repetition while set-up has taken less than kSetupShare of
  // the measuring time, so a cheap set-up is timed across the same stretch
  // of host load as the repetitions; an expensive one keeps its first
  // rounds only.
  std::vector<Outcome> plain, traced;
  const double start = now_s();
  while (now_s() - start < args.seconds ||
         plain.size() < (args.trace ? 2 : kMinReps)) {
    if (sum_of(setup_s) < kSetupShare * (now_s() - start)) set_up();
    plain.push_back(bench.run(nullptr, -1));
    if (args.trace)
      traced.push_back(bench.run(log, static_cast<int>(traced.size())));
  }

  std::fprintf(stderr, "perfbench: %s seed %llu: setup",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, " s; 1-thread run %.3f s; runs", one_thread.wall_s);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::fprintf(stderr, " %.3f(%.3f)", plain[i].wall_s, plain[i].plan_s);
    if (i < traced.size())
      std::fprintf(stderr, "/%.3f(%.3f)", traced[i].wall_s, traced[i].plan_s);
  }
  std::fprintf(stderr, " s, wall(planning)%s\n",
               args.trace ? ", untraced/traced" : "");

  std::size_t attempted = 0, failed = 0;
  for (const std::vector<Outcome>* reps : {&plain, &traced})
    for (const Outcome& o : *reps) {
      attempted += o.attempted;
      failed += o.failed;
      check(o.error.empty(), o.error);
      check(o.fingerprint == one_thread.fingerprint,
            "plan fingerprint differs from the 1-thread run");
    }
  for (const Outcome& o : traced)
    check(o.makespan_s == plain.front().makespan_s &&
              o.resp_p50_s == plain.front().resp_p50_s &&
              o.resp_p99_s == plain.front().resp_p99_s,
          "traced run did not reproduce the untraced makespan_s/resp_* bit "
          "for bit");

  const auto median_over = [](const std::vector<Outcome>& reps,
                              double (*f)(const Outcome&)) {
    std::vector<double> v;
    for (const Outcome& o : reps) v.push_back(f(o));
    return median_of(std::move(v));
  };
  const auto tps = [](const Outcome& o) { return o.tasks / o.wall_s; };
  const Outcome& ref = plain.front();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"tasks_per_s", median_over(plain, tps), "1/s"},
        {"makespan_s", ref.makespan_s, "s"},
        {"resp_p50_s", ref.resp_p50_s, "s"},
        {"resp_p99_s", ref.resp_p99_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median_of(setup_s), "s"},
    };
  } else {
    const sim::ExecutionStats& s = ref.stats;
    const double stages =
        static_cast<double>(s.remote_transfers + s.replications);
    const double wall = median_over(traced, [](const Outcome& o) {
      return o.wall_s;
    });
    const double plan_s =
        median_over(traced, [](const Outcome& o) { return o.span_plan_s; });
    const double exec_s =
        median_over(traced, [](const Outcome& o) { return o.span_exec_s; });
    for (const Outcome& o : traced)
      check(std::fabs(o.span_plan_s + o.span_exec_s - o.wall_s) <=
                0.05 * o.wall_s,
            "traced plan + exec do not account for the timed wall within 5%");
    const double sel = median_over(traced, [](const Outcome& o) {
      return o.ip.select_s;
    });
    const double alloc = median_over(traced, [](const Outcome& o) {
      return o.ip.alloc_s;
    });
    const double plain_tps = median_over(plain, tps);
    const double traced_tps = median_over(traced, tps);
    const auto count = [](auto v) { return static_cast<double>(v); };
    const double gb = sim::kGB;
    metrics = {
        {"sim.exec_s", exec_s, "s"},
        {"sim.remote_gb", s.remote_bytes / gb, "GB"},
        {"sim.replica_gb", s.replica_bytes / gb, "GB"},
        {"sim.cache_hit_ratio",
         count(s.cache_hits) / std::max(1.0, count(s.cache_hits) + stages),
         "ratio"},
        {"sim.evictions", count(s.evictions), "count"},
        {"sim.restage_ratio", count(s.restages) / std::max(1.0, stages),
         "ratio"},
        {"sim.transfer_retries", count(s.transfer_retries), "count"},
        {"sim.task_reexecutions", count(s.task_reexecutions), "count"},
        {"sim.recovery_s", s.recovery_seconds, "s"},
        {"sched.plan_s", plan_s, "s"},
        {"sched.plan_calls", count(ref.plan_calls), "count"},
        {"sched.plan_ms_p50",
         median_over(traced, [](const Outcome& o) { return o.plan_ms_p50; }),
         "ms"},
        {"sched.plan_ms_max",
         median_over(traced, [](const Outcome& o) { return o.plan_ms_max; }),
         "ms"},
        {"sched.plan_1t_s", one_thread.plan_s, "s"},
        {"util.plan_speedup", plan_s > 0.0 ? one_thread.plan_s / plan_s : 0.0,
         "ratio"},
        {"ip.select_s", sel, "s"},
        {"ip.alloc_s", alloc, "s"},
        {"ip.warm_s", bench.ip ? plan_s - sel - alloc : 0.0, "s"},
        {"ip.select_nodes", count(traced.front().ip.select_nodes), "count"},
        {"ip.alloc_nodes", count(traced.front().ip.alloc_nodes), "count"},
        {"lp.pivots", count(s.lp_pivots), "count"},
        {"lp.bound_flips", count(s.lp_bound_flips), "count"},
        {"lp.degenerate_pivots", count(s.lp_degenerate_pivots), "count"},
        {"lp.factorizations", count(s.lp_factorizations), "count"},
        {"lp.fill_nnz", count(s.lp_factor_fill_nnz), "count"},
        {"service.plan_s", bench.stream ? plan_s : 0.0, "s"},
        {"service.exec_s", bench.stream ? exec_s : 0.0, "s"},
        {"service.cycles", count(ref.stream.planning_cycles), "count"},
        {"service.windows", count(ref.stream.windows_committed), "count"},
        {"service.queue_wait_p50_s", ref.queue_wait_p50_s, "s"},
        {"service.queue_wait_p99_s", ref.queue_wait_p99_s, "s"},
        {"service.shed", count(ref.stream.shed_batches), "count"},
        {"service.rejected", count(ref.stream.rejected_batches), "count"},
        {"service.degraded", count(ref.stream.degraded_batches), "count"},
        {"service.slo_attainment", ref.stream.slo_attainment, "ratio"},
        {"service.arrival_gen_s", median_of(arrival_gen_s), "s"},
        {"replica.copies", count(s.replicas_created), "count"},
        {"replica.repair_gb", s.repair_bytes / gb, "GB"},
        {"replica.repair_s", s.repair_seconds, "s"},
        {"replica.flushes", count(s.home_flushes), "count"},
        {"replica.invalidated", count(s.replicas_invalidated), "count"},
        {"replica.lost_versions", count(s.lost_versions), "count"},
        {"replica.rounds", count(ref.stream.repair_rounds), "count"},
        {"replica.deficit", count(ref.replica_deficit), "count"},
        {"workload.gen_s", median_of(gen_s), "s"},
        {"workload.tasks", count(bench.tasks()), "count"},
        {"workload.files", count(bench.files()), "count"},
        {"trace.wall_s", wall, "s"},
        {"trace.tasks_per_s", traced_tps, "1/s"},
        {"trace.untraced_tasks_per_s", plain_tps, "1/s"},
        {"trace.overhead_pct", 100.0 * (plain_tps / traced_tps - 1.0), "%"},
        {"trace.spans", count(spans.spans().size()), "count"},
    };
    // Self time per span name, averaged over the traced repetitions.
    std::vector<std::pair<std::string, double>> self;
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      const Span& sp = spans.spans()[i];
      const bool in_setup =
          sp.name == "setup" ||
          (sp.parent >= 0 &&
           spans.spans()[static_cast<std::size_t>(sp.parent)].name == "setup");
      if (in_setup) continue;
      auto it = std::find_if(self.begin(), self.end(),
                             [&](const auto& e) { return e.first == sp.name; });
      if (it == self.end()) it = self.insert(self.end(), {sp.name, 0.0});
      it->second += spans.self_seconds(static_cast<int>(i)) /
                    static_cast<double>(traced.size());
    }
    std::fprintf(stderr, "perfbench: self time per traced run:");
    for (const auto& [name, t] : self)
      std::fprintf(stderr, " %s %.4f s;", name.c_str(), t);
    std::fprintf(stderr, "\n");
    if (!args.spans_out.empty())
      check(spans.write(args.spans_out),
            "could not write spans to " + args.spans_out);
  }
  for (const Metric& m : metrics)
    check(std::isfinite(m.value), "metric " + m.name + " is not finite");

  for (const std::string& f : failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  print_result(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}
