// Fork-join runtime for the parallel planners.
//
// Architecture: one mutex-guarded list of open loops. parallel_for pushes
// a stack-allocated loop record (body, n, chunk count, claimed count, done
// count) and wakes parked workers; the T-1 background workers and the
// caller then claim chunks from the newest open loop, which leaves the
// list when its last chunk is claimed. The caller helps until every chunk
// of its own loop is done. A nested parallel_for — FM refinement inside a
// hypergraph bisection branch, or a chunk of one runtime calling into
// another — just opens another loop and helps; chunks never block, so
// helping cannot deadlock. A runtime of size 1 spawns no threads and runs
// everything inline. Idle workers spin a few rounds, then park on a
// condvar until a loop is published.
//
// Determinism contract: parallel_for splits [0, n) into statically sized
// contiguous chunks — a pure function of (n, num_threads), never of
// timing — each index is visited exactly once, and the body must write
// only to state owned by its index (slot i of a preallocated output
// array). Every ordering decision (argmin ties, heap pushes, reductions)
// is made by the caller in a sequential index-order pass over the slots.
// Under this contract plans are bit-identical at any thread count and
// whichever thread runs a chunk.
//
// The process-wide runtime (WsRuntime::global()) is sized from the
// BSIO_THREADS environment variable. Malformed, zero, or negative values
// are a typed bsio::Error: validate_env()/env_threads() surface it to
// callers that can report it (run_batch, bench mains); constructing a
// runtime with the variable malformed is an internal invariant violation
// and aborts with the same message.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.h"

namespace bsio {

class WsRuntime {
 public:
  // `threads` counts the caller: threads <= 1 means no background workers.
  // 0 picks default_threads() (aborts if BSIO_THREADS is set but invalid —
  // validate_env() first on paths that want the typed error).
  explicit WsRuntime(std::size_t threads = 0);
  ~WsRuntime();

  WsRuntime(const WsRuntime&) = delete;
  WsRuntime& operator=(const WsRuntime&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  // Invokes body(begin, end) over disjoint static sub-ranges covering
  // [0, n); see the determinism contract above. Safe to call from several
  // threads at once and from inside a running chunk.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Per-index convenience wrapper around parallel_for.
  template <typename F>
  void parallel_for_each(std::size_t n, F&& f) {
    parallel_for(n, [&f](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) f(i);
    });
  }

  // BSIO_THREADS as a typed value: the thread count if set and valid, 0 if
  // unset, Error if set but malformed / zero / negative / out of range.
  static Result<std::size_t> env_threads();
  // OkStatus() when BSIO_THREADS is unset or valid; the parse Error
  // otherwise. Entry points (run_batch, bench mains) call this before the
  // first global() touch so users get an error message, not an abort.
  static Status validate_env();

  // BSIO_THREADS if set (aborts when invalid), else hardware concurrency.
  static std::size_t default_threads();

  // Process-wide runtime used by the planners.
  static WsRuntime& global();

  // Recreates the global runtime with `threads` threads (0 = default).
  // Not safe while a parallel construct is in flight on the old runtime.
  static void set_global_threads(std::size_t threads);

 private:
  struct Loop;

  // Claims the next chunk of the newest open loop and runs it; false when
  // no loop is open.
  bool run_chunk();
  void worker_main();

  std::mutex mu_;
  std::condition_variable wake_;  // workers park until a loop is open
  std::vector<Loop*> open_;       // guarded by mu_; newest at the back
  // open_.size(), stored under mu_: idle threads poll it instead of
  // contending for mu_ with the threads claiming chunks.
  std::atomic<std::size_t> num_open_{0};
  std::size_t sleepers_ = 0;  // guarded by mu_
  bool stop_ = false;         // guarded by mu_

  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace bsio
