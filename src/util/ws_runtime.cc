#include "util/ws_runtime.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/check.h"

namespace bsio {

// One parallel_for in flight. It lives on the caller's stack until `done`
// reaches `nc`; a thread that finished a chunk never touches it again.
struct WsRuntime::Loop {
  const std::function<void(std::size_t, std::size_t)>* body;
  std::size_t n;
  std::size_t nc;           // chunk count
  std::size_t claimed = 0;  // guarded by mu_
  std::atomic<std::size_t> done{0};
};

namespace {

std::unique_ptr<WsRuntime>& global_slot() {
  static std::unique_ptr<WsRuntime> rt;
  return rt;
}

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

WsRuntime::WsRuntime(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  if (threads == 0) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

WsRuntime::~WsRuntime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

Result<std::size_t> WsRuntime::env_threads() {
  const char* env = std::getenv("BSIO_THREADS");
  if (env == nullptr) return std::size_t{0};
  const std::string raw(env);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0')
    return Err("BSIO_THREADS must be a positive integer, got \"" + raw + "\"");
  if (errno == ERANGE || v > 4096)
    return Err("BSIO_THREADS out of range (1..4096), got \"" + raw + "\"");
  if (v <= 0)
    return Err("BSIO_THREADS must be >= 1, got \"" + raw + "\"");
  return static_cast<std::size_t>(v);
}

Status WsRuntime::validate_env() {
  const Result<std::size_t> r = env_threads();
  if (!r.ok()) return r.error();
  return OkStatus();
}

std::size_t WsRuntime::default_threads() {
  const Result<std::size_t> r = env_threads();
  BSIO_CHECK_MSG(r.ok(), r.ok() ? "" : r.error().message.c_str());
  if (r.value() > 0) return r.value();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

WsRuntime& WsRuntime::global() {
  std::lock_guard<std::mutex> lk(global_mu());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<WsRuntime>();
  return *slot;
}

void WsRuntime::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lk(global_mu());
  auto& slot = global_slot();
  slot.reset();  // join the old workers before replacing them
  slot = std::make_unique<WsRuntime>(threads);
}

bool WsRuntime::run_chunk() {
  if (num_open_.load(std::memory_order_relaxed) == 0) return false;
  Loop* loop = nullptr;
  std::size_t c = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty()) return false;
    loop = open_.back();
    c = loop->claimed++;
    if (loop->claimed == loop->nc) {
      open_.pop_back();
      num_open_.store(open_.size(), std::memory_order_relaxed);
    }
  }
  // Static chunking: chunk c always covers the same contiguous range,
  // independent of which thread claims it.
  const std::size_t begin = c * loop->n / loop->nc;
  const std::size_t end = (c + 1) * loop->n / loop->nc;
  if (begin < end) (*loop->body)(begin, end);
  // Release pairs with the caller's acquire load reaching nc, making the
  // chunk's writes visible to it.
  loop->done.fetch_add(1, std::memory_order_release);
  return true;
}

void WsRuntime::worker_main() {
  constexpr int kSpinRounds = 64;
  int spins = 0;
  for (;;) {
    if (run_chunk()) {
      spins = 0;
      continue;
    }
    if (++spins < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    spins = 0;
    std::unique_lock<std::mutex> lk(mu_);
    ++sleepers_;
    wake_.wait(lk, [this] { return stop_ || !open_.empty(); });
    --sleepers_;
    if (stop_) return;
  }
}

void WsRuntime::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (num_threads() == 1 || n < 2) {
    body(0, n);
    return;
  }
  // Mild over-decomposition smooths per-index cost variance while the
  // chunk boundaries stay a pure function of (n, num_threads).
  Loop loop{&body, n, std::min(n, num_threads() * 4)};
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    open_.push_back(&loop);
    num_open_.store(open_.size(), std::memory_order_relaxed);
    wake = sleepers_ > 0;
  }
  if (wake) wake_.notify_all();
  // Help with the newest open loop (this one, or one nested inside a
  // chunk) until every chunk of this loop has finished.
  while (loop.done.load(std::memory_order_acquire) != loop.nc)
    if (!run_chunk()) std::this_thread::yield();
}

}  // namespace bsio
