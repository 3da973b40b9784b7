// Tests for the planners' fork-join runtime: randomly nested parallel_for
// trees, concurrent external callers, loops that call into another
// runtime, and BSIO_THREADS parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/ws_runtime.h"

namespace bsio {
namespace {

// ------------------------------------------------------- nested loops

// One node of a random loop tree: it records itself, then fans out through
// a nested parallel_for whose width is drawn from its own seed. The shape
// is a pure function of the root seed, whichever worker runs a node, so a
// run on `rt` must visit exactly the nodes the sequential walk
// (rt == nullptr) visits: equal counts and equal seed checksums.
struct TreeTally {
  std::atomic<long> nodes{0};
  std::atomic<std::uint64_t> checksum{0};
};

void visit_tree(WsRuntime* rt, std::uint64_t seed, int depth,
                TreeTally& tally) {
  tally.nodes.fetch_add(1, std::memory_order_relaxed);
  tally.checksum.fetch_add(seed, std::memory_order_relaxed);
  if (depth == 0) return;
  const std::size_t fanout = hash_mix(seed) % 6;  // 0..5 children
  auto child = [&](std::size_t i) {
    visit_tree(rt, hash_mix(seed + 1 + i), depth - 1, tally);
  };
  if (rt == nullptr) {
    for (std::size_t i = 0; i < fanout; ++i) child(i);
  } else {
    rt->parallel_for_each(fanout, child);
  }
}

TEST(WsRuntimeStress, RandomizedNestedTaskGraphs) {
  Rng rng(20240808);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    WsRuntime rt(threads);
    for (int round = 0; round < 16; ++round) {
      const std::uint64_t seed = rng();
      const std::size_t roots = 1 + rng.uniform(40);
      const int depth = static_cast<int>(rng.uniform(5));
      TreeTally want, got;
      for (std::size_t r = 0; r < roots; ++r)
        visit_tree(nullptr, hash_mix(seed + r), depth, want);
      rt.parallel_for_each(roots, [&](std::size_t r) {
        visit_tree(&rt, hash_mix(seed + r), depth, got);
      });
      EXPECT_EQ(got.nodes.load(), want.nodes.load())
          << "threads=" << threads << " round=" << round;
      EXPECT_EQ(got.checksum.load(), want.checksum.load())
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(WsRuntimeStress, ParallelForInsideSpawnedJobs) {
  // A parallel_for issued from inside a running chunk must nest (open its
  // own loop and help), not deadlock or double-run indices — at every
  // thread count, for random outer and inner ranges (including empty and
  // single-index inner loops).
  Rng rng(4711);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    WsRuntime rt(threads);
    for (int round = 0; round < 8; ++round) {
      const std::size_t n = 1 + rng.uniform(64);
      std::vector<std::size_t> m(n), offset(n + 1, 0);
      for (std::size_t i = 0; i < n; ++i) {
        m[i] = rng.uniform(130);
        offset[i + 1] = offset[i] + m[i];
      }
      std::vector<std::atomic<int>> hits(offset[n]);
      for (auto& h : hits) h = 0;
      rt.parallel_for_each(n, [&](std::size_t i) {
        rt.parallel_for_each(m[i], [&](std::size_t j) {
          hits[offset[i] + j].fetch_add(1, std::memory_order_relaxed);
        });
      });
      for (std::size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(hits[k].load(), 1)
            << "threads=" << threads << " round=" << round << " k=" << k;
    }
  }
}

TEST(WsRuntimeStress, ConcurrentExternalCallersShareOneRuntime) {
  // Two threads outside the runtime issue loops on it at the same time;
  // their chunks interleave on the shared list, and each loop must still
  // cover its own range exactly once.
  constexpr std::size_t kCallers = 2;
  constexpr int kRounds = 50;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    WsRuntime rt(threads);
    std::vector<std::vector<std::atomic<int>>> hits(kCallers);
    for (auto& h : hits) {
      h = std::vector<std::atomic<int>>(1000);
      for (auto& x : h) x = 0;
    }
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < kCallers; ++t)
      callers.emplace_back([&rt, &hits, t] {
        for (int round = 0; round < kRounds; ++round)
          rt.parallel_for_each(hits[t].size(), [&](std::size_t i) {
            hits[t][i].fetch_add(1, std::memory_order_relaxed);
          });
      });
    for (auto& c : callers) c.join();
    for (std::size_t t = 0; t < kCallers; ++t)
      for (std::size_t i = 0; i < hits[t].size(); ++i)
        ASSERT_EQ(hits[t][i].load(), kRounds)
            << "threads=" << threads << " caller=" << t << " i=" << i;
  }
}

TEST(WsRuntimeStress, ChunkCallsIntoAnotherRuntime) {
  // A chunk of runtime A opens a loop on runtime B and helps there; B's
  // workers and A's threads then share B's loops.
  Rng rng(99);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    WsRuntime a(threads);
    WsRuntime b(threads);
    const std::size_t n = 1 + rng.uniform(48);
    std::vector<std::size_t> m(n), offset(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      m[i] = rng.uniform(100);
      offset[i + 1] = offset[i] + m[i];
    }
    std::vector<std::atomic<int>> hits(offset[n]);
    for (auto& h : hits) h = 0;
    a.parallel_for_each(n, [&](std::size_t i) {
      b.parallel_for_each(m[i], [&](std::size_t j) {
        hits[offset[i] + j].fetch_add(1, std::memory_order_relaxed);
      });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
      ASSERT_EQ(hits[k].load(), 1) << "threads=" << threads << " k=" << k;
  }
}

// ------------------------------------------------------------ BSIO_THREADS

class EnvThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("BSIO_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  void TearDown() override {
    if (had_)
      setenv("BSIO_THREADS", saved_.c_str(), 1);
    else
      unsetenv("BSIO_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST_F(EnvThreadsTest, UnsetIsZeroAndValid) {
  unsetenv("BSIO_THREADS");
  const auto r = WsRuntime::env_threads();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u);
  EXPECT_TRUE(WsRuntime::validate_env().ok());
}

TEST_F(EnvThreadsTest, ValidValueParses) {
  setenv("BSIO_THREADS", "4", 1);
  const auto r = WsRuntime::env_threads();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4u);
  EXPECT_TRUE(WsRuntime::validate_env().ok());
}

TEST_F(EnvThreadsTest, MalformedZeroNegativeAndHugeAreTypedErrors) {
  for (const char* bad : {"abc", "4x", "", "0", "-3", "99999999999999"}) {
    setenv("BSIO_THREADS", bad, 1);
    EXPECT_FALSE(WsRuntime::env_threads().ok()) << "value: " << bad;
    const Status s = WsRuntime::validate_env();
    ASSERT_FALSE(s.ok()) << "value: " << bad;
    EXPECT_NE(s.error().message.find("BSIO_THREADS"), std::string::npos)
        << "value: " << bad;
  }
}

}  // namespace
}  // namespace bsio
