// Determinism smoke test for the build-critical util layer:
// parallel_for_dynamic over per-index RNG streams derived with Rng::split
// must produce the same values regardless of pool width or scheduling
// order. This is the mechanism behind finder.hpp's promise that results
// depend only on `rng_seed`, never on `num_threads` (the finder-level
// half of that invariant lives in tests/finder/finder_determinism_test.cpp).

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace gtl {
namespace {

std::vector<std::uint64_t> draw_per_index(std::size_t num_threads,
                                          std::uint64_t seed, std::size_t n) {
  std::vector<Rng> streams;
  streams.reserve(n);
  Rng root(seed);
  for (std::size_t i = 0; i < n; ++i) streams.push_back(root.split());
  std::vector<std::uint64_t> out(n);
  ThreadPool pool(num_threads);
  pool.parallel_for_dynamic(
      n, [&](std::size_t i, std::size_t) { out[i] = streams[i].next(); });
  return out;
}

TEST(ThreadPoolDeterminism, PerIndexStreamsIndependentOfThreadCount) {
  const auto one = draw_per_index(1, 42, 256);
  const auto four = draw_per_index(4, 42, 256);
  const auto eight = draw_per_index(8, 42, 256);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(ThreadPoolDeterminism, StreamsIndependentOfPoolReuse) {
  // Reusing one pool for two batches must match two fresh pools.
  std::vector<std::uint64_t> reused;
  {
    Rng root(7);
    std::vector<Rng> streams;
    for (std::size_t i = 0; i < 64; ++i) streams.push_back(root.split());
    reused.resize(64);
    ThreadPool pool(4);
    pool.parallel_for_dynamic(
        32, [&](std::size_t i, std::size_t) { reused[i] = streams[i].next(); });
    pool.parallel_for_dynamic(32, [&](std::size_t i, std::size_t) {
      reused[32 + i] = streams[32 + i].next();
    });
  }
  EXPECT_EQ(reused, draw_per_index(4, 7, 64));
}

}  // namespace
}  // namespace gtl
