#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace gtl {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DynamicVisitsEveryIndexOnceWithValidSlots) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<bool> slot_ok{true};
  pool.parallel_for_dynamic(100, [&](std::size_t i, std::size_t slot) {
    hits[i].fetch_add(1);
    if (slot >= 4) slot_ok = false;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(slot_ok.load());
}

TEST(ThreadPool, DynamicMoreWorkersThanItems) {
  // Only min(size, n) slots may appear: per-slot scratch sized to the
  // item count must stay in bounds.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  std::atomic<bool> slot_ok{true};
  pool.parallel_for_dynamic(3, [&](std::size_t i, std::size_t slot) {
    hits[i].fetch_add(1);
    if (slot >= 3) slot_ok = false;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(slot_ok.load());
}

TEST(ThreadPool, DynamicZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for_dynamic(
      0, [](std::size_t, std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, DynamicSingleWorkerRunsInIndexOrder) {
  // The deterministic-prefix guarantee for cancelled runs rests on this:
  // one worker drains the ticket counter in increasing order.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for_dynamic(
      64, [&](std::size_t i, std::size_t) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DynamicPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_dynamic(8,
                                [](std::size_t i, std::size_t) {
                                  if (i == 3) throw std::runtime_error("x");
                                }),
      std::runtime_error);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 1000; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500500);
}

}  // namespace
}  // namespace gtl
