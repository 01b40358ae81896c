#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "util/failpoint.hpp"

namespace gtl {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    // Failpoint "thread_pool.task": delay = stall this worker before the
    // task runs, widening scheduling races for the chaos suite.  Other
    // actions are meaningless here and ignored.
    if (failpoint::Action fp; failpoint::check("thread_pool.task", &fp)) {
      if (fp.kind == failpoint::Action::Kind::kDelay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
      }
    }
    task();
  }
}

namespace {

/// Wait for EVERY future before rethrowing the first captured exception.
/// Rethrowing from the first failed get() would unwind this frame while
/// later tasks are still running — and they reference the caller's
/// stack-local fn and the ticket counter.
void join_all_then_throw(std::vector<std::future<void>>& futs) {
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

void ThreadPool::parallel_for_dynamic(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  const std::size_t slots = std::min(size(), n);
  std::vector<std::future<void>> futs;
  futs.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    futs.push_back(submit([&fn, &next, n, slot] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i, slot);
      }
    }));
  }
  join_all_then_throw(futs);
}

}  // namespace gtl
