#pragma once
// Fixed-size thread pool.
//
// The paper parallelizes the per-seed searches with 8 pthreads ("the only
// serial part is the final comparison between the m refined GTLs").  We
// reproduce that structure with a std::thread pool; all tanglefind phases
// I-III run as independent tasks per seed.

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace gtl {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lk(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i, slot) for i in [0, n): min(size(), n) tasks pull indices
  /// from a shared atomic ticket counter, so an expensive index never
  /// pins a whole pre-carved chunk behind it (dynamic load balancing).
  /// `slot` is a stable per-task id in [0, min(size(), n)) — use it to
  /// address per-worker scratch.  Determinism contract: the *set* of
  /// (i, result) pairs is independent of the interleaving as long as fn
  /// writes only to per-index state and per-slot scratch whose contents
  /// do not leak between indices; which slot processes which index is
  /// NOT deterministic.  With one worker (or n == 1) indices are
  /// processed in increasing order.  If any fn throws, its task stops and
  /// the first exception (in slot order) is rethrown — but only after
  /// every task has finished, since running tasks still reference fn.
  void parallel_for_dynamic(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop() GTL_EXCLUDES(mu_);

  // workers_ is written once in the constructor and joined in the
  // destructor; no worker touches it, so it needs no guard.
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ GTL_GUARDED_BY(mu_);
  bool stop_ GTL_GUARDED_BY(mu_) = false;
};

}  // namespace gtl
