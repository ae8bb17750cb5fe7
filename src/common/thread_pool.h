// Fixed-size thread pool used by the optional parallel search mode of the
// AutoML controller (paper appendix: multiple search threads sampled by ECI)
// and by the forest trainers for per-tree parallelism.
//
// Shutdown contract (verified under TSan by tests/stress/stress_thread_pool):
//   * shutdown() (and the destructor) first marks the pool stopped under the
//     queue mutex, then joins the workers; workers drain every task that was
//     queued before the stop flag was set, so accepted work always runs.
//   * submit() after shutdown began throws the typed PoolStopped (an
//     InvalidArgument subclass) instead of enqueueing a task that could never
//     run (the enqueue/destroy race); try_submit() is the non-throwing
//     spelling for callers — like a worker task of this very pool enqueueing
//     follow-up work while the pool is being torn down — that must treat
//     "the pool is going away" as an ordinary outcome, not an error.
//   * The condition variable is only notified while the queue mutex is held:
//     a notify after unlocking could touch a condition variable whose pool is
//     already mid-destruction on another thread.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.h"

namespace flaml {

class ThreadPool {
 public:
  // n == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Stop accepting new tasks, run everything already queued, join workers.
  // Idempotent; called by the destructor. Must not be called from a worker
  // thread of this pool (a worker cannot join itself).
  void shutdown();

  // True once shutdown() has begun; submit() will throw from then on.
  // Inherently racy as a pre-check (shutdown can begin right after it
  // returns) — use try_submit() when the answer must be authoritative.
  bool stopped() const;

  // Enqueue a task; the returned future rethrows any exception on get().
  // Throws PoolStopped if the pool is (being) shut down — the stop flag and
  // the enqueue are checked/performed under one lock hold, so a task is
  // either visible to the draining workers or rejected, never lost in
  // between. Note: blocking on a future from inside a worker of the same
  // pool can deadlock once all workers block; use parallel_for for nested
  // parallelism instead.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    auto fut = try_submit(std::forward<F>(f));
    if (!fut.has_value()) {
      throw PoolStopped("submit() on a stopped ThreadPool");
    }
    return std::move(*fut);
  }

  // Non-throwing submit: nullopt once shutdown has begun. The atomic
  // check-and-enqueue is the same as submit()'s; only the rejection surface
  // differs. Safe to call from this pool's own workers (a dying worker's
  // follow-up enqueue gets a clean rejection instead of racing the drain).
  template <typename F>
  auto try_submit(F&& f)
      -> std::optional<std::future<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return std::nullopt;
      queue_.emplace_back([task] { (*task)(); });
      cv_.notify_one();  // under the lock — see the shutdown contract above
    }
    return fut;
  }

  // Run fn(i) for i in [0, n) across the pool and wait for completion.
  // Safe to call from inside one of this pool's own workers: the nested call
  // runs inline on the calling thread instead of deadlocking on the queue.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Same, but with at most `max_threads` threads working concurrently
  // (counting the calling thread, which always helps). max_threads <= 1
  // degrades to an inline loop. This is the primitive behind the per-trial
  // n_threads knob: one shared pool serves every trial, each capping its
  // own slice of it.
  void parallel_for(std::size_t n, std::size_t max_threads,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  bool on_worker_thread() const;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool joined_ = false;  // workers joined (shutdown completed)
};

// Process-wide pool for intra-trial data parallelism (forest bagging and
// row-sharded score update/prediction). Lazily constructed
// on first use with max(8, hardware_concurrency) workers so that the
// deterministic parallel==serial contract can be exercised even on small
// machines; per-call concurrency is capped by the caller's n_threads via
// parallel_for(n, max_threads, fn). Distinct from the trial-level pool the
// AutoML controller creates per fit(): a trial running on a controller
// worker fans its inner loops out here, while work that reaches this pool's
// own workers degrades to inline loops (nested-parallel_for contract), so
// trial-level and intra-trial parallelism compose without deadlock.
ThreadPool& shared_pool();

// Split [0, n) into at most max(1, n_threads) contiguous shards and run
// fn(begin, end) on each, using `pool` when non-null and more than one
// shard results (serial inline otherwise). fn must be safe to run
// concurrently on disjoint ranges, and callers must not let results depend
// on shard boundaries — write per-index (or per-shard) outputs and reduce
// them in a fixed order afterwards to preserve bit-exact determinism.
void sharded_for(ThreadPool* pool, int n_threads, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace flaml
