#pragma once
// Fixed-size worker thread pool with a simple task queue, plus a blocking
// parallel_for used for the library's embarrassingly parallel loops
// (run_policy's file blocks, ARIMA fits, policy evaluation). Degrades to useful behaviour
// on a single hardware thread: parallel_for then runs chunks inline.
//
// Concurrency model (DESIGN.md §8): the queue and the stop flag are the only
// shared mutable state, guarded by mutex_ and annotated for Clang's
// -Wthread-safety. Threads that block inside parallel_for help drain the
// queue while they wait, so nested parallel_for / submit-from-a-task cannot
// deadlock at any nesting depth even when every worker is busy.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::util {

/// The number of CPUs in the calling thread's affinity mask, so `taskset`
/// limits it; std::thread::hardware_concurrency() (at least 1) when the
/// mask cannot be read. The one place the program asks.
std::size_t hardware_threads() noexcept;

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future resolves with the task's result
  /// (or its exception). Do not block on the future from inside a pool
  /// task — use parallel_for (which helps while waiting) for fan-out that
  /// must join.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [begin, end), splitting the range into contiguous
  /// chunks across the pool; blocks until all chunks complete. Exceptions
  /// from any chunk are rethrown (first one wins). While waiting for helper
  /// chunks the calling thread executes other queued tasks, so calls may
  /// nest (a pool task may itself parallel_for on the same pool) without
  /// deadlocking.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  /// Pops and runs one queued task if any is ready; returns whether it ran.
  /// Used by waiting threads to guarantee progress under nesting.
  bool try_run_one();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> queue_ MC_GUARDED_BY(mutex_);
  bool stop_ MC_GUARDED_BY(mutex_) = false;
  std::condition_variable_any cv_;
};

/// Blocks for `n` items on `pool`: one per pool thread, never more than
/// `n`, at least one; one with no pool. Block b of `blocks` covers items
/// [b * n / blocks, (b + 1) * n / blocks).
std::size_t block_count(const ThreadPool* pool, std::size_t n) noexcept;

/// Runs fn(b) for every b in [0, blocks): on `pool` when it is non-null and
/// there is more than one block, else in order on the calling thread. Waits
/// for every block, then rethrows the exception of the lowest block that
/// threw; when each block stops at its first error and the blocks split
/// the work in order, that is the error a serial run meets first.
void run_blocks(ThreadPool* pool, std::size_t blocks,
                const std::function<void(std::size_t)>& fn);

}  // namespace minicost::util
