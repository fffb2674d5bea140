#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

namespace minicost::util {

std::size_t hardware_threads() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      cv_.wait(lock, [this]() MC_REQUIRES(mutex_) {
        return stop_ || !queue_.empty();
      });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // About four chunks per thread, the size rounded down: rounding it up
  // would cut 20 indices on 4 threads into 10 two-index chunks, so one
  // thread would run 6 indices where 5 do.
  const std::size_t chunk_size = std::max<std::size_t>(1, n / (size() * 4));
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;

  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  Mutex error_mutex;

  auto run_chunks = [&] {
    while (true) {
      const std::size_t lo = next.fetch_add(chunk_size);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + chunk_size);
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::future<void>> pending;
  const std::size_t helpers = std::min(chunks, size());
  pending.reserve(helpers);
  // The calling thread participates, so the pool being busy (or size 1)
  // never deadlocks this loop.
  for (std::size_t i = 1; i < helpers; ++i) pending.push_back(submit(run_chunks));
  run_chunks();
  // Join the helpers, draining other queued tasks while any helper is still
  // pending. A blocked wait here is only reached once the queue is empty,
  // i.e. when the helper is *executing* on another thread; that thread obeys
  // the same rule, so the wait graph follows execution nesting and is
  // acyclic — nested parallel_for cannot deadlock.
  for (auto& future : pending) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) {
        future.wait();
        break;
      }
    }
  }

  if (first_error) std::rethrow_exception(first_error);
}

std::size_t block_count(const ThreadPool* pool, std::size_t n) noexcept {
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  return std::max<std::size_t>(1, std::min(threads, n));
}

void run_blocks(ThreadPool* pool, std::size_t blocks,
                const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || blocks <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    return;
  }
  std::vector<std::exception_ptr> errors(blocks);
  pool->parallel_for(0, blocks, [&](std::size_t b) {
    try {
      fn(b);
    } catch (...) {
      errors[b] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace minicost::util
