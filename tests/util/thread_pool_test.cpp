#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace minicost::util {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SizeMatchesRequested) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), hardware_threads());
}

// A thread confined to one CPU of its mask (as under `taskset -c N`) sizes
// pools at 1. Only the test's own thread is pinned.
TEST(ThreadPoolTest, HardwareThreadsHonoursTheAffinityMask) {
  std::size_t pinned = 0;
  int error = 0;
  std::thread probe([&] {
    cpu_set_t mask;
    error = pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
    if (error != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &mask)) ++cpu;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    error = pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
    if (error == 0) pinned = hardware_threads();
  });
  probe.join();
  ASSERT_EQ(error, 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(RunBlocksTest, BlockCountIsOnePerThreadNeverMoreThanItems) {
  ThreadPool pool(4);
  EXPECT_EQ(block_count(nullptr, 100), 1u);
  EXPECT_EQ(block_count(&pool, 100), 4u);
  EXPECT_EQ(block_count(&pool, 3), 3u);
  EXPECT_EQ(block_count(&pool, 0), 1u);
}

TEST(RunBlocksTest, RunsEveryBlockOnce) {
  for (const std::size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(7);
    run_blocks(&pool, visits.size(),
               [&](std::size_t b) { visits[b].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(RunBlocksTest, RethrowsTheLowestFailingBlockAfterEveryBlockRan) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    std::atomic<int> ran{0};
    try {
      run_blocks(pool, 6, [&](std::size_t b) {
        ran.fetch_add(1);
        if (b == 2 || b == 4) throw std::runtime_error(std::to_string(b));
      });
      ADD_FAILURE() << "no error";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "2");
    }
    // Serially the first error stops the loop; on a pool every block runs.
    EXPECT_EQ(ran.load(), pool == nullptr ? 3 : 6);
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(0, visits.size(),
                    [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> values(10000);
  pool.parallel_for(0, values.size(),
                    [&](std::size_t i) { values[i] = static_cast<long>(i); });
  const long total = std::accumulate(values.begin(), values.end(), 0L);
  EXPECT_EQ(total, 10000L * 9999L / 2);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::invalid_argument("x");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPoolTest, ParallelForWorksWithSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ManySmallTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  futures.reserve(500);
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(count.load(), 500);
}

}  // namespace
}  // namespace minicost::util
