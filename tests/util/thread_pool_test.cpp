#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
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
