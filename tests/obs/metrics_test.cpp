// Counter/Timer/Registry semantics plus the two properties the obs layer is
// accountable for: exact totals under concurrent hammering (the registry and
// its metrics are shared mutable state on every hot path) and true zero-cost
// when disabled (no lookup, no clock, no allocation).

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

// Global allocation counter for the disabled-mode zero-allocation check.
// Overriding the global operators in this binary is the only way to observe
// "the macros did not allocate" directly; tests outside the guarded section
// are unaffected beyond one relaxed increment per allocation.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace minicost::obs {
namespace {

TEST(CounterTest, AddValueReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add(5);
  counter.add(1);
  EXPECT_EQ(counter.value(), 6u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(TimerTest, BucketBoundaries) {
  // b0 = {0}, b(i) = [2^(i-1), 2^i) ns, last bucket absorbs >= 2^30.
  EXPECT_EQ(Timer::bucket_index(0), 0u);
  EXPECT_EQ(Timer::bucket_index(1), 1u);
  EXPECT_EQ(Timer::bucket_index(2), 2u);
  EXPECT_EQ(Timer::bucket_index(3), 2u);
  EXPECT_EQ(Timer::bucket_index(4), 3u);
  for (std::size_t k = 1; k < 30; ++k) {
    EXPECT_EQ(Timer::bucket_index(std::uint64_t{1} << k), k + 1)
        << "at 2^" << k;
    EXPECT_EQ(Timer::bucket_index((std::uint64_t{1} << k) - 1), k)
        << "below 2^" << k;
  }
  EXPECT_EQ(Timer::bucket_index(std::uint64_t{1} << 30), 31u);
  EXPECT_EQ(Timer::bucket_index(std::uint64_t{1} << 40), 31u);
  EXPECT_EQ(Timer::bucket_index(~std::uint64_t{0}), 31u);
}

TEST(TimerTest, RecordAggregates) {
  Timer timer;
  EXPECT_EQ(timer.stats().count, 0u);
  EXPECT_EQ(timer.stats().min_ns, 0u);  // empty timer reads as zeros

  timer.record_ns(0);
  timer.record_ns(7);
  timer.record_ns(1000);
  const TimerStats stats = timer.stats();
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.total_ns, 1007u);
  EXPECT_EQ(stats.min_ns, 0u);
  EXPECT_EQ(stats.max_ns, 1000u);
  EXPECT_EQ(stats.buckets[0], 1u);                          // 0 ns
  EXPECT_EQ(stats.buckets[Timer::bucket_index(7)], 1u);     // b3
  EXPECT_EQ(stats.buckets[Timer::bucket_index(1000)], 1u);  // b10
  EXPECT_DOUBLE_EQ(stats.total_seconds(), 1007e-9);

  timer.reset();
  EXPECT_EQ(timer.stats().count, 0u);
  EXPECT_EQ(timer.stats().min_ns, 0u);
  EXPECT_EQ(timer.stats().max_ns, 0u);
}

TEST(RegistryTest, LookupIsStableAndIdempotent) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& again = registry.counter("x");
  EXPECT_EQ(&a, &again);
  Timer& t = registry.timer("x");  // separate namespace from counters
  EXPECT_EQ(&t, &registry.timer("x"));

  a.add(3);
  registry.counter("w").add(1);
  const std::vector<Registry::CounterSnapshot> snapshot = registry.counters();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "w");  // sorted by name
  EXPECT_EQ(snapshot[1].name, "x");
  EXPECT_EQ(snapshot[1].value, 3u);
}

TEST(RegistryTest, ResetZeroesInPlace) {
  Registry registry;
  Counter& counter = registry.counter("kept");
  counter.add(42);
  Timer& timer = registry.timer("kept");
  timer.record_ns(100);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);          // same reference, zeroed
  EXPECT_EQ(timer.stats().count, 0u);
  EXPECT_EQ(&registry.counter("kept"), &counter);  // entry not erased
  counter.add(1);
  EXPECT_EQ(registry.counters().back().value, 1u);
}

// The pool-stress pattern from tests/util: many threads hammer overlapping
// names through the registry. Totals must be exact — a lost update or a
// registration race would show up as a wrong sum (and as a TSan report in
// the sanitizer jobs, with no suppressions).
TEST(RegistryStressTest, ConcurrentRegistrationAndUpdatesAreExact) {
  Registry registry;
  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIters = 500;

  pool.parallel_for(0, kTasks, [&](std::size_t task) {
    const std::string own = "stress.own." + std::to_string(task % 8);
    for (std::size_t i = 0; i < kIters; ++i) {
      registry.counter("stress.shared").add(1);
      registry.counter(own).add(2);
      registry.timer("stress.timer").record_ns(i);
      ScopedTimer scope(registry.timer("stress.scoped"));
    }
  });

  EXPECT_EQ(registry.counter("stress.shared").value(), kTasks * kIters);
  std::uint64_t own_total = 0;
  for (const auto& snapshot : registry.counters())
    if (snapshot.name.rfind("stress.own.", 0) == 0) own_total += snapshot.value;
  EXPECT_EQ(own_total, kTasks * kIters * 2);
  const TimerStats timer = registry.timer("stress.timer").stats();
  EXPECT_EQ(timer.count, kTasks * kIters);
  // sum over i in [0, kIters) per task
  EXPECT_EQ(timer.total_ns, kTasks * (kIters * (kIters - 1) / 2));
  EXPECT_EQ(timer.min_ns, 0u);
  EXPECT_EQ(timer.max_ns, kIters - 1);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : timer.buckets) bucketed += b;
  EXPECT_EQ(bucketed, timer.count);
  EXPECT_EQ(registry.timer("stress.scoped").stats().count, kTasks * kIters);
}

TEST(ScopedTimerTest, RecordsOncePerScope) {
  Timer timer;
  { ScopedTimer scope(timer); }
  { ScopedTimer scope(timer); }
  EXPECT_EQ(timer.stats().count, 2u);
}

class DisabledModeTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(false); }
  void TearDown() override { set_enabled(true); }
};

TEST_F(DisabledModeTest, MacrosAllocateNothingAndRegisterNothing) {
  // Warm up: the macro path below must not be the first thing that touches
  // any lazily-initialized state.
  ASSERT_FALSE(enabled());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    MC_OBS_COUNT("disabled.counter", 123);
    MC_OBS_SCOPE("disabled.scope");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "disabled MC_OBS_* macros allocated";

  // Nothing registered either: the names must not exist in the registry.
  for (const auto& snapshot : Registry::global().counters())
    EXPECT_NE(snapshot.name, "disabled.counter");
  for (const auto& snapshot : Registry::global().timers())
    EXPECT_NE(snapshot.name, "disabled.scope");
}

TEST_F(DisabledModeTest, ScopedTimerOnResolvedTimerIsInert) {
  Timer timer;
  { ScopedTimer scope(timer); }
  EXPECT_EQ(timer.stats().count, 0u);
}

TEST(EnabledModeTest, MacrosRegisterAndCount) {
  if (!kCompiledIn) GTEST_SKIP() << "built with MINICOST_OBS=OFF";
  MC_OBS_COUNT("enabled.counter", 5);
  MC_OBS_COUNT("enabled.counter", 7);
  { MC_OBS_SCOPE("enabled.scope"); }
  EXPECT_EQ(Registry::global().counter("enabled.counter").value(), 12u);
  EXPECT_GE(Registry::global().timer("enabled.scope").stats().count, 1u);
}

}  // namespace
}  // namespace minicost::obs
