#include "obs/metrics.hpp"

#include "util/env.hpp"

namespace minicost::obs {
namespace {

std::atomic<bool>& runtime_flag() noexcept {
  // First use reads MINICOST_OBS (default on). Function-local so the env
  // read happens after main() in practice and construction is thread-safe.
  static std::atomic<bool> flag{util::env_int("MINICOST_OBS", 1) != 0};
  return flag;
}

}  // namespace

bool enabled() noexcept {
  if constexpr (!kCompiledIn) return false;
  return runtime_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  runtime_flag().store(on, std::memory_order_relaxed);
}

TimerStats Timer::stats() const noexcept {
  TimerStats out;
  out.count = count_.load(std::memory_order_relaxed);
  out.total_ns = total_ns_.load(std::memory_order_relaxed);
  const std::uint64_t min = min_ns_.load(std::memory_order_relaxed);
  out.min_ns = out.count == 0 ? 0 : min;
  out.max_ns = max_ns_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < TimerStats::kBucketCount; ++b)
    out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  return out;
}

void Timer::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(std::numeric_limits<std::uint64_t>::max(),
                std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.try_emplace(std::string(name)).first;
  return it->second;
}

Timer& Registry::timer(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = timers_.find(name);
  if (it == timers_.end()) it = timers_.try_emplace(std::string(name)).first;
  return it->second;
}

std::vector<Registry::CounterSnapshot> Registry::counters() const {
  util::MutexLock lock(mutex_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    out.push_back({name, counter.value()});
  return out;
}

std::vector<Registry::TimerSnapshot> Registry::timers() const {
  util::MutexLock lock(mutex_);
  std::vector<TimerSnapshot> out;
  out.reserve(timers_.size());
  for (const auto& [name, timer] : timers_)
    out.push_back({name, timer.stats()});
  return out;
}

void Registry::reset() {
  util::MutexLock lock(mutex_);
  for (auto& entry : counters_) entry.second.reset();
  for (auto& entry : timers_) entry.second.reset();
}

}  // namespace minicost::obs
