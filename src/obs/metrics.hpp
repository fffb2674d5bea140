#pragma once
// Low-overhead observability primitives: monotonic counters, fixed-bucket
// latency timers, and the process-wide registry that names them.
//
// Design constraints (DESIGN.md §10):
//   * Determinism-neutral. Metrics are write-only from the hot paths —
//     nothing in src/ ever reads a timer or counter back into a billed or
//     decided value, so instrumented and uninstrumented runs produce
//     byte-identical plans and bills (pinned by tests/obs/).
//   * Thread-safe without perturbing concurrency. Metric updates are relaxed
//     atomics (no fences the hot paths would otherwise not have); only
//     registration/lookup takes the registry's util::Mutex, and call sites
//     hit that at phase granularity (per run/day/shard), never per file.
//   * Near-zero when off. With the runtime kill switch (MINICOST_OBS=0 or
//     set_enabled(false)) the MC_OBS_* macros skip the registry lookup and
//     the clock reads entirely — no allocation, no lock, no syscall. With
//     the compile-time switch (-DMINICOST_OBS=OFF → MINICOST_OBS_DISABLED)
//     they expand to nothing at all.
//
// Instrument with the macros, not the classes:
//
//   MC_OBS_SCOPE("core.decide");                   // RAII phase timer
//   MC_OBS_COUNT("store.reader.bytes_mapped", n);  // monotonic counter
//
// Timing uses std::chrono::steady_clock only — wall-clock time never enters
// the library (tools/lint_contract.py's time-seed rule stays authoritative).

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::obs {

/// True when the library was built with instrumentation compiled in
/// (the default; -DMINICOST_OBS=OFF flips it).
#if defined(MINICOST_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Runtime kill switch. Initialized once from MINICOST_OBS (default on);
/// relaxed reads so hot paths pay one uncontended load.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// A monotonic event/byte counter. All operations are relaxed atomics: the
/// value is a statistic, never a synchronization point.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t amount) noexcept {
    value_.fetch_add(amount, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time view of a Timer. Fields are individually coherent but the
/// snapshot is not atomic across fields; take it when workers are quiesced
/// (which is when run reports are emitted).
struct TimerStats {
  /// Bucket b holds durations whose nanosecond count has bit-width b:
  /// b0 = {0 ns}, b(i) = [2^(i-1), 2^i) ns for 1 <= i < 31, and the last
  /// bucket absorbs everything >= 2^30 ns (~1.07 s).
  static constexpr std::size_t kBucketCount = 32;

  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  ///< 0 when count == 0
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kBucketCount> buckets{};

  double total_seconds() const noexcept {
    return static_cast<double>(total_ns) * 1e-9;
  }
};

/// A duration aggregate (count/total/min/max + log2 histogram). Lock-free:
/// concurrent record_ns() calls interleave with relaxed atomics.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  static constexpr std::size_t bucket_index(std::uint64_t ns) noexcept {
    const auto width = static_cast<std::size_t>(std::bit_width(ns));
    return width < TimerStats::kBucketCount ? width
                                            : TimerStats::kBucketCount - 1;
  }

  void record_ns(std::uint64_t ns) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = min_ns_.load(std::memory_order_relaxed);
    while (ns < seen &&
           !min_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  TimerStats stats() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_ns_{0};
  std::array<std::atomic<std::uint64_t>, TimerStats::kBucketCount> buckets_{};
};

/// The process-wide metric namespace. Lookup registers on first use and
/// returns a reference that stays valid for the process lifetime (std::map
/// nodes are stable; reset() zeroes values, it never erases entries) — hot
/// paths may cache it. Lookup takes the registry mutex; updates through the
/// returned reference are lock-free.
class Registry {
 public:
  struct CounterSnapshot {
    std::string name;
    std::uint64_t value = 0;
  };
  struct TimerSnapshot {
    std::string name;
    TimerStats stats;
  };

  static Registry& global();

  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);

  /// Sorted-by-name snapshots (what run reports serialize).
  std::vector<CounterSnapshot> counters() const;
  std::vector<TimerSnapshot> timers() const;

  /// Zeroes every metric in place. References handed out stay valid.
  void reset();

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_ MC_GUARDED_BY(mutex_);
  std::map<std::string, Timer, std::less<>> timers_ MC_GUARDED_BY(mutex_);
};

inline Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
inline Timer& timer(std::string_view name) {
  return Registry::global().timer(name);
}

/// RAII phase timer: records the scope's steady-clock duration into the
/// named Timer at destruction. When obs is disabled at construction time it
/// does nothing at all — no lookup, no clock read, no allocation.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : timer_(enabled() ? &obs::timer(name) : nullptr),
        start_(timer_ != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  /// Records into an already-resolved timer (test/bench convenience).
  explicit ScopedTimer(Timer& into) noexcept
      : timer_(enabled() ? &into : nullptr),
        start_(timer_ != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (timer_ == nullptr) return;
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    timer_->record_ns(elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace minicost::obs

// Instrumentation macros — the only spelling hot paths should use. The
// compile-time switch erases them entirely; the runtime switch short-circuits
// before any lookup or clock read.
#define MC_OBS_CONCAT_IMPL(a, b) a##b
#define MC_OBS_CONCAT(a, b) MC_OBS_CONCAT_IMPL(a, b)

#if defined(MINICOST_OBS_DISABLED)
#define MC_OBS_SCOPE(name) \
  do {                     \
  } while (false)
#define MC_OBS_COUNT(name, amount) \
  do {                             \
  } while (false)
#else
#define MC_OBS_SCOPE(name)                                            \
  const ::minicost::obs::ScopedTimer MC_OBS_CONCAT(mc_obs_scope_,     \
                                                   __LINE__) {        \
    name                                                              \
  }
#define MC_OBS_COUNT(name, amount)                               \
  do {                                                           \
    if (::minicost::obs::enabled())                              \
      ::minicost::obs::counter(name).add(                        \
          static_cast<std::uint64_t>(amount));                   \
  } while (false)
#endif
