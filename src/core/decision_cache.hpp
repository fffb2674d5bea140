#pragma once
// Dedup-aware decision cache for the planning hot path (DESIGN.md §15).
//
// ~80% of files sit in the lowest variability bucket (paper Fig. 2): their
// daily access-count windows are small integers that repeat massively across
// files and days, so the per-file-per-day network forward — the dominant
// cost of a PlanDriver run under the RL policy — recomputes the same
// output millions of times. DecisionCache memoizes the *chosen action* for
// an exact decision state, so repeated states skip featurization and the
// forward entirely.
//
// Correctness is by construction, not by tolerance:
//   * The key is the EXACT window the featurizer reads — the raw read
//     history bytes, yesterday's write rate, the file size, the current
//     tier, and the day-of-week phase — packed as doubles and compared
//     bytewise on every probe. Two states collide only when every input
//     bit matches, and the network is deterministic (DESIGN.md §7), so a
//     cached action is bit-equal to the action a fresh forward would pick.
//   * Every entry carries the epoch it was computed under: a fingerprint of
//     the deciding policy (parameter hash + decision-mode bits). Training,
//     loading a checkpoint, or switching policies changes the fingerprint,
//     so stale entries can never serve — they miss and age out via LRU.
//
// Concurrency: the table is split into power-of-two lock shards selected by
// key hash; each shard is a util::Mutex-guarded (thread-safety annotated)
// LRU over an open hash map. Batch decide paths probe from parallel_for
// workers; distinct hash shards never contend. Hit/miss/insert/evict flow
// into both local relaxed-atomic stats (for per-run deltas) and the global
// obs counters `core.cache.*`.

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::obs {
class Counter;
}  // namespace minicost::obs

namespace minicost::core {

struct DecisionCacheConfig {
  /// Maximum resident entries across all lock shards. Each entry holds the
  /// packed key (history_len + 4 doubles) plus map/list overhead — the
  /// default bounds the cache near 40 MiB at a 14-day history.
  std::size_t capacity = 1u << 17;
  /// Lock shards (rounded up to a power of two; 0 = default). More shards
  /// cut probe contention from parallel decide workers.
  std::size_t shards = 16;
};

/// One decision state, viewed in place over the trace (nothing is copied
/// until an insert packs it). `reads` is the exact history window the
/// featurizer would encode; `day_phase` is day % 7 when the featurizer uses
/// the day-of-week channel, -1 otherwise; `tier` is the current tier index.
struct DecisionKey {
  std::span<const double> reads;
  double write_rate = 0.0;
  double size_gb = 0.0;
  double tier = 0.0;
  double day_phase = -1.0;

  /// Packed width in doubles: the history window plus the 4 scalars.
  std::size_t packed_width() const noexcept { return reads.size() + 4; }
  /// Serializes into `out` (exactly packed_width() doubles).
  void pack_into(std::span<double> out) const noexcept;
  /// Bytewise equality against another view (intra-batch dedup compare).
  bool equals(const DecisionKey& other) const noexcept;
  /// Bytewise equality against a packed key of the same width.
  bool equals_packed(std::span<const double> packed) const noexcept;
  /// 64-bit hash over the exact key bytes mixed with `epoch`.
  std::uint64_t hash(std::uint64_t epoch) const noexcept;
};

/// Point-in-time counters. Monotonic except `entries`/`resident_bytes`
/// (current residency); fields are individually coherent relaxed loads.
struct DecisionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Batch-dedup accounting, reported by the decide paths that consult this
  /// cache (see note_dedup): rows that missed the cache, and the unique
  /// rows among them that were actually forwarded.
  std::uint64_t dedup_rows = 0;
  std::uint64_t dedup_unique_rows = 0;
  std::uint64_t entries = 0;
  std::uint64_t resident_bytes = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  /// Rows per forward among the cache misses (1.0 = no intra-batch reuse).
  double dedup_ratio() const noexcept {
    return dedup_unique_rows == 0
               ? 1.0
               : static_cast<double>(dedup_rows) /
                     static_cast<double>(dedup_unique_rows);
  }
};

class DecisionCache {
 public:
  explicit DecisionCache(const DecisionCacheConfig& config = {});

  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  /// Probes for `key` under `epoch`. A hit requires the stored epoch AND
  /// every key byte to match; hits are promoted to the front of their
  /// shard's LRU. Thread-safe.
  std::optional<std::uint8_t> lookup(std::uint64_t epoch,
                                     const DecisionKey& key);

  /// Inserts (or refreshes) the action for `key` under `epoch`, evicting
  /// the shard's least-recently-used entry when the shard is full.
  /// Thread-safe.
  void insert(std::uint64_t epoch, const DecisionKey& key,
              std::uint8_t action);

  /// Records one batch's dedup outcome (`rows` cache-missed rows collapsed
  /// to `unique_rows` forwards) so dedup ratios land next to hit rates in
  /// stats() and the obs registry.
  void note_dedup(std::uint64_t rows, std::uint64_t unique_rows) noexcept;

  /// Drops every entry (stats counters are preserved). Thread-safe.
  void clear();

  DecisionCacheStats stats() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t epoch = 0;
    std::vector<double> key;
    std::uint8_t action = 0;
  };
  /// One lock shard: LRU list (front = most recent) plus a hash index into
  /// it. Hash collisions between distinct keys are resolved as misses and
  /// replaced on insert — with 64-bit hashes over exact bytes they are
  /// vanishingly rare, and serving only exact-compared entries keeps the
  /// bit-identity contract unconditional.
  struct Shard {
    mutable util::Mutex mutex;
    std::list<Entry> lru MC_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index
        MC_GUARDED_BY(mutex);
  };

  Shard& shard_for(std::uint64_t hash) noexcept {
    return shards_[hash & shard_mask_];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::uint64_t shard_mask_ = 0;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> dedup_rows_{0};
  std::atomic<std::uint64_t> dedup_unique_rows_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};

  // Registry references resolved once (obs registry nodes are process-
  // lifetime stable); nullptr when obs is disabled at construction.
  obs::Counter* obs_hit_ = nullptr;
  obs::Counter* obs_miss_ = nullptr;
  obs::Counter* obs_insert_ = nullptr;
  obs::Counter* obs_evict_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
};

}  // namespace minicost::core
