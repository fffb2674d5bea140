#pragma once
// Sharded A3C parameter server (DESIGN.md §14).
//
// Owns the authoritative flat parameter buffers for the actor/critic pair
// and the optimizer state that advances them. The buffers are split into
// `shard_count` contiguous shards — each with its own util::Mutex, condition
// variable, and per-shard optimizer slice — so concurrent workers serialize
// per shard instead of per parameter-vector, and an episode's optimizer step
// on shard k can overlap another episode's sync of shard k+1 (a wavefront
// pipeline over the shards).
//
// Apply discipline: a deterministic wavefront. Training episodes are
// numbered 0..total-1 within a round; per shard, sync and apply events are
// admitted in a fixed total order derived only from the episode ordinal and
// the configured worker window W:
//     sync(e)  waits until  synced == e  and  applied >= max(0, e-W+1)
//     apply(e) waits until  applied == e and  synced  >= min(e+W, total)
// Episode e therefore always reads the parameters produced by exactly the
// first max(0, e-W+1) applies, and applies land in episode order —
// regardless of thread scheduling, actual thread count, or shard count.
// With W == 1 this degenerates to strict sync/apply alternation (the
// pre-sharding serial semantics). Exactly one event is admissible per shard
// state, so the protocol cannot deadlock; because applies complete in
// episode order, a slow episode delays later applies (head-of-line
// blocking) — the price of determinism.
//
// Lock order: shard mutexes are only ever taken one at a time in ascending
// shard order; front-door methods (assign / snapshot_into) take all of them
// in that same order. Thread-safety annotations are omitted — the guarded
// ranges live in one vector protected piecewise by a vector of mutexes,
// which MC_GUARDED_BY cannot express; the discipline above is enforced by
// the TSan CI job instead.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"

namespace minicost::rl {

class ParamServer {
 public:
  using OptimizerFactory = std::function<std::unique_ptr<nn::Optimizer>()>;

  /// `shard_count` in [1, 64]; `factory` builds one optimizer per network
  /// slice per shard (fresh state each assign()).
  ParamServer(std::size_t shard_count, OptimizerFactory factory);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t actor_size() const noexcept { return actor_size_; }
  std::size_t critic_size() const noexcept { return critic_size_; }

  /// Monotone apply counter; bumped once per apply() and per assign().
  /// Readers use it to detect staleness of materialized networks.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_relaxed);
  }

  /// Replaces the authoritative parameters, (re)partitions the shards, and
  /// resets every per-shard optimizer to fresh state. Both vectors must be
  /// the same size on every call after the first. Not callable during an
  /// active round.
  void assign(std::vector<double> actor, std::vector<double> critic);

  /// Copies the authoritative parameters out. Safe concurrently with an
  /// active round: takes every shard lock (waiters park in condition
  /// variables, so this never blocks behind a full episode). Mid-round
  /// snapshots may mix episodes across shards; quiesced snapshots are exact.
  void snapshot_into(std::vector<double>& actor, std::vector<double>& critic);

  /// Opens a training round of `episodes` episodes with worker window
  /// `window` (the A3CConfig worker count — part of the deterministic
  /// schedule, NOT the number of threads actually running).
  void begin_round(std::size_t episodes, std::size_t window);

  /// Closes the round; throws std::logic_error if the round ends with
  /// unapplied episodes (a protocol bug, not a user error).
  void end_round();

  /// Waits for episode `episode`'s turn on each shard in ascending order and
  /// copies the authoritative parameters into the staging buffers (sized
  /// actor_size()/critic_size()).
  void sync(std::size_t episode, std::span<double> actor_out,
            std::span<double> critic_out);

  /// Waits for episode `episode`'s apply turn on each shard in ascending
  /// order and runs the per-shard optimizer slices over the gradients.
  void apply(std::size_t episode, std::span<const double> actor_grads,
             std::span<const double> critic_grads);

 private:
  struct Shard {
    util::Mutex mutex;
    std::condition_variable_any cv;
    // Contiguous half-open slices of the actor/critic flats.
    std::size_t actor_lo = 0, actor_hi = 0;
    std::size_t critic_lo = 0, critic_hi = 0;
    // Round-local wavefront counters: number of completed sync / apply
    // events on this shard.
    std::uint64_t synced = 0, applied = 0;
    std::unique_ptr<nn::Optimizer> actor_opt, critic_opt;
    // Per-shard wait counters (resolved lazily when obs is enabled).
    obs::Counter* sync_wait_ns = nullptr;
    obs::Counter* apply_wait_ns = nullptr;
  };

  void partition();

  OptimizerFactory factory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Authoritative parameters. Rounds access [lo, hi) slices under the
  // owning shard's mutex.
  std::vector<double> actor_flat_;
  std::vector<double> critic_flat_;
  std::size_t actor_size_ = 0;
  std::size_t critic_size_ = 0;

  // Round state; written only while quiesced (begin/end_round), read by
  // workers (publication happens-before via thread creation).
  std::size_t round_total_ = 0;
  std::size_t window_ = 1;
  bool round_active_ = false;

  std::atomic<std::uint64_t> version_{0};
  // Aggregate wait counters (the pre-sharding "rl.a3c.opt_step.lock_wait_ns"
  // name is kept: it now measures total apply admission wait).
  obs::Counter* sync_wait_total_ = nullptr;
  obs::Counter* apply_wait_total_ = nullptr;
};

}  // namespace minicost::rl
