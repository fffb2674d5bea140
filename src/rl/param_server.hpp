#pragma once
// A3C parameter server (DESIGN.md §14).
//
// Owns the authoritative flat parameter buffers for the actor/critic pair
// and the optimizer pair that advances them — the one shared parameter set
// every worker syncs from and applies to (Algorithm 1). One util::Mutex
// guards all of it; workers park on one condition variable until their
// event is admissible.
//
// Apply discipline: a deterministic wavefront. Training episodes are
// numbered 0..total-1 within a round; sync and apply events are admitted in
// a fixed total order derived only from the episode ordinal and the
// configured worker window W:
//     sync(e)  waits until  synced == e  and  applied >= max(0, e-W+1)
//     apply(e) waits until  applied == e and  synced  >= min(e+W, total)
// Episode e therefore always reads the parameters produced by exactly the
// first max(0, e-W+1) applies, and applies land in episode order —
// regardless of thread scheduling or the number of threads actually
// running. With W == 1 this degenerates to strict sync/apply alternation.
// Exactly one event is admissible per state, so the protocol cannot
// deadlock; because applies complete in episode order, a slow episode
// delays later applies (head-of-line blocking) — the price of determinism.
//
// Lock contract: every member below marked MC_GUARDED_BY(mutex_) is only
// touched with mutex_ held, and Clang's -Wthread-safety build checks it.
// The parameter sizes are fixed by the first assign() and never change, so
// their accessors read them without the lock.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::rl {

class ParamServer {
 public:
  using OptimizerFactory = std::function<std::unique_ptr<nn::Optimizer>()>;

  /// `factory` builds one optimizer per network (fresh state each assign()).
  explicit ParamServer(OptimizerFactory factory);

  std::size_t actor_size() const noexcept { return actor_size_; }
  std::size_t critic_size() const noexcept { return critic_size_; }

  /// Replaces the authoritative parameters and resets both optimizers to
  /// fresh state. Both vectors must be the same size on every call after
  /// the first. Not callable during an active round.
  void assign(std::vector<double> actor, std::vector<double> critic)
      MC_EXCLUDES(mutex_);

  /// Copies the authoritative parameters out. Safe concurrently with an
  /// active round (waiters park in the condition variable, so this never
  /// blocks behind a full episode); the copy is always the state after
  /// some prefix of the round's applies.
  void snapshot_into(std::vector<double>& actor, std::vector<double>& critic)
      MC_EXCLUDES(mutex_);

  /// Opens a training round of `episodes` episodes with worker window
  /// `window` (the A3CConfig worker count — part of the deterministic
  /// schedule, NOT the number of threads actually running).
  void begin_round(std::size_t episodes, std::size_t window)
      MC_EXCLUDES(mutex_);

  /// Closes the round; throws std::logic_error if the round ends with
  /// unapplied episodes (a protocol bug, not a user error).
  void end_round() MC_EXCLUDES(mutex_);

  /// Waits for episode `episode`'s sync turn and loads the authoritative
  /// parameters into a worker's networks (actor_size()/critic_size()
  /// parameters each) while it holds the lock: one copy per sync.
  void sync(std::size_t episode, nn::Network& actor, nn::Network& critic)
      MC_EXCLUDES(mutex_);

  /// Waits for episode `episode`'s apply turn and runs both optimizers over
  /// the gradients.
  void apply(std::size_t episode, std::span<const double> actor_grads,
             std::span<const double> critic_grads) MC_EXCLUDES(mutex_);

 private:
  const OptimizerFactory factory_;
  // Written only by assign(), never during a round.
  std::size_t actor_size_ = 0;
  std::size_t critic_size_ = 0;

  util::Mutex mutex_;
  std::condition_variable_any cv_;
  // Authoritative parameters and the optimizers that advance them.
  std::vector<double> actor_flat_ MC_GUARDED_BY(mutex_);
  std::vector<double> critic_flat_ MC_GUARDED_BY(mutex_);
  std::unique_ptr<nn::Optimizer> actor_opt_ MC_GUARDED_BY(mutex_);
  std::unique_ptr<nn::Optimizer> critic_opt_ MC_GUARDED_BY(mutex_);

  // Round state and the wavefront counters: number of completed sync /
  // apply events in the current round.
  std::size_t round_total_ MC_GUARDED_BY(mutex_) = 0;
  std::size_t window_ MC_GUARDED_BY(mutex_) = 1;
  bool round_active_ MC_GUARDED_BY(mutex_) = false;
  std::uint64_t synced_ MC_GUARDED_BY(mutex_) = 0;
  std::uint64_t applied_ MC_GUARDED_BY(mutex_) = 0;

  // Admission wait counters (resolved lazily when obs is enabled):
  // rl.a3c.sync.wait_ns and rl.a3c.opt_step.lock_wait_ns.
  obs::Counter* sync_wait_ns_ MC_GUARDED_BY(mutex_) = nullptr;
  obs::Counter* apply_wait_ns_ MC_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace minicost::rl
