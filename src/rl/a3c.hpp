#pragma once
// Asynchronous Advantage Actor-Critic (A3C, Mnih et al. 2016) — the paper's
// training algorithm (Sec. 5.1). Two separate deep networks with no shared
// features (the paper stresses this): the actor outputs a probability
// distribution π(s, a) over tiers, the critic estimates V(s). Workers run
// episodes on cloned networks and apply accumulated policy-gradient /
// value-regression gradients to the shared parameters through RMSProp, then
// re-synchronize — Algorithm 1 of the paper with the advantage update of
// Eq. (10)-(12).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>

#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "pricing/policy.hpp"
#include "rl/env.hpp"
#include "rl/feature.hpp"
#include "rl/mdp.hpp"
#include "rl/param_server.hpp"
#include "trace/trace.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::util {
class ThreadPool;
}  // namespace minicost::util

namespace minicost::rl {

enum class OptimizerKind {
  /// RMSProp — the original A3C optimizer. Its near-scale-invariant steps
  /// equalize the magnitude of conflicting single-episode updates, which
  /// destabilizes this workload's heterogeneous per-file episodes.
  kRmsProp,
  /// SGD with momentum — scale-sensitive, so weak-signal episodes move the
  /// policy proportionally less; the default and the most stable here.
  kSgdMomentum,
};

/// What the benches vary. The trainer's fixed hyperparameters (filter size,
/// momentum, entropy schedule, racing probe, exploration hold, gradient
/// clip, episode length) are constants in a3c.cpp, each with its reason
/// (DESIGN.md §5, item 4).
struct A3CConfig {
  FeatureConfig features;

  // Network width (paper Sec. 6.1: 128 filters of size 4, hidden layer of
  // 128 neurons; the Fig. 11 sweep varies the width, so the defaults here
  // are the sweep's "stable knee" for CPU-budget runs).
  std::size_t filters = 32;
  std::size_t hidden = 32;

  // Learning.
  OptimizerKind optimizer = OptimizerKind::kSgdMomentum;
  double gamma = 0.9;            ///< discount; ~1-2 week effective horizon
  double learning_rate = 0.005;  ///< tuned for kSgdMomentum; the paper's
                                 ///< 0.0027 suits kRmsProp (Fig. 9 sweeps it)
  /// Init racing: at the start of training, `init_candidates` fresh
  /// initializations are each trained for a fixed probe of episodes; the
  /// one with the best mean reward over the second half of its probe is
  /// kept and training continues from it. Policy-gradient training on this
  /// MDP occasionally commits to a poor constant policy from an unlucky
  /// init; racing converts that tail risk into a small fixed cost.
  /// Racing only engages when the episode budget is at least
  /// (init_candidates + 1) probes.
  std::size_t init_candidates = 3;
  double epsilon = 0.1;         ///< paper's greedy rate: P(random action)

  std::size_t workers = 2;       ///< asynchronous workers (threads)

  RewardConfig reward;
};

struct TrainProgress {
  std::size_t episodes_done = 0;
  std::size_t env_steps = 0;
  double mean_reward = 0.0;     ///< over the last reporting window
  double mean_step_cost = 0.0;  ///< dollars per env step, last window
};

struct TrainOptions {
  std::size_t episodes = 2000;
  /// Callback cadence (episodes); the callback runs on the caller's thread
  /// with workers quiesced, so it may evaluate the agent safely.
  std::size_t report_every = 500;
  std::function<void(const TrainProgress&)> on_progress;
};

class A3CAgent {
 public:
  A3CAgent(A3CConfig config, std::uint64_t seed);

  const A3CConfig& config() const noexcept { return config_; }
  const Featurizer& featurizer() const noexcept { return featurizer_; }

  /// Trains on the trace (all files, full horizon available for episode
  /// windows). Callable repeatedly; training accumulates.
  void train(const trace::RequestTrace& trace,
             const pricing::PricingPolicy& policy, const TrainOptions& options);

  /// Picks the tier argmax π for the encoded state (the paper deploys the
  /// trained agent greedily, Sec. 5.1). Thread-safe (serialized on the
  /// parameter lock).
  Action act(std::span<const double> features);

  /// Convenience: featurize-then-act for `file` on `day` in `current_tier`.
  Action act(const trace::FileRecord& file, std::size_t day,
             pricing::StorageTier current_tier);

  /// Batched deployment path: actions[i] is the tier decision for files[i]
  /// on `day` given it currently sits in current_tiers[i]. Files whose raw
  /// states (Featurizer::RawState) and tiers match byte for byte share one
  /// decision: each distinct state is found in one dedup table over the
  /// call's files, then featurized and forwarded once per call, in fused
  /// batch forwards (one kernel per layer and sub-batch) on the calling
  /// thread. Bit-identical to calling act() per file, however the files
  /// are split across calls. Requires day >= history_len and
  /// files.size() == current_tiers.size(); every file is validated, so one
  /// whose history is too short throws std::out_of_range. Thread-safe:
  /// works on a parameter snapshot taken under the lock, so run_policy's
  /// blocks call it concurrently.
  std::vector<Action> act_batch(
      std::span<const trace::FileRecord> files, std::size_t day,
      std::span<const pricing::StorageTier> current_tiers);

  /// act_batch over pre-encoded feature rows: `rows` holds `count` rows of
  /// featurizer().feature_count() doubles each, densely packed; actions[i]
  /// decides row i. For callers that featurize on their own. Each distinct
  /// row (compared by bytes) is forwarded once per call. Bit-identical to
  /// act_batch on the files that would encode to these rows. Thread-safe.
  /// `greedy` must be true (throws std::invalid_argument otherwise) and
  /// `pool` is unused: both stay only because perfbench/src/pipeline.cpp
  /// passes them, until the benchmark's own change (ROADMAP item 1).
  std::vector<Action> act_features_batch(std::span<const double> rows,
                                         std::size_t count, bool greedy = true,
                                         util::ThreadPool* pool = nullptr);

  /// The actor's π(s, ·). Thread-safe.
  std::vector<double> policy_probabilities(std::span<const double> features);

  /// The critic's V(s). Thread-safe.
  double value(std::span<const double> features);

  std::size_t trained_steps() const noexcept {
    return env_steps_.load(std::memory_order_relaxed);
  }

  /// Checkpointing: persists both networks (and nothing else; optimizer
  /// state restarts cold).
  void save(const std::filesystem::path& path) const;
  void load(const std::filesystem::path& path);

  std::size_t parameter_count() const;

 private:
  struct EpisodeOutcome {
    std::size_t steps = 0;
    double reward_sum = 0.0;
    double cost_sum = 0.0;
  };

  /// Per-worker training state (local nets, env and episode buffers);
  /// defined in a3c.cpp.
  struct WorkerCtx;

  /// Runs one episode on the worker's local nets and routes the gradient
  /// through the parameter server. `round_episode` is the ordinal within
  /// the current run_batch round (the wavefront schedule key); `ordinal` is
  /// the lifetime episode ordinal (the entropy-warmup clock).
  EpisodeOutcome run_episode(WorkerCtx& ctx, trace::FileId file,
                             std::size_t start_day, std::size_t end_day,
                             util::Rng& rng, std::size_t round_episode,
                             std::size_t ordinal);

  /// Runs `batch` training episodes across the configured workers; returns
  /// the aggregate outcome. Each episode's RNG stream derives from its
  /// lifetime ordinal (rl/stream.hpp), and the worker count is the
  /// parameter server's schedule window, so the result is a pure function
  /// of the agent seed, episode count and worker count — not of thread
  /// timing or how many threads actually run.
  EpisodeOutcome run_batch(const trace::RequestTrace& trace,
                           const pricing::PricingPolicy& policy,
                           const std::vector<double>& weights,
                           std::size_t batch);

  /// The body of act_batch and act_features_batch over `count` rows of
  /// `source` (a3c.cpp's FileStates or FeatureRows: hash(r) validates and
  /// hashes row r, same(a, b) compares two rows' bytes, encode(r, out)
  /// writes row r's features). Snapshots the actor, validates and hashes
  /// every row and finds each row's first occurrence in one table
  /// (util::key_classes), then encodes and forwards each first occurrence
  /// once, picks its action and copies it to the rows that repeat it
  /// (DESIGN.md §7, item 5).
  template <class Rows>
  std::vector<Action> act_rows(std::size_t count, const Rows& source);

  A3CConfig config_;
  Featurizer featurizer_;

  // The authoritative learned state lives in the parameter server
  // (rl/param_server.hpp, DESIGN.md §14); workers sync local nets from it
  // and apply gradients through it. actor_/critic_ are its published copy
  // for the act/value/serialization paths, guarded by param_mutex_: every
  // run_batch round (its workers joined) and every assign() reloads them,
  // so outside train() they always hold the server's parameters.
  mutable util::Mutex param_mutex_;
  nn::Network actor_ MC_GUARDED_BY(param_mutex_);
  nn::Network critic_ MC_GUARDED_BY(param_mutex_);
  std::unique_ptr<ParamServer> server_;

  // Progress counters. All accesses use std::memory_order_relaxed: they are
  // monotone statistics (episode/step totals, warmup baseline) that gate
  // only scalar schedules (entropy warmup) and reporting — no other memory
  // is published through them, so no acquire/release pairing is needed.
  // Cross-thread publication of learned state goes exclusively through
  // the parameter server.
  std::atomic<std::size_t> episodes_{0};
  /// Episode count at the current initialization's start (racing resets
  /// it so every candidate sees the full entropy-warmup schedule).
  std::atomic<std::size_t> warmup_start_{0};
  std::atomic<std::size_t> env_steps_{0};
  util::Rng seed_rng_;
};

}  // namespace minicost::rl
