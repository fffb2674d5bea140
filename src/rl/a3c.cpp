#include "rl/a3c.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "rl/stream.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"

namespace minicost::rl {
namespace {

nn::Network make_actor(const A3CConfig& config, const Featurizer& featurizer,
                       util::Rng& rng) {
  return nn::build_trunk(featurizer.history_len(), featurizer.aux_count(),
                         config.filters, config.kernel, config.hidden,
                         kActionCount, rng);
}

nn::Network make_critic(const A3CConfig& config, const Featurizer& featurizer,
                        util::Rng& rng) {
  return nn::build_trunk(featurizer.history_len(), featurizer.aux_count(),
                         config.filters, config.kernel, config.hidden,
                         /*outputs=*/1, rng);
}

// splitmix64 finalizer, used to hash decision-relevant state for
// decision_fingerprint (a cache epoch, not a cryptographic commitment).
constexpr std::uint64_t fp_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fp_mix_double(std::uint64_t state, double value) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return fp_mix(state ^ bits);
}

std::unique_ptr<nn::Optimizer> make_optimizer(const A3CConfig& config) {
  switch (config.optimizer) {
    case OptimizerKind::kRmsProp:
      return std::make_unique<nn::RmsProp>(config.learning_rate);
    case OptimizerKind::kSgdMomentum:
      return std::make_unique<nn::Sgd>(config.learning_rate, config.momentum);
    case OptimizerKind::kAdam:
      return std::make_unique<nn::Adam>(config.learning_rate);
  }
  return std::make_unique<nn::Sgd>(config.learning_rate, config.momentum);
}

}  // namespace

/// Per-worker training state. The local nets' initial parameters never
/// matter (the first sync overwrites them), so they are built from a
/// throwaway fork of the init stream.
struct A3CAgent::WorkerCtx {
  TieringEnv env;
  nn::Network actor, critic;
  std::vector<double> actor_stage, critic_stage;

  WorkerCtx(A3CAgent& agent, const trace::RequestTrace& trace,
            const pricing::PricingPolicy& policy)
      : env(trace, policy, agent.featurizer_, agent.config_.reward) {
    util::Rng scratch = agent.seed_rng_.fork(kInitStream);
    actor = make_actor(agent.config_, agent.featurizer_, scratch);
    critic = make_critic(agent.config_, agent.featurizer_, scratch);
    actor_stage.resize(agent.server_->actor_size());
    critic_stage.resize(agent.server_->critic_size());
  }
};

A3CAgent::A3CAgent(A3CConfig config, std::uint64_t seed)
    : config_(config),
      featurizer_(config.features),
      actor_(),
      critic_(),
      seed_rng_(seed) {
  if (config.workers == 0)
    throw std::invalid_argument("A3CAgent: need at least one worker");
  if (config.episode_len == 0)
    throw std::invalid_argument("A3CAgent: episode_len must be > 0");
  if (config.gamma < 0.0 || config.gamma > 1.0)
    throw std::invalid_argument("A3CAgent: gamma outside [0, 1]");
  if (config.param_shards == 0 || config.param_shards > 64)
    throw std::invalid_argument("A3CAgent: param_shards outside [1, 64]");
  util::Rng init_rng = seed_rng_.fork(kInitStream);
  actor_ = make_actor(config_, featurizer_, init_rng);
  critic_ = make_critic(config_, featurizer_, init_rng);
  const A3CConfig& cfg = config_;
  server_ = std::make_unique<ParamServer>(
      config_.param_shards, [cfg]() { return make_optimizer(cfg); });
  util::MutexLock lock(param_mutex_);
  server_->assign(actor_.snapshot_parameters(), critic_.snapshot_parameters());
  net_sync_version_ = server_->version();
}

void A3CAgent::refresh_networks_locked() {
  // Sample the version before the snapshot: a concurrent apply can land in
  // between, in which case we record content at least as new as claimed and
  // simply refresh again on the next read.
  const std::uint64_t version = server_->version();
  if (net_sync_version_ == version) return;
  std::vector<double> actor_flat, critic_flat;
  server_->snapshot_into(actor_flat, critic_flat);
  actor_.load_parameters(actor_flat);
  critic_.load_parameters(critic_flat);
  net_sync_version_ = version;
}

A3CAgent::EpisodeOutcome A3CAgent::run_episode(WorkerCtx& ctx,
                                               trace::FileId file,
                                               std::size_t start_day,
                                               std::size_t end_day,
                                               util::Rng& rng,
                                               std::size_t round_episode,
                                               std::size_t ordinal) {
  TieringEnv& env = ctx.env;
  nn::Network& actor = ctx.actor;
  nn::Network& critic = ctx.critic;
  // Sync local nets from the parameter server. The wavefront sync admits
  // this episode in ordinal order, so the staged parameters are a pure
  // function of the ordinal. The per-shard copies run under shard locks; the
  // network load happens outside every lock.
  server_->sync(round_episode, ctx.actor_stage, ctx.critic_stage);
  actor.load_parameters(ctx.actor_stage);
  critic.load_parameters(ctx.critic_stage);
  actor.zero_gradients();
  critic.zero_gradients();

  struct Step {
    Action action = 0;
    double reward = 0.0;
  };
  std::vector<Step> steps;
  steps.reserve(config_.episode_len);
  // Episode states, stored as one flat T x feature_count row-major block so
  // the update phase can run a single forward_batch/backward_batch per
  // network over the whole episode.
  const std::size_t width = featurizer_.feature_count();
  std::vector<double> states;
  states.reserve(config_.episode_len * width);
  // Rollout logits, cached per step (T x kActionCount, row-major). Weights
  // are frozen within an episode, so the update phase can reuse these
  // instead of re-forwarding the actor for its output — the re-forward
  // below only rebuilds layer activation caches for backward().
  std::vector<double> rollout_logits;
  rollout_logits.reserve(config_.episode_len * kActionCount);

  EpisodeOutcome outcome;
  const pricing::StorageTier start_tier =
      config_.randomize_initial_tier
          ? pricing::tier_from_index(static_cast<std::size_t>(
                rng.uniform_int(0, pricing::kTierCount - 1)))
          : config_.initial_tier;
  std::vector<double> state = env.reset(file, start_tier, start_day, end_day);

  {
    MC_OBS_SCOPE("rl.a3c.rollout");
    bool done = false;
    bool exploring = false;
    Action held_action = 0;
    const double hold_stop_p =
        config_.epsilon_hold_mean > 0.0 ? 1.0 / config_.epsilon_hold_mean : 1.0;
    // Batched path: stash each rollout forward's per-layer activations so
    // the update phase can run backward_batch directly — the rollout IS the
    // actor's forward pass (weights are frozen within an episode).
    if (config_.batched_update) actor.begin_train_batch();
    while (!done) {
      const std::vector<double> logits = actor.forward(state);
      if (config_.batched_update) actor.append_train_row(state);
      rollout_logits.insert(rollout_logits.end(), logits.begin(), logits.end());
      const std::vector<double> pi = nn::softmax(logits);
      Action action;
      if (exploring && !rng.bernoulli(hold_stop_p)) {
        action = held_action;  // sticky exploration continues
      } else if (rng.bernoulli(config_.epsilon)) {
        exploring = true;
        held_action = static_cast<Action>(rng.uniform_int(0, kActionCount - 1));
        action = held_action;
      } else {
        exploring = false;
        action = rng.weighted_index(pi);
      }
      StepResult step = env.step(action);
      states.insert(states.end(), state.begin(), state.end());
      steps.push_back({action, step.reward});
      outcome.reward_sum += step.reward;
      outcome.cost_sum += step.cost;
      ++outcome.steps;
      done = step.done;
      state = std::move(step.state);
    }
  }

  // n-step returns over the whole episode (terminal bootstrap = 0: the
  // episode window ends the billing period).
  double ret = 0.0;
  std::vector<double> returns(steps.size());
  for (std::size_t i = steps.size(); i-- > 0;) {
    ret = steps[i].reward + config_.gamma * ret;
    returns[i] = ret;
  }

  std::vector<double> actor_grads, critic_grads;
  {
    MC_OBS_SCOPE("rl.a3c.grad");
    const std::size_t n = steps.size();

    // Critic pass: one forward per step feeds both the advantage and the
    // value-regression gradient (the critic descends (V - R)^2, averaged
    // over the episode). Weights are frozen within the episode, so a second
    // forward before backward() would recompute the exact same activations.
    //
    // Advantages are centered per episode. Centering is load-bearing: the
    // critic is trained on *behavior-policy* returns, which include the cost
    // of ε-exploration, so raw advantages of on-policy actions carry a small
    // persistent positive bias — a ratchet that saturates whichever action
    // currently dominates. Removing the episode mean leaves only the
    // relative signal between actions, which is what the policy gradient
    // needs.
    const double inv_n = 1.0 / static_cast<double>(n);
    std::vector<double> advantages(n);
    double advantage_mean = 0.0;
    if (config_.batched_update) {
      // One batched forward over the T stored states (critic output width is
      // 1, so the output block *is* the value column), one fused gradient
      // row block, one batched backward. Bit-identical to the scalar branch
      // below by the DESIGN.md §7 contract.
      const std::vector<double> values = critic.forward_batch_train(states, n);
      for (std::size_t i = 0; i < n; ++i) {
        advantages[i] = returns[i] - values[i];
        advantage_mean += advantages[i];
      }
      std::vector<double> grad_v(n);
      nn::mse_grad_rows(values, returns, inv_n, grad_v);
      critic.backward_batch(grad_v, n, /*want_input_grads=*/false);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> s(states.data() + i * width, width);
        const std::vector<double> v_out = critic.forward(s);
        advantages[i] = returns[i] - v_out[0];
        advantage_mean += advantages[i];
        const std::vector<double> grad_v{2.0 * (v_out[0] - returns[i]) * inv_n};
        critic.backward(grad_v);
      }
    }
    advantage_mean /= static_cast<double>(n);

    // Entropy weight with linear warmup (see A3CConfig), measured from the
    // current initialization's start. The clock is the episode's lifetime
    // ordinal, not the racy episodes_ counter: at any worker count the
    // warmup schedule is then a pure function of the ordinal, which the
    // cross-worker/cross-shard bit-identity contract requires.
    const std::size_t warmup_start =
        warmup_start_.load(std::memory_order_relaxed);
    const std::size_t episodes_done =
        ordinal > warmup_start ? ordinal - warmup_start : 0;
    double beta = config_.entropy_beta;
    if (config_.entropy_warmup_episodes > 0 &&
        episodes_done < config_.entropy_warmup_episodes &&
        config_.entropy_beta_initial > beta) {
      const double progress =
          static_cast<double>(episodes_done) /
          static_cast<double>(config_.entropy_warmup_episodes);
      beta = config_.entropy_beta_initial +
             (config_.entropy_beta - config_.entropy_beta_initial) * progress;
    }

    // Actor pass: ascends log π(a|s)·A + β·H(π), averaged over the episode.
    // The forward only rebuilds the layer caches backward consumes; its
    // output is bit-identical to the cached rollout logits (same weights,
    // same input), so the loss reads the cache instead of recomputing.
    if (config_.batched_update) {
      // No forward here at all: the rollout stashed each step's per-layer
      // activations (begin_train_batch/append_train_row above), which is
      // exactly the state backward_batch consumes.
      std::vector<double> probs(n * kActionCount);
      nn::softmax_rows(rollout_logits, n, probs);
      std::vector<double> centered(n);
      std::vector<std::size_t> chosen(n);
      for (std::size_t i = 0; i < n; ++i) {
        centered[i] = advantages[i] - advantage_mean;
        chosen[i] = steps[i].action;
      }
      std::vector<double> grad_logits(n * kActionCount);
      nn::policy_entropy_grad_rows(probs, n, chosen, centered, beta, inv_n,
                                   grad_logits);
      actor.backward_batch(grad_logits, n, /*want_input_grads=*/false);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double advantage = advantages[i] - advantage_mean;

        actor.forward(std::span<const double>(states.data() + i * width, width));
        const std::span<const double> logits(
            rollout_logits.data() + i * kActionCount, kActionCount);
        const std::vector<double> pi = nn::softmax(logits);
        const double h = nn::entropy(pi);
        std::vector<double> grad_logits(kActionCount);
        for (std::size_t a = 0; a < kActionCount; ++a) {
          // d(-log π(a*))/dz_a = π_a - 1{a = a*}; scaled by the advantage.
          const double pg =
              (pi[a] - (a == steps[i].action ? 1.0 : 0.0)) * advantage;
          // Entropy ascent: dH/dz_a = -π_a (log π_a + H); descend its
          // negative.
          const double ent =
              beta * pi[a] * (std::log(std::max(pi[a], 1e-12)) + h);
          grad_logits[a] = (pg + ent) * inv_n;
        }
        actor.backward(grad_logits);
      }
    }

    actor_grads = actor.collect_gradients(/*zero_after=*/true);
    critic_grads = critic.collect_gradients(/*zero_after=*/true);
    nn::clip_by_global_norm(actor_grads, config_.grad_clip_norm);
    nn::clip_by_global_norm(critic_grads, config_.grad_clip_norm);
  }

  {
    MC_OBS_SCOPE("rl.a3c.opt_step");
    // Wavefront apply: per-shard in-place SIMD optimizer steps, admitted in
    // episode order (admission wait lands in the
    // rl.a3c.opt_step[.shardN].lock_wait_ns counters).
    server_->apply(round_episode, actor_grads, critic_grads);
  }
  return outcome;
}

void A3CAgent::train(const trace::RequestTrace& trace,
                     const pricing::PricingPolicy& policy,
                     const TrainOptions& options) {
  if (trace.file_count() == 0)
    throw std::invalid_argument("A3CAgent::train: empty trace");
  const std::size_t h = featurizer_.history_len();
  if (trace.days() < h + 2)
    throw std::invalid_argument("A3CAgent::train: trace shorter than history");

  MC_OBS_SCOPE("rl.a3c.train");
  const std::size_t episodes_before =
      episodes_.load(std::memory_order_relaxed);
  const std::size_t steps_before = env_steps_.load(std::memory_order_relaxed);

  // File sampling weights: oversample the files where decisions carry
  // information — high-variability files (re-tiering opportunities),
  // popular files (where a wrong tier is expensive), and files near the
  // static tier boundary (where the policy's classification is actually
  // contested; everything else is trivially one-tier). Uniform sampling
  // would spend >80% of episodes on near-dead stationary files (Fig. 2).
  std::vector<double> weights(trace.file_count(), 1.0);
  if (config_.sample_by_variability) {
    for (std::size_t i = 0; i < trace.file_count(); ++i) {
      const auto id = static_cast<trace::FileId>(i);
      const trace::FileRecord& f = trace.file(id);
      const double mean_reads = stats::mean(f.reads);
      const double mean_writes = stats::mean(f.writes);
      // Static decision margin: relative cost gap between the best and
      // second-best tier at the file's average usage. Near-zero margin =
      // boundary file.
      double best = std::numeric_limits<double>::infinity();
      double second = best;
      for (pricing::StorageTier t : pricing::all_tiers()) {
        const double cost = sim::file_day_cost_no_change(
                                policy, t, mean_reads, mean_writes, f.size_gb)
                                .total();
        if (cost < best) {
          second = best;
          best = cost;
        } else if (cost < second) {
          second = cost;
        }
      }
      const double margin = best > 0.0 ? (second - best) / best : 1.0;
      weights[i] = 0.3 + trace.variability(id) +
                   0.25 * std::log1p(mean_reads) + 2.0 / (1.0 + 10.0 * margin);
    }
  }

  std::size_t remaining = options.episodes;

  // Init racing (see A3CConfig::init_candidates): probe several fresh
  // initializations, keep the best performer's parameters.
  const std::size_t probe = config_.candidate_probe_episodes;
  if (episodes_.load(std::memory_order_relaxed) == 0 && config_.init_candidates > 1 && probe > 1 &&
      options.episodes >= (config_.init_candidates + 1) * probe) {
    double best_reward = -std::numeric_limits<double>::infinity();
    std::vector<double> best_actor, best_critic;
    for (std::size_t candidate = 0; candidate < config_.init_candidates;
         ++candidate) {
      if (candidate > 0) {
        util::Rng init = seed_rng_.fork(kRacingStreamBase + candidate);
        util::MutexLock lock(param_mutex_);
        actor_ = make_actor(config_, featurizer_, init);
        critic_ = make_critic(config_, featurizer_, init);
        server_->assign(actor_.snapshot_parameters(),
                        critic_.snapshot_parameters());
        net_sync_version_ = server_->version();
      }
      warmup_start_.store(episodes_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      run_batch(trace, policy, weights, probe / 2);
      const EpisodeOutcome second_half =
          run_batch(trace, policy, weights, probe - probe / 2);
      const double mean_reward =
          second_half.steps > 0
              ? second_half.reward_sum / static_cast<double>(second_half.steps)
              : 0.0;
      if (mean_reward > best_reward) {
        best_reward = mean_reward;
        server_->snapshot_into(best_actor, best_critic);
      }
      remaining -= probe;
    }
    // The winner restarts with fresh optimizer state (assign() resets the
    // per-shard slices); actor_/critic_ refresh lazily on the next read.
    server_->assign(std::move(best_actor), std::move(best_critic));
    // The winner continues mid-schedule: give it the post-warmup floor.
    warmup_start_.store(
        episodes_.load(std::memory_order_relaxed) >=
                config_.entropy_warmup_episodes
            ? episodes_.load(std::memory_order_relaxed) -
                  config_.entropy_warmup_episodes
            : 0,
        std::memory_order_relaxed);
    if (options.on_progress) {
      TrainProgress progress;
      progress.episodes_done = episodes_.load(std::memory_order_relaxed);
      progress.env_steps = env_steps_.load(std::memory_order_relaxed);
      progress.mean_reward = best_reward;
      progress.mean_step_cost = 0.0;
      options.on_progress(progress);
    }
  }

  while (remaining > 0) {
    const std::size_t batch =
        std::min(remaining, std::max<std::size_t>(1, options.report_every));
    remaining -= batch;
    const EpisodeOutcome outcome = run_batch(trace, policy, weights, batch);
    if (options.on_progress) {
      TrainProgress progress;
      progress.episodes_done = episodes_.load(std::memory_order_relaxed);
      progress.env_steps = env_steps_.load(std::memory_order_relaxed);
      progress.mean_reward =
          outcome.steps > 0
              ? outcome.reward_sum / static_cast<double>(outcome.steps)
              : 0.0;
      progress.mean_step_cost =
          outcome.steps > 0
              ? outcome.cost_sum / static_cast<double>(outcome.steps)
              : 0.0;
      options.on_progress(progress);
    }
  }

  MC_OBS_COUNT("rl.a3c.train.episodes",
               episodes_.load(std::memory_order_relaxed) - episodes_before);
  MC_OBS_COUNT("rl.a3c.train.env_steps",
               env_steps_.load(std::memory_order_relaxed) - steps_before);
}

A3CAgent::EpisodeOutcome A3CAgent::run_batch(
    const trace::RequestTrace& trace, const pricing::PricingPolicy& policy,
    const std::vector<double>& weights, std::size_t batch) {
  const std::size_t h = featurizer_.history_len();
  const std::size_t max_start = trace.days() - 1;  // at least one step
  if (batch == 0) return {};

  // Lifetime ordinal of this round's first episode: workers are quiesced
  // between rounds, so episodes_ is exact here. Every per-episode random
  // choice (file, window, tier, exploration) derives from the ordinal's
  // stream (rl/stream.hpp) — never from which worker ran it.
  const std::size_t base = episodes_.load(std::memory_order_relaxed);
  server_->begin_round(batch, config_.workers);

  std::atomic<std::size_t> next{0};
  // Outcomes land by ordinal and reduce in ordinal order after the join:
  // the FP sums are then independent of which worker ran which episode.
  std::vector<EpisodeOutcome> outcomes(batch);

  auto worker_fn = [&]() {
    WorkerCtx ctx(*this, trace, policy);
    std::size_t e = 0;
    while ((e = next.fetch_add(1, std::memory_order_relaxed)) < batch) {
      util::Rng rng = seed_rng_.fork(episode_stream(base + e));
      const auto file = static_cast<trace::FileId>(rng.weighted_index(weights));
      const std::size_t span = max_start - h;
      const std::size_t start =
          h + (span > 0 ? static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(span) - 1))
                        : 0);
      const std::size_t end = std::min(start + config_.episode_len, trace.days());
      outcomes[e] = run_episode(ctx, file, start, end, rng, e, base + e);
      episodes_.fetch_add(1, std::memory_order_relaxed);
      env_steps_.fetch_add(outcomes[e].steps, std::memory_order_relaxed);
    }
  };

  // Spawn at most one thread per episode; the wavefront window stays
  // config_.workers regardless, so the schedule (and therefore the result)
  // does not depend on how many threads actually run.
  const std::size_t spawn = std::min(config_.workers, batch);
  if (spawn <= 1) {
    worker_fn();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(spawn);
    for (std::size_t w = 0; w < spawn; ++w) threads.emplace_back(worker_fn);
    for (auto& t : threads) t.join();
  }
  server_->end_round();

  EpisodeOutcome total;
  for (const EpisodeOutcome& outcome : outcomes) {
    total.reward_sum += outcome.reward_sum;
    total.cost_sum += outcome.cost_sum;
    total.steps += outcome.steps;
  }
  return total;
}

Action A3CAgent::act(std::span<const double> features, bool greedy) {
  const std::vector<double> pi = policy_probabilities(features);
  if (greedy) return nn::argmax(pi);
  util::Rng rng =
      seed_rng_.fork(kActStreamBase + env_steps_.load(std::memory_order_relaxed));
  if (rng.bernoulli(config_.epsilon))
    return static_cast<Action>(rng.uniform_int(0, kActionCount - 1));
  return rng.weighted_index(pi);
}

Action A3CAgent::act(const trace::FileRecord& file, std::size_t day,
                     pricing::StorageTier current_tier, bool greedy) {
  return act(featurizer_.encode(file, day, current_tier), greedy);
}

std::vector<Action> A3CAgent::act_batch(
    std::span<const trace::FileRecord> files, std::size_t day,
    std::span<const pricing::StorageTier> current_tiers, bool greedy,
    util::ThreadPool* pool) {
  if (files.size() != current_tiers.size())
    throw std::invalid_argument("A3CAgent::act_batch: span width mismatch");
  MC_OBS_SCOPE("rl.a3c.act_batch");
  const std::size_t n = files.size();
  MC_OBS_COUNT("rl.a3c.act_batch.files", n);
  std::vector<Action> actions(n);
  if (n == 0) return actions;

  // Snapshot the actor so the whole batch sees one parameter set and runs
  // lock-free; cloning a few thousand parameters is noise against the batch.
  nn::Network actor;
  {
    util::MutexLock lock(param_mutex_);
    refresh_networks_locked();
    actor = actor_;
  }
  const std::uint64_t act_stream =
      kActStreamBase + env_steps_.load(std::memory_order_relaxed);

  // Chunk size bounds the widest intermediate buffer (chunk × conv width)
  // and is the unit of work sharded across the pool. Fixed, so decisions
  // never depend on the pool size. 256 keeps the transposed dense input
  // (hidden-layer in × chunk doubles) resident in L2.
  constexpr std::size_t kChunk = 256;
  const std::size_t width = featurizer_.feature_count();
  const std::size_t out_width = actor.output_size();
  const std::size_t chunk_count = (n + kChunk - 1) / kChunk;

  const auto run_chunk = [&](nn::Network& net, std::vector<double>& features,
                             std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t rows = std::min(n - lo, kChunk);
    features.resize(rows * width);
    const std::span<double> rows_span(features);
    for (std::size_t r = 0; r < rows; ++r)
      featurizer_.encode_into(files[lo + r], day, current_tiers[lo + r],
                              rows_span.subspan(r * width, width));
    std::vector<double> pi = net.forward_batch(features, rows);
    nn::softmax_rows(pi, rows, pi);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = pi.data() + r * out_width;
      if (greedy) {
        actions[lo + r] = nn::argmax(std::span<const double>(row, out_width));
      } else {
        // Mirror act(): each decision draws from the same forked stream.
        util::Rng rng = seed_rng_.fork(act_stream);
        if (rng.bernoulli(config_.epsilon)) {
          actions[lo + r] =
              static_cast<Action>(rng.uniform_int(0, kActionCount - 1));
        } else {
          actions[lo + r] =
              rng.weighted_index(std::vector<double>(row, row + out_width));
        }
      }
    }
  };
  if (pool && pool->size() > 1 && chunk_count > 1) {
    // forward_batch state is per-thread: clone the snapshot per chunk.
    pool->parallel_for(0, chunk_count, [&](std::size_t c) {
      nn::Network net = actor;
      std::vector<double> features;
      run_chunk(net, features, c);
    });
  } else {
    // Serial: one network and one feature buffer serve every chunk.
    std::vector<double> features;
    for (std::size_t c = 0; c < chunk_count; ++c)
      run_chunk(actor, features, c);
  }
  return actions;
}

std::vector<Action> A3CAgent::act_features_batch(std::span<const double> rows,
                                                 std::size_t count, bool greedy,
                                                 util::ThreadPool* pool) {
  const std::size_t width = featurizer_.feature_count();
  if (rows.size() != count * width)
    throw std::invalid_argument(
        "A3CAgent::act_features_batch: rows span width mismatch");
  MC_OBS_SCOPE("rl.a3c.act_features_batch");
  MC_OBS_COUNT("rl.a3c.act_features_batch.rows", count);
  std::vector<Action> actions(count);
  if (count == 0) return actions;

  // Same structure as act_batch minus featurization: snapshot the actor so
  // the whole batch sees one parameter set, then run fixed-size chunks
  // (pool-size-independent decisions, DESIGN.md §7).
  nn::Network actor;
  {
    util::MutexLock lock(param_mutex_);
    refresh_networks_locked();
    actor = actor_;
  }
  const std::uint64_t act_stream =
      kActStreamBase + env_steps_.load(std::memory_order_relaxed);

  constexpr std::size_t kChunk = 256;
  const std::size_t out_width = actor.output_size();
  const std::size_t chunk_count = (count + kChunk - 1) / kChunk;

  const auto run_chunk = [&](nn::Network& net, std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t n_rows = std::min(count - lo, kChunk);
    std::vector<double> pi =
        net.forward_batch(rows.subspan(lo * width, n_rows * width), n_rows);
    nn::softmax_rows(pi, n_rows, pi);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const double* row = pi.data() + r * out_width;
      if (greedy) {
        actions[lo + r] = nn::argmax(std::span<const double>(row, out_width));
      } else {
        // Mirror act()/act_batch(): every decision draws from the same
        // forked stream, so identical rows yield identical actions — the
        // invariant dedup and the decision cache rely on.
        util::Rng rng = seed_rng_.fork(act_stream);
        if (rng.bernoulli(config_.epsilon)) {
          actions[lo + r] =
              static_cast<Action>(rng.uniform_int(0, kActionCount - 1));
        } else {
          actions[lo + r] =
              rng.weighted_index(std::vector<double>(row, row + out_width));
        }
      }
    }
  };
  if (pool && pool->size() > 1 && chunk_count > 1) {
    pool->parallel_for(0, chunk_count, [&](std::size_t c) {
      nn::Network net = actor;
      run_chunk(net, c);
    });
  } else {
    for (std::size_t c = 0; c < chunk_count; ++c) run_chunk(actor, c);
  }
  return actions;
}

std::uint64_t A3CAgent::decision_fingerprint(bool greedy) {
  std::uint64_t params = 0;
  std::uint64_t stream = 0;
  {
    util::MutexLock lock(param_mutex_);
    const std::uint64_t version = server_->version();
    if (!param_hash_valid_ || param_hash_version_ != version) {
      std::vector<double> actor_flat, critic_flat;
      server_->snapshot_into(actor_flat, critic_flat);
      std::uint64_t h = fp_mix(actor_flat.size());
      for (const double value : actor_flat) h = fp_mix_double(h, value);
      param_hash_ = h;
      param_hash_version_ = version;
      param_hash_valid_ = true;
    }
    params = param_hash_;
    stream = kActStreamBase + env_steps_.load(std::memory_order_relaxed);
  }

  // Everything besides the feature row that steers the chosen action: the
  // featurizer layout (two configs must never share cached actions for
  // differently-encoded windows) and the decision mode.
  const FeatureConfig& fc = config_.features;
  std::uint64_t fp = fp_mix(params ^ 0x646563666970ULL);  // "decfip"
  fp = fp_mix(fp ^ fc.history_len);
  fp = fp_mix_double(fp, fc.log_scale);
  fp = fp_mix(fp ^ (fc.include_day_of_week ? 2u : 0u) ^
              (fc.include_summary ? 1u : 0u));
  fp = fp_mix(fp ^ (greedy ? 1u : 0u));
  if (!greedy) {
    // Sampled mode: the action also depends on ε and the act stream (which
    // advances with training), so bake both into the epoch.
    fp = fp_mix_double(fp, config_.epsilon);
    fp = fp_mix(fp ^ stream);
  }
  return fp;
}

std::vector<double> A3CAgent::policy_probabilities(
    std::span<const double> features) {
  util::MutexLock lock(param_mutex_);
  refresh_networks_locked();
  return nn::softmax(actor_.forward(features));
}

double A3CAgent::value(std::span<const double> features) {
  util::MutexLock lock(param_mutex_);
  refresh_networks_locked();
  return critic_.forward(features)[0];
}

void A3CAgent::save(const std::filesystem::path& path) const {
  util::MutexLock lock(param_mutex_);
  // const method: materialize the server state into copies instead of
  // refreshing the (possibly stale) member networks in place.
  nn::Network actor = actor_;
  nn::Network critic = critic_;
  std::vector<double> actor_flat, critic_flat;
  server_->snapshot_into(actor_flat, critic_flat);
  actor.load_parameters(actor_flat);
  critic.load_parameters(critic_flat);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("A3CAgent::save: cannot open " + path.string());
  nn::save_network(actor, out);
  nn::save_network(critic, out);
}

void A3CAgent::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("A3CAgent::load: cannot open " + path.string());
  nn::Network actor = nn::load_network(in);
  nn::Network critic = nn::load_network(in);
  util::MutexLock lock(param_mutex_);
  if (actor.parameter_count() != actor_.parameter_count() ||
      critic.parameter_count() != critic_.parameter_count())
    throw std::runtime_error("A3CAgent::load: architecture mismatch");
  actor_ = std::move(actor);
  critic_ = std::move(critic);
  server_->assign(actor_.snapshot_parameters(), critic_.snapshot_parameters());
  net_sync_version_ = server_->version();
}

std::size_t A3CAgent::parameter_count() const {
  util::MutexLock lock(param_mutex_);
  return actor_.parameter_count() + critic_.parameter_count();
}

}  // namespace minicost::rl
