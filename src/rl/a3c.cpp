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
#include "util/hash.hpp"

namespace minicost::rl {
namespace {

// The trainer's fixed hyperparameters (DESIGN.md §5, item 4). No program
// varies them; A3CConfig holds only what the benches sweep.

// Convolution filter size: the paper's (Sec. 6.1).
constexpr std::size_t kKernel = 4;
// Momentum of OptimizerKind::kSgdMomentum.
constexpr double kMomentum = 0.9;
// Entropy regularization weight after the warmup.
constexpr double kEntropyBeta = 0.02;
// Entropy warmup: for the first kEntropyWarmupEpisodes of an initialization
// the entropy weight decays linearly from kEntropyBetaInitial down to
// kEntropyBeta. The critic needs a few thousand episodes to calibrate;
// until then advantage noise can saturate the policy onto one arbitrary
// action, from which recovery is slow (the logit gap must be walked back).
// A strong early entropy floor keeps the policy near-uniform through that
// phase.
constexpr double kEntropyBetaInitial = 0.15;
constexpr std::size_t kEntropyWarmupEpisodes = 8000;
// Episodes each init-racing candidate trains for (A3CConfig::
// init_candidates); the second half's mean reward ranks the candidates.
constexpr std::size_t kProbeEpisodes = 6000;
// Exploration is *sticky*: an ε-triggered random action is held for a
// Geometric(1/kEpsilonHoldMean) number of steps. A one-step deviation pays
// the tier-change cost twice (out and back) and never observes the target
// tier's steady-state cost, so plain ε-greedy systematically punishes
// exploration under Eq. (9)'s switching costs.
constexpr double kEpsilonHoldMean = 3.0;
// Global-norm clip of each network's gradient per episode.
constexpr double kGradClipNorm = 5.0;
// Days per training episode.
constexpr std::size_t kEpisodeLen = 14;

nn::Network make_actor(const A3CConfig& config, const Featurizer& featurizer,
                       util::Rng& rng) {
  return nn::build_trunk(featurizer.history_len(), featurizer.aux_count(),
                         config.filters, kKernel, config.hidden, kActionCount,
                         rng);
}

nn::Network make_critic(const A3CConfig& config, const Featurizer& featurizer,
                        util::Rng& rng) {
  return nn::build_trunk(featurizer.history_len(), featurizer.aux_count(),
                         config.filters, kKernel, config.hidden,
                         /*outputs=*/1, rng);
}

std::unique_ptr<nn::Optimizer> make_optimizer(const A3CConfig& config) {
  switch (config.optimizer) {
    case OptimizerKind::kRmsProp:
      return std::make_unique<nn::RmsProp>(config.learning_rate);
    case OptimizerKind::kSgdMomentum:
      return std::make_unique<nn::Sgd>(config.learning_rate, kMomentum);
  }
  return std::make_unique<nn::Sgd>(config.learning_rate, kMomentum);
}

// act_rows' forward sub-batch: at most this many distinct rows go through
// one forward, which bounds the widest scratch buffer (sub-batch × conv
// width doubles).
constexpr std::size_t kForwardRows = 256;

using util::double_bits;
using util::hash_doubles;
using util::hash_finish;
using util::hash_mix;

// act_batch's rows: each file's raw state on `day` and its current tier,
// the whole input of Featurizer::encode_into besides the day. States are
// compared by bytes (-0.0 and +0.0 differ, as do NaN payloads), and only
// the distinct ones are encoded.
struct FileStates {
  const Featurizer& featurizer;
  std::span<const trace::FileRecord> files;
  std::size_t day;
  std::span<const pricing::StorageTier> tiers;

  std::uint64_t hash(std::size_t r) const {
    const Featurizer::RawState s = featurizer.raw_state(files[r], day);
    std::uint64_t h = hash_doubles(s.reads.data(), s.reads.size());
    h = hash_mix(h, double_bits(s.writes));
    h = hash_mix(h, double_bits(s.size_gb));
    return hash_finish(hash_mix(h, pricing::tier_index(tiers[r])));
  }
  bool same(std::size_t a, std::size_t b) const {
    const Featurizer::RawState x = featurizer.raw_state(files[a], day);
    const Featurizer::RawState y = featurizer.raw_state(files[b], day);
    return tiers[a] == tiers[b] &&
           double_bits(x.writes) == double_bits(y.writes) &&
           double_bits(x.size_gb) == double_bits(y.size_gb) &&
           std::memcmp(x.reads.data(), y.reads.data(),
                       x.reads.size_bytes()) == 0;
  }
  void encode(std::size_t r, std::span<double> out) const {
    featurizer.encode_into(files[r], day, tiers[r], out);
  }
};

// act_features_batch's rows: pre-encoded, `width` doubles each, compared by
// bytes.
struct FeatureRows {
  const double* rows;
  std::size_t width;

  const double* row(std::size_t r) const noexcept { return rows + r * width; }
  std::uint64_t hash(std::size_t r) const noexcept {
    return hash_finish(hash_doubles(row(r), width));
  }
  bool same(std::size_t a, std::size_t b) const noexcept {
    return std::memcmp(row(a), row(b), width * sizeof(double)) == 0;
  }
  void encode(std::size_t r, std::span<double> out) const noexcept {
    std::copy_n(row(r), width, out.data());
  }
};

}  // namespace

/// Per-worker training state. The local nets' initial parameters never
/// matter (the first sync overwrites them), so they are built from a
/// throwaway fork of the init stream. The episode buffers keep their
/// capacity from one episode to the next, so a worker allocates them once
/// per round.
struct A3CAgent::WorkerCtx {
  struct Step {
    Action action = 0;
    double reward = 0.0;
  };

  TieringEnv env;
  nn::Network actor, critic;
  // Episode buffers, T rows each: the rollout's actions and rewards, its
  // states (T x feature_count) and logits (T x kActionCount), and the
  // update's returns, advantages, loss gradients and probabilities.
  std::vector<Step> steps;
  std::vector<double> states, rollout_logits;
  std::vector<double> returns, advantages, centered, grad_v;
  std::vector<double> probs, grad_logits;
  std::vector<std::size_t> chosen;
  // The flat gradients sent to the parameter server.
  std::vector<double> actor_grads, critic_grads;

  WorkerCtx(A3CAgent& agent, const trace::RequestTrace& trace,
            const pricing::PricingPolicy& policy)
      : env(trace, policy, agent.featurizer_, agent.config_.reward) {
    util::Rng scratch = agent.seed_rng_.fork(kInitStream);
    actor = make_actor(agent.config_, agent.featurizer_, scratch);
    critic = make_critic(agent.config_, agent.featurizer_, scratch);
    actor_grads.resize(agent.server_->actor_size());
    critic_grads.resize(agent.server_->critic_size());
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
  if (config.gamma < 0.0 || config.gamma > 1.0)
    throw std::invalid_argument("A3CAgent: gamma outside [0, 1]");
  util::Rng init_rng = seed_rng_.fork(kInitStream);
  actor_ = make_actor(config_, featurizer_, init_rng);
  critic_ = make_critic(config_, featurizer_, init_rng);
  const A3CConfig& cfg = config_;
  server_ = std::make_unique<ParamServer>(
      [cfg]() { return make_optimizer(cfg); });
  util::MutexLock lock(param_mutex_);
  server_->assign(actor_.snapshot_parameters(), critic_.snapshot_parameters());
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
  // this episode in ordinal order, so the loaded parameters are a pure
  // function of the ordinal. The server loads them into the nets under its
  // lock, one copy per sync.
  {
    MC_OBS_SCOPE("rl.a3c.sync");
    server_->sync(round_episode, actor, critic);
  }
  // Every gradient accumulator is 0.0 here: construction zeroes them, and
  // each episode's collect_gradients leaves them zeroed.

  std::vector<WorkerCtx::Step>& steps = ctx.steps;
  steps.clear();
  // Episode states, stored as one flat T x feature_count row-major block so
  // the update phase can run a single forward_batch/backward_batch per
  // network over the whole episode.
  std::vector<double>& states = ctx.states;
  states.clear();
  // Rollout logits, cached per step (T x kActionCount, row-major). Weights
  // are frozen within an episode, so the update phase reuses these instead
  // of re-forwarding the actor.
  std::vector<double>& rollout_logits = ctx.rollout_logits;
  rollout_logits.clear();

  EpisodeOutcome outcome;
  // Every episode starts from a random tier: all tiers must appear as the
  // current-tier state feature, or their values are never learned.
  const pricing::StorageTier start_tier = pricing::tier_from_index(
      static_cast<std::size_t>(rng.uniform_int(0, pricing::kTierCount - 1)));
  std::vector<double> state = env.reset(file, start_tier, start_day, end_day);

  {
    MC_OBS_SCOPE("rl.a3c.rollout");
    bool done = false;
    bool exploring = false;
    Action held_action = 0;
    const double hold_stop_p = 1.0 / kEpsilonHoldMean;
    // Each step forwards its state through the actor's one-row batch
    // kernels straight into the training stash, so the update phase can run
    // backward_batch directly — the rollout IS the actor's forward pass
    // (weights are frozen within an episode).
    actor.begin_train_batch();
    while (!done) {
      const std::span<const double> logits = actor.forward_train_row(state);
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

  const std::size_t n = steps.size();
  // n-step returns over the whole episode (terminal bootstrap = 0: the
  // episode window ends the billing period).
  std::vector<double>& returns = ctx.returns;
  returns.resize(n);
  double ret = 0.0;
  for (std::size_t i = n; i-- > 0;) {
    ret = steps[i].reward + config_.gamma * ret;
    returns[i] = ret;
  }

  {
    MC_OBS_SCOPE("rl.a3c.grad");

    // Critic pass: one batched forward over the T stored states feeds both
    // the advantage and the value-regression gradient (the critic descends
    // (V - R)^2, averaged over the episode). The critic's output width is
    // 1, so the output block *is* the value column.
    //
    // Advantages are centered per episode. Centering is load-bearing: the
    // critic is trained on *behavior-policy* returns, which include the cost
    // of ε-exploration, so raw advantages of on-policy actions carry a small
    // persistent positive bias — a ratchet that saturates whichever action
    // currently dominates. Removing the episode mean leaves only the
    // relative signal between actions, which is what the policy gradient
    // needs.
    const double inv_n = 1.0 / static_cast<double>(n);
    std::vector<double>& advantages = ctx.advantages;
    advantages.resize(n);
    double advantage_mean = 0.0;
    const std::vector<double> values = critic.forward_batch_train(states, n);
    for (std::size_t i = 0; i < n; ++i) {
      advantages[i] = returns[i] - values[i];
      advantage_mean += advantages[i];
    }
    ctx.grad_v.resize(n);
    nn::mse_grad_rows(values, returns, inv_n, ctx.grad_v);
    critic.backward_batch(ctx.grad_v, n);
    advantage_mean /= static_cast<double>(n);

    // Entropy weight with linear warmup (see kEntropyBetaInitial), measured
    // from the current initialization's start. The clock is the episode's
    // lifetime ordinal, not the racy episodes_ counter: at any worker count
    // the warmup schedule is then a pure function of the ordinal, which the
    // run-to-run determinism contract requires.
    const std::size_t warmup_start =
        warmup_start_.load(std::memory_order_relaxed);
    const std::size_t episodes_done =
        ordinal > warmup_start ? ordinal - warmup_start : 0;
    double beta = kEntropyBeta;
    if (episodes_done < kEntropyWarmupEpisodes) {
      const double progress = static_cast<double>(episodes_done) /
                              static_cast<double>(kEntropyWarmupEpisodes);
      beta = kEntropyBetaInitial +
             (kEntropyBeta - kEntropyBetaInitial) * progress;
    }

    // Actor pass: ascends log π(a|s)·A + β·H(π), averaged over the episode.
    // No forward here at all: the rollout stashed each step's per-layer
    // activations (begin_train_batch/forward_train_row above), which is
    // exactly the state backward_batch consumes, and its cached logits are
    // the ones the loss reads (same weights, same input).
    ctx.probs.resize(n * kActionCount);
    nn::softmax_rows(rollout_logits, n, ctx.probs);
    ctx.centered.resize(n);
    ctx.chosen.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ctx.centered[i] = advantages[i] - advantage_mean;
      ctx.chosen[i] = steps[i].action;
    }
    ctx.grad_logits.resize(n * kActionCount);
    nn::policy_entropy_grad_rows(ctx.probs, n, ctx.chosen, ctx.centered, beta,
                                 inv_n, ctx.grad_logits);
    actor.backward_batch(ctx.grad_logits, n);

    // One pass per network moves the gradients out, zeroes the
    // accumulators for the next episode and sums the squares the clip
    // needs, with the actor's and critic's serial sum chains interleaved.
    const auto [actor_sq, critic_sq] = nn::Network::collect_gradients(
        actor, ctx.actor_grads, critic, ctx.critic_grads);
    nn::clip_by_norm_squared(ctx.actor_grads, actor_sq, kGradClipNorm);
    nn::clip_by_norm_squared(ctx.critic_grads, critic_sq, kGradClipNorm);
  }

  {
    MC_OBS_SCOPE("rl.a3c.opt_step");
    // Wavefront apply: in-place SIMD optimizer steps, admitted in episode
    // order (admission wait lands in the rl.a3c.opt_step.lock_wait_ns
    // counter).
    server_->apply(round_episode, ctx.actor_grads, ctx.critic_grads);
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
  std::vector<double> weights(trace.file_count());
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
    weights[i] = 0.3 + trace.variability(id) + 0.25 * std::log1p(mean_reads) +
                 2.0 / (1.0 + 10.0 * margin);
  }

  std::size_t remaining = options.episodes;

  // Init racing (see A3CConfig::init_candidates): probe several fresh
  // initializations, keep the best performer's parameters.
  if (episodes_.load(std::memory_order_relaxed) == 0 &&
      config_.init_candidates > 1 &&
      options.episodes >= (config_.init_candidates + 1) * kProbeEpisodes) {
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
      }
      warmup_start_.store(episodes_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      run_batch(trace, policy, weights, kProbeEpisodes / 2);
      const EpisodeOutcome second_half = run_batch(
          trace, policy, weights, kProbeEpisodes - kProbeEpisodes / 2);
      const double mean_reward =
          second_half.steps > 0
              ? second_half.reward_sum / static_cast<double>(second_half.steps)
              : 0.0;
      if (mean_reward > best_reward) {
        best_reward = mean_reward;
        server_->snapshot_into(best_actor, best_critic);
      }
      remaining -= kProbeEpisodes;
    }
    // The winner restarts with fresh optimizer state (assign() resets both
    // optimizers).
    {
      util::MutexLock lock(param_mutex_);
      actor_.load_parameters(best_actor);
      critic_.load_parameters(best_critic);
      server_->assign(std::move(best_actor), std::move(best_critic));
    }
    // The winner continues mid-schedule: give it the post-warmup floor.
    warmup_start_.store(
        episodes_.load(std::memory_order_relaxed) >= kEntropyWarmupEpisodes
            ? episodes_.load(std::memory_order_relaxed) - kEntropyWarmupEpisodes
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

  // At most one thread per episode; the wavefront window stays
  // config_.workers regardless, so the schedule (and therefore the result)
  // does not depend on how many threads actually run. Worker w runs on
  // contexts[w], built here before any thread starts: built inside each
  // new thread, they landed in per-thread malloc arenas and raised peak RSS.
  const std::size_t spawn = std::min(config_.workers, batch);
  std::vector<WorkerCtx> contexts;
  contexts.reserve(spawn);
  for (std::size_t w = 0; w < spawn; ++w)
    contexts.emplace_back(*this, trace, policy);

  std::atomic<std::size_t> next{0};
  // Outcomes land by ordinal and reduce in ordinal order after the join:
  // the FP sums are then independent of which worker ran which episode.
  std::vector<EpisodeOutcome> outcomes(batch);

  auto worker_fn = [&](WorkerCtx& ctx) {
    std::size_t e = 0;
    while ((e = next.fetch_add(1, std::memory_order_relaxed)) < batch) {
      util::Rng rng = seed_rng_.fork(episode_stream(base + e));
      const auto file = static_cast<trace::FileId>(rng.weighted_index(weights));
      const std::size_t span = max_start - h;
      const std::size_t start =
          h + (span > 0 ? static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(span) - 1))
                        : 0);
      const std::size_t end = std::min(start + kEpisodeLen, trace.days());
      outcomes[e] = run_episode(ctx, file, start, end, rng, e, base + e);
      episodes_.fetch_add(1, std::memory_order_relaxed);
      env_steps_.fetch_add(outcomes[e].steps, std::memory_order_relaxed);
    }
  };

  if (spawn == 1) {
    worker_fn(contexts[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(spawn);
    for (WorkerCtx& ctx : contexts)
      threads.emplace_back(worker_fn, std::ref(ctx));
    for (auto& t : threads) t.join();
  }
  server_->end_round();

  // Publish the round's parameters: the act, value and save paths read
  // actor_/critic_.
  std::vector<double> actor_flat, critic_flat;
  server_->snapshot_into(actor_flat, critic_flat);
  {
    util::MutexLock lock(param_mutex_);
    actor_.load_parameters(actor_flat);
    critic_.load_parameters(critic_flat);
  }

  EpisodeOutcome total;
  for (const EpisodeOutcome& outcome : outcomes) {
    total.reward_sum += outcome.reward_sum;
    total.cost_sum += outcome.cost_sum;
    total.steps += outcome.steps;
  }
  return total;
}

Action A3CAgent::act(std::span<const double> features) {
  return nn::argmax(policy_probabilities(features));
}

Action A3CAgent::act(const trace::FileRecord& file, std::size_t day,
                     pricing::StorageTier current_tier) {
  return act(featurizer_.encode(file, day, current_tier));
}

template <class Rows>
std::vector<Action> A3CAgent::act_rows(std::size_t count, const Rows& source) {
  std::vector<Action> actions(count);
  if (count == 0) return actions;

  // Snapshot the actor so the whole batch sees one parameter set and runs
  // lock-free; cloning a few thousand parameters is noise against the batch.
  nn::Network actor;
  {
    util::MutexLock lock(param_mutex_);
    actor = actor_;
  }

  // Validate and hash every row (a too-short history throws even when its
  // state repeats another's), then find each row's first occurrence.
  const util::KeyClasses classes = util::key_classes(
      count, [&](std::size_t r) { return source.hash(r); },
      [&](std::size_t a, std::size_t b) { return source.same(a, b); });

  // Encode and forward the first occurrences in row order, in sub-batches
  // of kForwardRows, and pick each one's action.
  const std::size_t width = featurizer_.feature_count();
  const std::size_t out_width = actor.output_size();
  const std::size_t distinct = classes.representative.size();
  std::vector<Action> chosen(distinct);
  std::vector<double> batch;
  for (std::size_t lo = 0; lo < distinct; lo += kForwardRows) {
    const std::size_t rows = std::min(kForwardRows, distinct - lo);
    batch.resize(rows * width);
    for (std::size_t d = 0; d < rows; ++d)
      source.encode(classes.representative[lo + d],
                    std::span(batch).subspan(d * width, width));
    std::vector<double> pi = actor.forward_batch(batch, rows);
    nn::softmax_rows(pi, rows, pi);
    for (std::size_t d = 0; d < rows; ++d)
      chosen[lo + d] = nn::argmax(
          std::span<const double>(pi.data() + d * out_width, out_width));
  }

  // Every row takes its first occurrence's action. Exact: equal keys encode
  // to equal rows, and every batch row's output depends on its own bytes
  // alone, whatever shares its batch (the Layer contract).
  for (std::size_t r = 0; r < count; ++r)
    actions[r] = chosen[classes.class_of[r]];
  MC_OBS_COUNT("rl.a3c.act.rows", count);
  MC_OBS_COUNT("rl.a3c.act.forward_rows", distinct);
  return actions;
}

std::vector<Action> A3CAgent::act_batch(
    std::span<const trace::FileRecord> files, std::size_t day,
    std::span<const pricing::StorageTier> current_tiers) {
  if (files.size() != current_tiers.size())
    throw std::invalid_argument("A3CAgent::act_batch: span width mismatch");
  MC_OBS_SCOPE("rl.a3c.act_batch");
  MC_OBS_COUNT("rl.a3c.act_batch.files", files.size());
  return act_rows(files.size(),
                  FileStates{featurizer_, files, day, current_tiers});
}

std::vector<Action> A3CAgent::act_features_batch(std::span<const double> rows,
                                                 std::size_t count, bool greedy,
                                                 util::ThreadPool*) {
  if (!greedy)
    throw std::invalid_argument(
        "A3CAgent::act_features_batch: only greedy decisions exist");
  const std::size_t width = featurizer_.feature_count();
  if (rows.size() != count * width)
    throw std::invalid_argument(
        "A3CAgent::act_features_batch: rows span width mismatch");
  MC_OBS_SCOPE("rl.a3c.act_features_batch");
  MC_OBS_COUNT("rl.a3c.act_features_batch.rows", count);
  return act_rows(count, FeatureRows{rows.data(), width});
}

std::vector<double> A3CAgent::policy_probabilities(
    std::span<const double> features) {
  util::MutexLock lock(param_mutex_);
  return nn::softmax(actor_.forward_batch(features, 1));
}

double A3CAgent::value(std::span<const double> features) {
  util::MutexLock lock(param_mutex_);
  return critic_.forward_batch(features, 1)[0];
}

void A3CAgent::save(const std::filesystem::path& path) const {
  util::MutexLock lock(param_mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("A3CAgent::save: cannot open " + path.string());
  nn::save_network(actor_, out);
  nn::save_network(critic_, out);
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
}

std::size_t A3CAgent::parameter_count() const {
  util::MutexLock lock(param_mutex_);
  return actor_.parameter_count() + critic_.parameter_count();
}

}  // namespace minicost::rl
