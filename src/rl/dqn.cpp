#include "rl/dqn.hpp"

#include <algorithm>
#include <cmath>

#include "nn/ops.hpp"
#include "stats/descriptive.hpp"

namespace minicost::rl {
namespace {

nn::Network make_q_net(const DqnConfig& config, const Featurizer& featurizer,
                       util::Rng& rng) {
  return nn::build_trunk(featurizer.history_len(), featurizer.aux_count(),
                         config.filters, config.kernel, config.hidden,
                         kActionCount, rng);
}

}  // namespace

DqnAgent::DqnAgent(DqnConfig config, std::uint64_t seed)
    : config_(config),
      featurizer_(config.features),
      online_(),
      target_(),
      optimizer_(config.learning_rate, 0.9),
      rng_(seed) {
  if (config.batch_size == 0 || config.replay_capacity < config.batch_size)
    throw std::invalid_argument("DqnAgent: bad batch/replay sizes");
  if (config.gamma < 0.0 || config.gamma > 1.0)
    throw std::invalid_argument("DqnAgent: gamma outside [0, 1]");
  util::Rng init = rng_.fork(0);
  online_ = make_q_net(config_, featurizer_, init);
  target_ = online_;
}

void DqnAgent::remember(Transition transition) {
  replay_.push_back(std::move(transition));
  if (replay_.size() > config_.replay_capacity) replay_.pop_front();
}

void DqnAgent::learn_minibatch() {
  if (replay_.size() < std::max(config_.min_replay, config_.batch_size)) return;
  online_.zero_gradients();
  const double inv_batch = 1.0 / static_cast<double>(config_.batch_size);
  for (std::size_t b = 0; b < config_.batch_size; ++b) {
    const Transition& t = replay_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(replay_.size()) - 1))];
    // Double DQN target: online net picks the argmax, target net scores it.
    double bootstrap = 0.0;
    if (!t.next_state.empty()) {
      const std::vector<double> online_next = online_.forward(t.next_state);
      const std::size_t best = nn::argmax(online_next);
      bootstrap = target_.forward(t.next_state)[best];
    }
    const double target_value = t.reward + config_.gamma * bootstrap;

    const std::vector<double> q = online_.forward(t.state);
    std::vector<double> grad(kActionCount, 0.0);
    grad[t.action] = 2.0 * (q[t.action] - target_value) * inv_batch;
    online_.backward(grad);
  }
  std::vector<double> grads(online_.parameter_count());
  const double grads_sq = online_.collect_gradients(grads);
  nn::clip_by_norm_squared(grads, grads_sq, config_.grad_clip_norm);
  std::vector<double> params = online_.snapshot_parameters();
  optimizer_.step(params, grads);
  online_.load_parameters(params);

  ++gradient_steps_;
  if (gradient_steps_ % config_.target_sync_every == 0) target_ = online_;
}

void DqnAgent::train(const trace::RequestTrace& trace,
                     const pricing::PricingPolicy& policy,
                     std::size_t episodes) {
  if (trace.file_count() == 0)
    throw std::invalid_argument("DqnAgent::train: empty trace");
  const std::size_t h = featurizer_.history_len();
  if (trace.days() < h + 2)
    throw std::invalid_argument("DqnAgent::train: trace shorter than history");

  std::vector<double> weights(trace.file_count(), 1.0);
  if (config_.sample_by_variability) {
    for (std::size_t i = 0; i < trace.file_count(); ++i) {
      const auto id = static_cast<trace::FileId>(i);
      weights[i] = 0.3 + trace.variability(id) +
                   0.25 * std::log1p(stats::mean(trace.file(id).reads));
    }
  }

  TieringEnv env(trace, policy, featurizer_, config_.reward);
  const double hold_stop_p =
      config_.epsilon_hold_mean > 0.0 ? 1.0 / config_.epsilon_hold_mean : 1.0;
  const std::size_t max_start = trace.days() - 1;

  for (std::size_t episode = 0; episode < episodes; ++episode) {
    const auto file = static_cast<trace::FileId>(rng_.weighted_index(weights));
    const std::size_t span = max_start - h;
    const std::size_t start =
        h + (span > 0 ? static_cast<std::size_t>(rng_.uniform_int(
                            0, static_cast<std::int64_t>(span) - 1))
                      : 0);
    const std::size_t end = std::min(start + config_.episode_len, trace.days());
    const pricing::StorageTier initial =
        config_.randomize_initial_tier
            ? pricing::tier_from_index(
                  static_cast<std::size_t>(rng_.uniform_int(0, 2)))
            : pricing::StorageTier::kHot;

    std::vector<double> state = env.reset(file, initial, start, end);
    bool done = false, exploring = false;
    Action held = 0;
    while (!done) {
      Action action;
      if (exploring && !rng_.bernoulli(hold_stop_p)) {
        action = held;
      } else if (rng_.bernoulli(config_.epsilon)) {
        exploring = true;
        held = static_cast<Action>(rng_.uniform_int(0, kActionCount - 1));
        action = held;
      } else {
        exploring = false;
        action = nn::argmax(online_.forward(state));
      }
      StepResult step = env.step(action);
      done = step.done;
      remember({std::move(state), action, step.reward, step.state});
      state = std::move(step.state);
      learn_minibatch();
    }
  }
}

Action DqnAgent::act(std::span<const double> features) {
  return nn::argmax(online_.forward(features));
}

Action DqnAgent::act(const trace::FileRecord& file, std::size_t day,
                     pricing::StorageTier current_tier) {
  return act(featurizer_.encode(file, day, current_tier));
}

std::vector<double> DqnAgent::q_values(std::span<const double> features) {
  return online_.forward(features);
}

}  // namespace minicost::rl
