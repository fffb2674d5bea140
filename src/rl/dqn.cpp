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
  const std::size_t batch = config_.batch_size;
  const std::size_t width = online_.input_size();
  std::vector<const Transition*> picked(batch);
  for (const Transition*& t : picked)
    t = &replay_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(replay_.size()) - 1))];

  // Double DQN target: the online net picks the argmax, the target net
  // scores it; terminal transitions bootstrap 0. The non-terminal next
  // states go through each net as one batch.
  std::vector<double> next_rows;
  for (const Transition* t : picked)
    next_rows.insert(next_rows.end(), t->next_state.begin(),
                     t->next_state.end());
  const std::size_t next_count = next_rows.size() / width;
  std::vector<double> online_next, target_next;
  if (next_count > 0) {
    online_next = online_.forward_batch(next_rows, next_count);
    target_next = target_.forward_batch(next_rows, next_count);
  }

  // One training pass over the B states; only the taken action's output
  // carries gradient. Parameters do not change inside a minibatch, and
  // backward_batch takes rows in ascending order, so the update is the one
  // B sequential per-transition steps would accumulate.
  std::vector<double> states;
  states.reserve(batch * width);
  for (const Transition* t : picked)
    states.insert(states.end(), t->state.begin(), t->state.end());
  const std::vector<double> q = online_.forward_batch_train(states, batch);
  std::vector<double> grad(batch * kActionCount, 0.0);
  const double inv_batch = 1.0 / static_cast<double>(batch);
  std::size_t next = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const Transition& t = *picked[b];
    double bootstrap = 0.0;
    if (!t.next_state.empty()) {
      const std::size_t row = next++ * kActionCount;
      const std::size_t best = nn::argmax(
          std::span<const double>(online_next).subspan(row, kActionCount));
      bootstrap = target_next[row + best];
    }
    const double target_value = t.reward + config_.gamma * bootstrap;
    const std::size_t at = b * kActionCount + t.action;
    grad[at] = 2.0 * (q[at] - target_value) * inv_batch;
  }
  online_.backward_batch(grad, batch);

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
        action = nn::argmax(online_.forward_batch(state, 1));
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
  return nn::argmax(online_.forward_batch(features, 1));
}

Action DqnAgent::act(const trace::FileRecord& file, std::size_t day,
                     pricing::StorageTier current_tier) {
  return act(featurizer_.encode(file, day, current_tier));
}

std::vector<double> DqnAgent::q_values(std::span<const double> features) {
  return online_.forward_batch(features, 1);
}

}  // namespace minicost::rl
