#include "rl/param_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace minicost::rl {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParamServer::ParamServer(OptimizerFactory factory)
    : factory_(std::move(factory)) {
  if (!factory_)
    throw std::invalid_argument("ParamServer: null optimizer factory");
}

void ParamServer::assign(std::vector<double> actor, std::vector<double> critic) {
  util::MutexLock lock(mutex_);
  if (round_active_)
    throw std::logic_error("ParamServer::assign: round in progress");
  if (actor_size_ != 0 &&
      (actor.size() != actor_size_ || critic.size() != critic_size_))
    throw std::invalid_argument("ParamServer::assign: size mismatch");
  actor_size_ = actor.size();
  critic_size_ = critic.size();
  actor_flat_ = std::move(actor);
  critic_flat_ = std::move(critic);
  // Fresh optimizer state: assign() is the "new initialization" event
  // (construction, init racing, checkpoint load), and carrying momentum
  // across it would mix unrelated parameter histories.
  actor_opt_ = factory_();
  critic_opt_ = factory_();
}

void ParamServer::snapshot_into(std::vector<double>& actor,
                                std::vector<double>& critic) {
  util::MutexLock lock(mutex_);
  actor.assign(actor_flat_.begin(), actor_flat_.end());
  critic.assign(critic_flat_.begin(), critic_flat_.end());
}

void ParamServer::begin_round(std::size_t episodes, std::size_t window) {
  util::MutexLock lock(mutex_);
  if (round_active_)
    throw std::logic_error("ParamServer::begin_round: round already active");
  if (window == 0)
    throw std::invalid_argument("ParamServer::begin_round: window must be > 0");
  if (actor_size_ == 0)
    throw std::logic_error("ParamServer::begin_round: no parameters assigned");
  round_total_ = episodes;
  window_ = window;
  round_active_ = true;
  synced_ = 0;
  applied_ = 0;
  if (obs::kCompiledIn && obs::enabled() && sync_wait_ns_ == nullptr) {
    sync_wait_ns_ = &obs::counter("rl.a3c.sync.wait_ns");
    apply_wait_ns_ = &obs::counter("rl.a3c.opt_step.lock_wait_ns");
  }
}

void ParamServer::end_round() {
  util::MutexLock lock(mutex_);
  if (!round_active_)
    throw std::logic_error("ParamServer::end_round: no round active");
  if (synced_ != round_total_ || applied_ != round_total_)
    throw std::logic_error(
        "ParamServer::end_round: wavefront incomplete (protocol bug)");
  round_active_ = false;
}

void ParamServer::sync(std::size_t episode, nn::Network& actor,
                       nn::Network& critic) {
  const bool timing = obs::kCompiledIn && obs::enabled();
  const std::uint64_t t0 = timing ? steady_now_ns() : 0;
  util::MutexLock lock(mutex_);
  // Episode e may start once every episode outside its window [e-W+1, e] has
  // been applied. Waiting for *exactly* that prefix (rather than whatever
  // happens to be applied) is what makes the parameters episode e reads a
  // pure function of the episode ordinal.
  const std::uint64_t need_applied =
      episode + 1 >= window_ ? episode + 1 - window_ : 0;
  cv_.wait(lock, [&]() MC_REQUIRES(mutex_) {
    return synced_ == episode && applied_ >= need_applied;
  });
  if (timing && sync_wait_ns_ != nullptr)
    sync_wait_ns_->add(steady_now_ns() - t0);
  actor.load_parameters(actor_flat_);
  critic.load_parameters(critic_flat_);
  ++synced_;
  cv_.notify_all();
}

void ParamServer::apply(std::size_t episode,
                        std::span<const double> actor_grads,
                        std::span<const double> critic_grads) {
  const bool timing = obs::kCompiledIn && obs::enabled();
  const std::uint64_t t0 = timing ? steady_now_ns() : 0;
  util::MutexLock lock(mutex_);
  // Applies land in strict episode order; the sync floor below keeps any
  // still-pending sync inside the window ahead of this write (it must read
  // the pre-apply parameters) without ever blocking on an absent reader
  // (min(e + W, total) saturates at the round's episode count).
  const std::uint64_t need_synced =
      std::min<std::uint64_t>(episode + window_, round_total_);
  cv_.wait(lock, [&]() MC_REQUIRES(mutex_) {
    return applied_ == episode && synced_ >= need_synced;
  });
  if (timing && apply_wait_ns_ != nullptr)
    apply_wait_ns_->add(steady_now_ns() - t0);
  actor_opt_->step(actor_flat_, actor_grads);
  critic_opt_->step(critic_flat_, critic_grads);
  ++applied_;
  cv_.notify_all();
}

}  // namespace minicost::rl
