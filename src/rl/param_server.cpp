#include "rl/param_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace minicost::rl {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParamServer::ParamServer(std::size_t shard_count, OptimizerFactory factory)
    : factory_(std::move(factory)) {
  if (shard_count == 0 || shard_count > 64)
    throw std::invalid_argument("ParamServer: shard_count outside [1, 64]");
  if (!factory_)
    throw std::invalid_argument("ParamServer: null optimizer factory");
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

void ParamServer::partition() {
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    sh.actor_lo = s * actor_size_ / n;
    sh.actor_hi = (s + 1) * actor_size_ / n;
    sh.critic_lo = s * critic_size_ / n;
    sh.critic_hi = (s + 1) * critic_size_ / n;
  }
}

void ParamServer::assign(std::vector<double> actor, std::vector<double> critic) {
  if (round_active_)
    throw std::logic_error("ParamServer::assign: round in progress");
  if (actor_size_ != 0 &&
      (actor.size() != actor_size_ || critic.size() != critic_size_))
    throw std::invalid_argument("ParamServer::assign: size mismatch");
  actor_size_ = actor.size();
  critic_size_ = critic.size();
  actor_flat_ = std::move(actor);
  critic_flat_ = std::move(critic);
  partition();
  // Fresh optimizer state per shard slice: assign() is the "new
  // initialization" event (construction, init racing, checkpoint load), and
  // carrying momentum across it would mix unrelated parameter histories.
  for (auto& sp : shards_) {
    sp->actor_opt = factory_();
    sp->critic_opt = factory_();
  }
  version_.fetch_add(1, std::memory_order_relaxed);
}

void ParamServer::snapshot_into(std::vector<double>& actor,
                                std::vector<double>& critic) {
  actor.resize(actor_size_);
  critic.resize(critic_size_);
  // Ascending shard order — the one global lock order (see header).
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    util::MutexLock lock(sh.mutex);
    std::copy(actor_flat_.begin() + static_cast<std::ptrdiff_t>(sh.actor_lo),
              actor_flat_.begin() + static_cast<std::ptrdiff_t>(sh.actor_hi),
              actor.begin() + static_cast<std::ptrdiff_t>(sh.actor_lo));
    std::copy(critic_flat_.begin() + static_cast<std::ptrdiff_t>(sh.critic_lo),
              critic_flat_.begin() + static_cast<std::ptrdiff_t>(sh.critic_hi),
              critic.begin() + static_cast<std::ptrdiff_t>(sh.critic_lo));
  }
}

void ParamServer::begin_round(std::size_t episodes, std::size_t window) {
  if (round_active_)
    throw std::logic_error("ParamServer::begin_round: round already active");
  if (window == 0)
    throw std::invalid_argument("ParamServer::begin_round: window must be > 0");
  if (actor_size_ == 0)
    throw std::logic_error("ParamServer::begin_round: no parameters assigned");
  round_total_ = episodes;
  window_ = window;
  round_active_ = true;
  const bool timing = obs::kCompiledIn && obs::enabled();
  if (timing && sync_wait_total_ == nullptr) {
    sync_wait_total_ = &obs::counter("rl.a3c.sync.wait_ns");
    apply_wait_total_ = &obs::counter("rl.a3c.opt_step.lock_wait_ns");
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::string tag = ".shard" + std::to_string(s);
      shards_[s]->sync_wait_ns =
          &obs::counter("rl.a3c.sync" + tag + ".wait_ns");
      shards_[s]->apply_wait_ns =
          &obs::counter("rl.a3c.opt_step" + tag + ".lock_wait_ns");
    }
  }
  for (auto& sp : shards_) {
    sp->synced = 0;
    sp->applied = 0;
  }
}

void ParamServer::end_round() {
  if (!round_active_)
    throw std::logic_error("ParamServer::end_round: no round active");
  for (const auto& sp : shards_) {
    if (sp->synced != round_total_ || sp->applied != round_total_)
      throw std::logic_error(
          "ParamServer::end_round: wavefront incomplete (protocol bug)");
  }
  round_active_ = false;
}

void ParamServer::sync(std::size_t episode, std::span<double> actor_out,
                       std::span<double> critic_out) {
  // Episode e may start once every episode outside its window [e-W+1, e] has
  // been applied. Waiting for *exactly* that prefix (rather than whatever
  // happens to be applied) is what makes the parameters episode e reads a
  // pure function of the episode ordinal.
  const std::uint64_t need_applied =
      episode + 1 >= window_ ? episode + 1 - window_ : 0;
  const bool timing =
      obs::kCompiledIn && obs::enabled() && sync_wait_total_ != nullptr;
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    const std::uint64_t t0 = timing ? steady_now_ns() : 0;
    util::MutexLock lock(sh.mutex);
    sh.cv.wait(lock, [&] {
      return sh.synced == episode && sh.applied >= need_applied;
    });
    if (timing) {
      const std::uint64_t waited = steady_now_ns() - t0;
      sync_wait_total_->add(waited);
      sh.sync_wait_ns->add(waited);
    }
    std::copy(actor_flat_.begin() + static_cast<std::ptrdiff_t>(sh.actor_lo),
              actor_flat_.begin() + static_cast<std::ptrdiff_t>(sh.actor_hi),
              actor_out.begin() + static_cast<std::ptrdiff_t>(sh.actor_lo));
    std::copy(critic_flat_.begin() + static_cast<std::ptrdiff_t>(sh.critic_lo),
              critic_flat_.begin() + static_cast<std::ptrdiff_t>(sh.critic_hi),
              critic_out.begin() + static_cast<std::ptrdiff_t>(sh.critic_lo));
    ++sh.synced;
    sh.cv.notify_all();
  }
}

void ParamServer::apply(std::size_t episode,
                        std::span<const double> actor_grads,
                        std::span<const double> critic_grads) {
  // Applies land in strict episode order; the sync floor below keeps any
  // still-pending sync inside the window ahead of this write (it must read
  // the pre-apply parameters) without ever blocking on an absent reader
  // (min(e + W, total) saturates at the round's episode count).
  const std::uint64_t need_synced =
      std::min<std::uint64_t>(episode + window_, round_total_);
  const bool timing =
      obs::kCompiledIn && obs::enabled() && apply_wait_total_ != nullptr;
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    const std::uint64_t t0 = timing ? steady_now_ns() : 0;
    util::MutexLock lock(sh.mutex);
    sh.cv.wait(lock, [&] {
      return sh.applied == episode && sh.synced >= need_synced;
    });
    if (timing) {
      const std::uint64_t waited = steady_now_ns() - t0;
      apply_wait_total_->add(waited);
      sh.apply_wait_ns->add(waited);
    }
    sh.actor_opt->step(
        std::span<double>(actor_flat_)
            .subspan(sh.actor_lo, sh.actor_hi - sh.actor_lo),
        actor_grads.subspan(sh.actor_lo, sh.actor_hi - sh.actor_lo));
    sh.critic_opt->step(
        std::span<double>(critic_flat_)
            .subspan(sh.critic_lo, sh.critic_hi - sh.critic_lo),
        critic_grads.subspan(sh.critic_lo, sh.critic_hi - sh.critic_lo));
    ++sh.applied;
    sh.cv.notify_all();
  }
  version_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace minicost::rl
