#pragma once
// MiniCost's online policy: the trained A3C agent deployed as a
// TieringPolicy (paper Sec. 5.1: "After the DQN is trained, we deploy the
// trained DQN in the agent server... Everyday, the trained agent runs one
// time for all data files"). Strictly online — only the request history up
// to (not including) the decision day is featurized.

#include <filesystem>
#include <memory>

#include "core/policy.hpp"
#include "rl/a3c.hpp"

namespace minicost::core {

/// Configuration for a self-contained MiniCost policy (CLI deployments that
/// have no externally-owned agent).
struct RlPolicyOptions {
  rl::A3CConfig agent;  ///< network/feature architecture
  /// Deterministic-init seed; two policies built from the same options are
  /// byte-identical deciders.
  std::uint64_t seed = 1234;
  /// Checkpoint to load (A3CAgent::save format). Empty = fresh
  /// deterministic initialization (untrained but fully functional — it
  /// still exercises the real featurize/forward pipeline).
  std::filesystem::path checkpoint;
  bool greedy = true;
};

class RlPolicy final : public TieringPolicy {
 public:
  /// Borrows the agent (must outlive the policy). greedy=true uses the
  /// argmax of π (deployment mode); false samples (training-style).
  explicit RlPolicy(rl::A3CAgent& agent, bool greedy = true)
      : agent_(agent), greedy_(greedy) {}

  /// Owns an agent built from `options` (and loaded from its checkpoint,
  /// if one is named).
  explicit RlPolicy(const RlPolicyOptions& options);

  std::string name() const override { return "MiniCost"; }
  Knowledge knowledge() const noexcept override { return Knowledge::kHistory; }

  /// One A3CAgent::act_batch call — fused NN forwards sharded over the
  /// planning pool. Every row equals A3CAgent::act on the file's encoded
  /// features; before a full history window exists every file stays put.
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override;

 private:
  std::unique_ptr<rl::A3CAgent> owned_;  ///< null when the agent is borrowed
  rl::A3CAgent& agent_;
  bool greedy_;
};

/// An RlPolicy that owns its agent: for `minicost plan --policy rl` and
/// other callers with no training loop in scope.
std::unique_ptr<TieringPolicy> make_rl_policy(const RlPolicyOptions& options);

}  // namespace minicost::core
