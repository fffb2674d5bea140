// End-to-end pipeline: generate -> train -> plan -> bill, the paper's
// evaluation protocol run through run_policy at tiny scale.
#include <gtest/gtest.h>

#include <stdexcept>

#include "evaluation.hpp"

namespace minicost {
namespace {

TEST(PipelineTest, TrainEvaluateProducesAllPolicies) {
  const trace::RequestTrace tr = evaluation::make_trace();
  ASSERT_FALSE(tr.groups().empty());  // the w/E run needs co-request groups
  rl::A3CAgent agent(evaluation::agent_config(), evaluation::kSeed);
  evaluation::train(agent, tr);
  EXPECT_GT(agent.trained_steps(), 0u);

  util::ThreadPool pool(2);
  const auto outcomes = evaluation::run_policies(
      tr, agent, evaluation::kStart, evaluation::kDays, pool);
  for (const char* name :
       {"Optimal", "Hot", "Cold", "Greedy", "MiniCost", "MiniCost w/E"})
    EXPECT_TRUE(outcomes.count(name)) << name;

  // Optimal is the lower bound; its agreement with itself is 1.
  const double optimal =
      outcomes.at("Optimal").result.report.grand_total().total();
  EXPECT_EQ(outcomes.at("Optimal").optimal_action_rate, 1.0);
  for (const auto& [name, outcome] : outcomes) {
    EXPECT_GE(outcome.optimal_action_rate, 0.0) << name;
    EXPECT_LE(outcome.optimal_action_rate, 1.0) << name;
    if (name == "MiniCost w/E") continue;  // a different workload
    EXPECT_GE(outcome.result.report.grand_total().total(), optimal - 1e-9)
        << name;
  }
}

TEST(PipelineTest, EvaluateRejectsBadWindow) {
  const trace::RequestTrace tr = evaluation::make_trace();
  rl::A3CAgent agent(evaluation::agent_config(), evaluation::kSeed);
  util::ThreadPool pool(2);
  // No observation days for the initial placement.
  EXPECT_THROW(evaluation::run_policies(tr, agent, 0, 10, pool),
               std::invalid_argument);
  // The window ends before it starts.
  EXPECT_THROW(evaluation::run_policies(tr, agent, 30, 20, pool),
               std::invalid_argument);
}

}  // namespace
}  // namespace minicost
