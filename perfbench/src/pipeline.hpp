#pragma once
// core::PlanDriver's planning pipeline rebuilt from the library's public
// layer calls, with a span around each call:
//
//   store.materialize  store::TraceReader::materialize_shard, and freeing
//                      the shard it returned
//   core.prepare       core::static_initial_tiers + TieringPolicy::prepare
//   core.decide        TieringPolicy::decide_day — or, for MiniCost,
//     rl.featurize       rl::Featurizer::encode_into over the shard, and
//     rl.forward         rl::A3CAgent::act_features_batch
//   sim.setup          trace window copy, sim::StorageSimulator set-up and
//                      teardown, around
//   sim.advance        sim::StorageSimulator::advance
//   core.merge         sim::BillingReport::merge_shard (and the full-width
//                      report it merges into)
//   store.release      store::TraceReader::release_frequency_range
//
// It follows PlanDriver and core::run_policy call for call, with every
// option at the library default except the pool, the shard size and the
// first billed day, so its bill must be byte-identical to
// PlanDriver::run()/replan() on the same store; the benchmark checks that.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "rl/a3c.hpp"
#include "sim/billing.hpp"
#include "store/trace_reader.hpp"
#include "tracer.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace mc = ::minicost;

/// Work the layers did, summed over the operations of a run.
struct LayerCounts {
  double materialize_files = 0.0;
  double materialize_raw_bytes = 0.0;
  double decide_file_days = 0.0;
  double forward_rows = 0.0;
  double forward_unique_rows = 0.0;  ///< counted only when tracing
  double bill_file_days = 0.0;
  double tier_changes = 0.0;
  double merge_shards = 0.0;
  double shards_planned = 0.0;
};

class RebuiltDriver {
 public:
  /// Borrows everything. A non-null `agent` decides through the featurize +
  /// forward layers (the MiniCost path) and checks every day's actions
  /// against `policy.decide_day`, which must then be the RL policy built
  /// from the same agent configuration and seed.
  RebuiltDriver(const mc::store::TraceReader& reader,
                const mc::pricing::PricingPolicy& prices,
                mc::core::TieringPolicy& policy,
                mc::rl::A3CAgent* agent,
                mc::util::ThreadPool& pool, std::size_t shard_files,
                std::size_t start_day);

  /// Same partition arithmetic as PlanDriver::mark_dirty.
  void mark_dirty(std::size_t first, std::size_t count);
  void mark_all_dirty();

  /// Plans the dirty shards, splices the cached bills of the rest, clears
  /// the dirty set and returns the full-width bill.
  mc::sim::BillingReport replan(Tracer& tracer);

  LayerCounts counts;
  /// Days on which the featurize + forward actions differed from
  /// policy.decide_day's.
  std::uint64_t action_mismatches = 0;

 private:
  struct ShardRange {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  mc::sim::BillingReport plan_shard(const ShardRange& range, Tracer& tracer);
  void decide_rl(const mc::core::PlanContext& context, std::size_t day,
                 const std::vector<mc::pricing::StorageTier>& current,
                 std::vector<mc::pricing::StorageTier>& out,
                 Tracer& tracer);

  const mc::store::TraceReader& reader_;
  const mc::pricing::PricingPolicy& prices_;
  mc::core::TieringPolicy& policy_;
  mc::rl::A3CAgent* agent_;
  mc::util::ThreadPool& pool_;
  std::size_t start_day_;
  std::vector<ShardRange> shards_;
  std::vector<mc::sim::BillingReport> cache_;
  std::vector<bool> dirty_;
  std::vector<double> rows_;  ///< featurized rows of one shard-day
};

/// Byte-for-byte bill equality: per-file totals, tier changes, grand total.
bool same_bill(const mc::sim::BillingReport& a,
               const mc::sim::BillingReport& b);

}  // namespace perfbench
