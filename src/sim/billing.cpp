#include "sim/billing.hpp"

#include <stdexcept>

namespace minicost::sim {

BillingReport::BillingReport(std::size_t files, std::size_t days)
    : per_day_exact_(days),
      per_file_total_(files, 0.0),
      per_day_changes_(days, 0),
      per_day_(days) {}

void BillingReport::charge(trace::FileId file, std::size_t day,
                           const CostBreakdown& cost) {
  ExactBreakdown& exact = per_day_exact_.at(day);
  exact.storage.add(cost.storage);
  exact.read.add(cost.read);
  exact.write.add(cost.write);
  exact.change.add(cost.change);
  // A file's charges always arrive in day order from exactly one simulator
  // run, so this fold's order is fixed (see the header comment).
  // lint-ast: allow(billing-exact-sum) -- per-file folds are day-ordered within one run
  per_file_total_.at(file) += cost.total();
  stale_ = true;
}

void BillingReport::count_change(std::size_t day) {
  ++tier_changes_;
  ++per_day_changes_.at(day);
}

void BillingReport::refresh() const {
  if (!stale_) return;
  grand_total_ = CostBreakdown{};
  for (std::size_t d = 0; d < per_day_exact_.size(); ++d) {
    const ExactBreakdown& exact = per_day_exact_[d];
    CostBreakdown& rounded = per_day_[d];
    rounded.storage = exact.storage.value();
    rounded.read = exact.read.value();
    rounded.write = exact.write.value();
    rounded.change = exact.change.value();
    grand_total_ += rounded;
  }
  stale_ = false;
}

const CostBreakdown& BillingReport::grand_total() const {
  refresh();
  return grand_total_;
}

const CostBreakdown& BillingReport::day(std::size_t d) const {
  refresh();
  return per_day_.at(d);
}

double BillingReport::cumulative_through(std::size_t d) const {
  if (d >= per_day_exact_.size())
    throw std::out_of_range("BillingReport::cumulative_through");
  refresh();
  double total = 0.0;
  // lint-ast: allow(billing-exact-sum) -- ascending-day fold of rounded per-day values
  for (std::size_t i = 0; i <= d; ++i) total += per_day_[i].total();
  return total;
}

void BillingReport::merge_shard(const BillingReport& other,
                                std::size_t file_offset) {
  if (other.per_day_exact_.size() != per_day_exact_.size())
    throw std::invalid_argument("BillingReport::merge_shard: day mismatch");
  // Overflow-safe form of file_offset + width > file_count (an offset near
  // SIZE_MAX must not wrap past the check).
  if (other.per_file_total_.size() > per_file_total_.size() ||
      file_offset > per_file_total_.size() - other.per_file_total_.size())
    throw std::invalid_argument(
        "BillingReport::merge_shard: file range exceeds report width");
  for (std::size_t d = 0; d < per_day_exact_.size(); ++d) {
    per_day_exact_[d].storage.add(other.per_day_exact_[d].storage);
    per_day_exact_[d].read.add(other.per_day_exact_[d].read);
    per_day_exact_[d].write.add(other.per_day_exact_[d].write);
    per_day_exact_[d].change.add(other.per_day_exact_[d].change);
    per_day_changes_[d] += other.per_day_changes_[d];
  }
  for (std::size_t f = 0; f < other.per_file_total_.size(); ++f)
    // lint-ast: allow(billing-exact-sum) -- shards own disjoint file ranges, one addend per file
    per_file_total_[file_offset + f] += other.per_file_total_[f];
  tier_changes_ += other.tier_changes_;
  stale_ = true;
}

}  // namespace minicost::sim
