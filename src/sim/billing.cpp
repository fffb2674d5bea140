#include "sim/billing.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace minicost::sim {

void DayPartial::add(const CostBreakdown& cost, std::uint32_t members) {
  storage.add_scaled(cost.storage, members);
  read.add_scaled(cost.read, members);
  write.add_scaled(cost.write, members);
  change.add_scaled(cost.change, members);
}

void DayPartial::add(const DayPartial& other) noexcept {
  storage.add(other.storage);
  read.add(other.read);
  write.add(other.write);
  change.add(other.change);
  tier_changes += other.tier_changes;
}

BillingReport::BillingReport(std::size_t files, std::size_t days)
    : per_day_exact_(days), per_file_total_(files, 0.0), per_day_(days) {}

void BillingReport::add_day(std::size_t day, const DayPartial& partial) {
  assert(day < days());
  per_day_exact_[day].add(partial);
  tier_changes_ += partial.tier_changes;
  stale_ = true;
}

void BillingReport::charge(trace::FileId file, std::size_t day,
                           const CostBreakdown& cost) {
  assert(day < days() && file < file_count());
  DayPartial one;
  one.add(cost);
  add_day(day, one);
  add_file_total(file, cost.total());
}

void BillingReport::refresh() const {
  if (!stale_) return;
  grand_total_ = CostBreakdown{};
  for (std::size_t d = 0; d < per_day_exact_.size(); ++d) {
    const DayPartial& exact = per_day_exact_[d];
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
  // lint-contract: allow(billing-exact-sum) -- ascending-day fold of rounded per-day values
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
  for (std::size_t d = 0; d < per_day_exact_.size(); ++d)
    add_day(d, other.per_day_exact_[d]);
  for (std::size_t f = 0; f < other.per_file_total_.size(); ++f)
    // lint-contract: allow(billing-exact-sum) -- shards own disjoint file ranges, one addend per file
    per_file_total_[file_offset + f] += other.per_file_total_[f];
}

BillingReport BillingReport::gather(
    std::span<const trace::FileId> source_of) const {
  BillingReport wide;
  wide.per_day_exact_ = per_day_exact_;
  wide.tier_changes_ = tier_changes_;
  wide.per_day_.resize(per_day_exact_.size());
  wide.stale_ = true;
  wide.per_file_total_.reserve(source_of.size());
  for (const trace::FileId source : source_of)
    wide.per_file_total_.push_back(per_file_total_.at(source));
  return wide;
}

namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool bitwise_equal(const CostBreakdown& a, const CostBreakdown& b) noexcept {
  return same_bits(a.storage, b.storage) && same_bits(a.read, b.read) &&
         same_bits(a.write, b.write) && same_bits(a.change, b.change);
}

bool bitwise_equal(const BillingReport& a, const BillingReport& b) {
  if (a.days() != b.days() || a.file_count() != b.file_count() ||
      a.tier_changes() != b.tier_changes())
    return false;
  for (std::size_t d = 0; d < a.days(); ++d)
    if (!bitwise_equal(a.day(d), b.day(d)) ||
        a.tier_changes_on(d) != b.tier_changes_on(d))
      return false;
  for (std::size_t f = 0; f < a.file_count(); ++f)
    if (!same_bits(a.file_total(f), b.file_total(f))) return false;
  return bitwise_equal(a.grand_total(), b.grand_total());
}

}  // namespace minicost::sim
