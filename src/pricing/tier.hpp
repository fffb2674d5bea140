#pragma once
// Storage tiers. The paper evaluates on Microsoft Azure's three blob access
// tiers (hot / cool / archive, "cold" in the paper's terminology = cool);
// the cardinality Γ is deliberately not hard-coded anywhere downstream so a
// policy with more tiers (multi-CSP, Sec. 4.2.1) also works.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace minicost::pricing {

enum class StorageTier : std::uint8_t { kHot = 0, kCool = 1, kArchive = 2 };

inline constexpr std::size_t kTierCount = 3;

constexpr std::array<StorageTier, kTierCount> all_tiers() noexcept {
  return {StorageTier::kHot, StorageTier::kCool, StorageTier::kArchive};
}

constexpr std::size_t tier_index(StorageTier tier) noexcept {
  return static_cast<std::size_t>(tier);
}

/// Throws std::out_of_range for indices >= kTierCount.
StorageTier tier_from_index(std::size_t index);

std::string_view tier_name(StorageTier tier) noexcept;

}  // namespace minicost::pricing
