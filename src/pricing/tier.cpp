#include "pricing/tier.hpp"

#include <stdexcept>

namespace minicost::pricing {

StorageTier tier_from_index(std::size_t index) {
  if (index >= kTierCount)
    throw std::out_of_range("tier_from_index: index " + std::to_string(index));
  return static_cast<StorageTier>(index);
}

std::string_view tier_name(StorageTier tier) noexcept {
  switch (tier) {
    case StorageTier::kHot: return "hot";
    case StorageTier::kCool: return "cool";
    case StorageTier::kArchive: return "archive";
  }
  return "?";
}

}  // namespace minicost::pricing
