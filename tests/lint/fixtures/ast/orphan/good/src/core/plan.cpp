#include "core/plan.hpp"

namespace mini::core {

int plan_days() { return 62; }

}  // namespace mini::core
