#include "core/metrics.hpp"

namespace mini::core {

double savings(double cost, double baseline) { return baseline - cost; }

}  // namespace mini::core
