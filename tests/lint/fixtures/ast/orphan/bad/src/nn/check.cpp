#include "nn/check.hpp"

namespace mini::nn {

double finite_difference(double x) { return x; }

}  // namespace mini::nn
