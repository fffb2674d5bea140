// Bad: only check.cpp (its own .cpp) and a test include this header.
#pragma once

namespace mini::nn {

double finite_difference(double x);

}  // namespace mini::nn
