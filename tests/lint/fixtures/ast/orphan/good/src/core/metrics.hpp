// Good: an example includes this header, and examples/ count.
#pragma once

namespace mini::core {

double savings(double cost, double baseline);

}  // namespace mini::core
