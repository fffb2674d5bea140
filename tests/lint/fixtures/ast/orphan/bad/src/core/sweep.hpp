// Bad: only a bench includes this header; bench/ includers do not count.
#pragma once

namespace mini::core {

inline int sweep_points() { return 9; }

}  // namespace mini::core
