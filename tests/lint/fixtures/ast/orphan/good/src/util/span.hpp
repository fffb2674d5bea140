// Good: header-only; a tool includes it by a path relative to tools/.
#pragma once

namespace mini::util {

inline int width() { return 1; }

}  // namespace mini::util
