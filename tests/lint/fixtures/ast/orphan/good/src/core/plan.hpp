// Good: perfbench/ includes this header, and perfbench counts.
#pragma once

namespace mini::core {

int plan_days();

}  // namespace mini::core
