#include "core/plan.hpp"

int run_workload() { return mini::core::plan_days(); }
