#include "core/metrics.hpp"

int main() { return mini::core::savings(1.0, 2.0) > 0.0 ? 0 : 1; }
