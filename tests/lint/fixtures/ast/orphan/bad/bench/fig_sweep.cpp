#include "core/sweep.hpp"

int main() { return mini::core::sweep_points(); }
