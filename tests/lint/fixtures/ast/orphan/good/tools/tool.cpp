#include "../src/util/span.hpp"

int tool() { return mini::util::width(); }
