// tests/ includers do not count: the header is still an orphan.
#include "nn/check.hpp"
