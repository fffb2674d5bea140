#pragma once
// Monotonic wall-clock stopwatch used by the overhead experiments (Fig. 12).

#include <chrono>

namespace minicost::util {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace minicost::util
