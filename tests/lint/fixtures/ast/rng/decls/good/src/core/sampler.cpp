// Good: members hold a util::Rng, and engine types only appear as
// parameter and return types of declarations, which construct nothing.
#include <random>

#include "util/rng.hpp"

namespace mini {

std::mt19937 make_engine(unsigned long long seed);
double draw_from(std::mt19937& engine);

class Sampler {
 public:
  double draw();

 private:
  util::Rng rng_;
  std::vector<double> weights_;
};

}  // namespace mini
