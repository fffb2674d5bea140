// Good: src/util/rng.* is the one place engines may be declared.
#include <random>

namespace mini::util {

inline std::mt19937_64 g_default_engine{1};

class Rng {
 public:
  explicit Rng(unsigned long long seed) : engine_(seed) {}

 private:
  std::mt19937_64 engine_;
};

}  // namespace mini::util
