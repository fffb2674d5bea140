// Bad: engines declared outside any function body — at namespace scope and
// as class members, one of them behind a type alias. No function constructs
// anything, so only the declarations themselves can be flagged.
#include <random>

namespace mini {

static std::random_device g_rd;
std::mt19937 g_engine{7};

struct Holder { std::random_device member; std::mt19937 eng_; };

using Engine = std::mt19937_64;

class Sampler {
 public:
  double draw();

 private:
  Engine engine_;
};

}  // namespace mini
