// Good: a live suppression with a reason silences a real finding and is
// therefore not stale.
namespace mini {

class StorageSimulator {
 public:
  void advance(double v) {
    // lint-contract: allow(billing-exact-sum) -- fixture: fixed fold order
    scratch_ += v;
  }

 private:
  double scratch_ = 0.0;
};

}  // namespace mini
