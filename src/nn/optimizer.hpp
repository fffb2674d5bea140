#pragma once
// First-order optimizers over flat parameter vectors. The A3C parameter
// server keeps one optimizer per network and applies flat gradient vectors
// collected from worker clones (Network::collect_gradients).

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace minicost::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Updates `params` in place from `grads` (gradient *descent*; negate the
  /// gradient upstream for ascent objectives). Sizes must match the first
  /// call's; throws std::invalid_argument otherwise.
  virtual void step(std::span<double> params, std::span<const double> grads) = 0;

  virtual std::string name() const = 0;

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  double lr_;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0);
  void step(std::span<double> params, std::span<const double> grads) override;
  std::string name() const override { return "sgd"; }

 private:
  double momentum_;
  std::vector<double> velocity_;
};

/// RMSProp — the optimizer of the original A3C paper and of the MiniCost
/// paper's training (Sec. 6.1). The trainer's default is Sgd with momentum
/// (rl::A3CConfig::optimizer).
class RmsProp final : public Optimizer {
 public:
  explicit RmsProp(double lr, double decay = 0.99, double epsilon = 1e-6);
  void step(std::span<double> params, std::span<const double> grads) override;
  std::string name() const override { return "rmsprop"; }

 private:
  double decay_, epsilon_;
  std::vector<double> mean_square_;
};

}  // namespace minicost::nn
