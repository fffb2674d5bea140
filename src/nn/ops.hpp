#pragma once
// Free-function tensor ops shared by layers and the RL losses.

#include <span>
#include <vector>

namespace minicost::nn {

/// Numerically stable softmax (subtracts the max before exponentiation).
std::vector<double> softmax(std::span<const double> logits);

/// Row-wise softmax over a rows×width row-major buffer: out row r is
/// bit-identical to softmax() of logits row r. `logits` and `out` must both
/// be rows*width long (throws std::invalid_argument); they may alias.
void softmax_rows(std::span<const double> logits, std::size_t rows,
                  std::span<double> out);

/// Shannon entropy of a probability vector, in nats.
double entropy(std::span<const double> probabilities) noexcept;

/// Index of the maximum element; 0 for empty input.
std::size_t argmax(std::span<const double> values) noexcept;

/// L2 norm.
double l2_norm(std::span<const double> values) noexcept;

/// Rescales `values` so its L2 norm is at most max_norm (global gradient
/// norm clipping). No-op if already within bounds or max_norm <= 0.
void clip_by_global_norm(std::span<double> values, double max_norm) noexcept;

/// clip_by_global_norm() given the sum of squares of `values` (as
/// Network::collect_gradients returns it), so the clip does not walk
/// `values` a second time to compute it. Bit-identical to the two-argument
/// form when `sum_sq` is the ascending-order sum of squares it would
/// compute.
void clip_by_norm_squared(std::span<double> values, double sum_sq,
                          double max_norm) noexcept;

/// Fused A3C actor loss gradient over `rows` probability rows (the
/// softmax_rows output of the episode's logit block). For row r with
/// probabilities p and chosen action c = chosen[r]:
///   grad[r][a] = ((p[a] - 1{a==c}) * advantages[r]
///                 + beta * p[a] * (log(max(p[a], 1e-12)) + H(p))) * inv_n
/// — the per-step policy-gradient + entropy expressions, evaluated in the
/// same operation order, so the block is bit-identical to computing each
/// row separately. `advantages` must already be centered. `probs` and
/// `grad` are rows*width row-major; `chosen`/`advantages` have one entry
/// per row. Throws std::invalid_argument on size mismatch.
void policy_entropy_grad_rows(std::span<const double> probs, std::size_t rows,
                              std::span<const std::size_t> chosen,
                              std::span<const double> advantages, double beta,
                              double inv_n, std::span<double> grad);

/// Fused MSE gradient rows: grad[i] = 2.0 * (values[i] - targets[i]) * inv_n
/// — the critic's per-step value-regression gradient, in that expression
/// order. Throws std::invalid_argument on size mismatch.
void mse_grad_rows(std::span<const double> values,
                   std::span<const double> targets, double inv_n,
                   std::span<double> grad);

}  // namespace minicost::nn
