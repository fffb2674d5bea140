#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "reference.hpp"

namespace minicost::nn {
namespace {

// The accumulated gradients as a flat vector; zeroes the accumulators.
std::vector<double> take_gradients(Network& net) {
  std::vector<double> grads(net.parameter_count());
  net.collect_gradients(grads);
  return grads;
}

Network tiny_net(util::Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(3, 4, rng));
  net.add(std::make_unique<Relu>(4));
  net.add(std::make_unique<Dense>(4, 2, rng));
  return net;
}

// The deployed actor/critic geometry (14-day history + 14 aux, Conv 32x4,
// hidden 32, 3 outputs), so the 32-wide tiles the planner runs are
// bit-compared. Conv filter 0 (weights made positive, bias -0.0) and hidden
// neuron 0 (weights made negative, bias -0.0) reach a pre-activation of
// exactly -0.0 on an all -0.0 row, and +0.0 on an all +0.0 row, so both
// fused ReLUs meet both signs of zero. Output 0 (weights made negative,
// bias -0.0) is -0.0 only if every hidden ReLU stored +0.0, which makes a
// wrong sign of zero from the hidden layer's fused store visible in the
// output; the conv's is masked by the hidden ReLU and is pinned by
// Conv1DTest.ForwardBatchReluMatchesForwardThenRelu instead.
Network deployed_trunk() {
  constexpr std::size_t kHistory = 14, kAux = 14, kFilters = 32, kKernel = 4,
                        kHidden = 32;
  util::Rng rng(27);
  Network net = build_trunk(kHistory, kAux, kFilters, kKernel, kHidden, 3, rng);
  std::vector<double> params = net.snapshot_parameters();
  for (std::size_t k = 0; k < kKernel; ++k) params[k] = std::abs(params[k]);
  params[kFilters * kKernel] = -0.0;
  const std::size_t hidden = kFilters * kKernel + kFilters;
  const std::size_t hidden_in = net.layer(2).input_size();
  for (std::size_t i = 0; i < hidden_in; ++i)
    params[hidden + i] = -std::abs(params[hidden + i]);
  params[hidden + kHidden * hidden_in] = -0.0;
  const std::size_t output = hidden + kHidden * hidden_in + kHidden;
  for (std::size_t i = 0; i < kHidden; ++i)
    params[output + i] = -std::abs(params[output + i]);
  params[output + 3 * kHidden] = -0.0;
  net.load_parameters(params);
  return net;
}

// `batch` rows of `width`: rows 0, 1, 2 and 3 of every 8 are all -0.0, all
// +0.0, all -1.0, and random with a NaN in the history and in the aux
// features; the rest are uniform in [-1, 1].
std::vector<double> edge_rows(std::size_t width, std::size_t batch,
                              util::Rng& data) {
  std::vector<double> rows(batch * width);
  for (std::size_t b = 0; b < batch; ++b) {
    double* row = rows.data() + b * width;
    for (std::size_t i = 0; i < width; ++i) {
      switch (b % 8) {
        case 0: row[i] = -0.0; break;
        case 1: row[i] = 0.0; break;
        case 2: row[i] = -1.0; break;
        default: row[i] = data.uniform(-1.0, 1.0);
      }
    }
    if (b % 8 == 3) {
      row[5] = std::numeric_limits<double>::quiet_NaN();
      row[width - 1] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return rows;
}

// Number of elements of `batched` whose bits differ from the reference
// forward on the matching row of `input` (a sign of zero counts).
std::size_t mismatches_vs_forward(const Network& net,
                                  const std::vector<double>& input,
                                  const std::vector<double>& batched,
                                  std::size_t batch) {
  const std::size_t in_w = net.input_size();
  const std::size_t out_w = net.output_size();
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const auto expected = reference::forward(
        net, std::span<const double>(input.data() + b * in_w, in_w));
    for (std::size_t o = 0; o < out_w; ++o)
      if (std::bit_cast<std::uint64_t>(batched[b * out_w + o]) !=
          std::bit_cast<std::uint64_t>(expected[o]))
        ++mismatches;
  }
  return mismatches;
}

TEST(NetworkTest, ShapesAndParameterCount) {
  util::Rng rng(1);
  Network net = tiny_net(rng);
  EXPECT_EQ(net.input_size(), 3u);
  EXPECT_EQ(net.output_size(), 2u);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.parameter_count(), (3u * 4 + 4) + (4u * 2 + 2));
}

TEST(NetworkTest, AddRejectsShapeMismatch) {
  util::Rng rng(2);
  Network net;
  net.add(std::make_unique<Dense>(3, 4, rng));
  EXPECT_THROW(net.add(std::make_unique<Dense>(5, 2, rng)),
               std::invalid_argument);
}

TEST(NetworkTest, ForwardValidatesInputSize) {
  // The one-row forward that policy_probabilities() and value() run.
  util::Rng rng(3);
  Network net = tiny_net(rng);
  EXPECT_THROW(net.forward_batch(std::vector<double>{1.0}, 1),
               std::invalid_argument);
}

TEST(NetworkTest, SnapshotLoadRoundTrip) {
  util::Rng rng(4);
  Network net = tiny_net(rng);
  const std::vector<double> input{0.5, -0.2, 1.0};
  const auto before = net.forward_batch(input, 1);
  const auto params = net.snapshot_parameters();

  Network other = tiny_net(rng);  // different random weights
  other.load_parameters(params);
  const auto after = other.forward_batch(input, 1);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(NetworkTest, LoadRejectsWrongSize) {
  util::Rng rng(5);
  Network net = tiny_net(rng);
  EXPECT_THROW(net.load_parameters(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(NetworkTest, CopyIsDeep) {
  util::Rng rng(6);
  Network net = tiny_net(rng);
  Network copy = net;
  auto params = copy.snapshot_parameters();
  params[0] += 100.0;
  copy.load_parameters(params);
  EXPECT_NE(net.snapshot_parameters()[0], copy.snapshot_parameters()[0]);
}

TEST(NetworkTest, CollectGradientsZeroAfterFlagWorks) {
  util::Rng rng(7);
  Network net = tiny_net(rng);
  net.forward_batch_train(std::vector<double>{1.0, 1.0, 1.0}, 1);
  net.backward_batch(std::vector<double>{1.0, 1.0}, 1);
  const auto grads = take_gradients(net);
  EXPECT_EQ(grads.size(), net.parameter_count());
  double nonzero = 0.0;
  for (double g : grads) nonzero += std::abs(g);
  EXPECT_GT(nonzero, 0.0);
  const auto after = take_gradients(net);
  for (double g : after) EXPECT_DOUBLE_EQ(g, 0.0);
}

// Accumulates one batched backward pass of random rows into `net`.
void accumulate_random_gradients(Network& net, std::uint64_t seed) {
  util::Rng data(seed);
  const std::size_t batch = 5;
  std::vector<double> input(batch * net.input_size());
  std::vector<double> grad_rows(batch * net.output_size());
  for (double& v : input) v = data.normal(0.0, 1.0);
  for (double& v : grad_rows) v = data.uniform(-3.0, 3.0);
  net.forward_batch_train(input, batch);
  net.backward_batch(grad_rows, batch);
}

TEST(NetworkTest, CollectGradientsReturnsTheClipsSumOfSquares) {
  // The pass that moves the gradients out also sums their squares in
  // ascending order: the same bits l2_norm squares, so the clip given that
  // sum writes exactly what clip_by_global_norm writes. The pair form runs
  // two such chains in one loop over networks of different shapes (an
  // actor-critic pair, and an MLP against a conv trunk with more layers)
  // and must match two separate collects bit for bit.
  util::Rng rng(31);
  const Network actor_proto = build_trunk(14, 12, 16, 4, 16, 3, rng);
  const Network critic_proto = build_trunk(14, 12, 16, 4, 16, 1, rng);
  Network mlp_proto;
  mlp_proto.add(std::make_unique<Dense>(26, 7, rng));
  mlp_proto.add(std::make_unique<Relu>(7));
  mlp_proto.add(std::make_unique<Dense>(7, 5, rng));
  mlp_proto.add(std::make_unique<Relu>(5));
  mlp_proto.add(std::make_unique<Dense>(5, 1, rng));
  const std::pair<const Network*, const Network*> pairs[] = {
      {&actor_proto, &critic_proto},
      {&mlp_proto, &actor_proto},
      {&actor_proto, &mlp_proto},
  };
  std::uint64_t seed = 40;
  for (const auto& [first_proto, second_proto] : pairs) {
    Network first = *first_proto, second = *second_proto;
    Network first_ref = *first_proto, second_ref = *second_proto;
    for (Network* net : {&first, &first_ref}) accumulate_random_gradients(*net, seed);
    for (Network* net : {&second, &second_ref})
      accumulate_random_gradients(*net, seed + 1);
    seed += 2;

    std::vector<double> first_out(first.parameter_count());
    std::vector<double> second_out(second.parameter_count());
    const auto sums =
        Network::collect_gradients(first, first_out, second, second_out);
    std::vector<double> first_want(first_ref.parameter_count());
    std::vector<double> second_want(second_ref.parameter_count());
    const double first_sum = first_ref.collect_gradients(first_want);
    const double second_sum = second_ref.collect_gradients(second_want);

    EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[0]),
              std::bit_cast<std::uint64_t>(first_sum));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[1]),
              std::bit_cast<std::uint64_t>(second_sum));
    EXPECT_EQ(first_out, first_want);
    EXPECT_EQ(second_out, second_want);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::sqrt(first_sum)),
              std::bit_cast<std::uint64_t>(l2_norm(first_want)));
    for (Network* net : {&first, &second}) {
      for (const double g : take_gradients(*net)) EXPECT_EQ(g, 0.0);
    }

    for (const double max_norm : {0.5, 1e9}) {
      std::vector<double> clipped = first_want;
      std::vector<double> reference = first_want;
      clip_by_norm_squared(clipped, first_sum, max_norm);
      clip_by_global_norm(reference, max_norm);
      ASSERT_EQ(clipped.size(), reference.size());
      for (std::size_t i = 0; i < clipped.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(clipped[i]),
                  std::bit_cast<std::uint64_t>(reference[i]))
            << "max_norm " << max_norm << " element " << i;
    }
  }
}

TEST(NetworkTest, CollectGradientsRejectsWrongBufferSize) {
  util::Rng rng(32);
  Network a = tiny_net(rng);
  Network b = tiny_net(rng);
  std::vector<double> short_buf(a.parameter_count() - 1);
  std::vector<double> right(a.parameter_count());
  EXPECT_THROW(a.collect_gradients(short_buf), std::invalid_argument);
  EXPECT_THROW(Network::collect_gradients(a, right, b, short_buf),
               std::invalid_argument);
  EXPECT_THROW(Network::collect_gradients(a, short_buf, b, right),
               std::invalid_argument);
}

TEST(NetworkTest, ForwardBatchMatchesPerRowForwardExactly) {
  util::Rng rng(13);
  Network net = tiny_net(rng);
  util::Rng data(14);
  // B=1, a small batch, and one that is not a multiple of any chunk width.
  for (const std::size_t batch : {1u, 5u, 17u}) {
    std::vector<double> input(batch * net.input_size());
    for (double& v : input) v = data.normal(0.0, 1.0);
    const auto batched = net.forward_batch(input, batch);
    ASSERT_EQ(batched.size(), batch * net.output_size());
    for (std::size_t b = 0; b < batch; ++b) {
      const auto expected = reference::forward(
          net, std::span<const double>(input.data() + b * net.input_size(),
                                       net.input_size()));
      for (std::size_t o = 0; o < expected.size(); ++o) {
        // 0 ULP: the batch kernel keeps the reference accumulation order.
        EXPECT_EQ(batched[b * net.output_size() + o], expected[o])
            << "batch=" << batch << " row=" << b << " out=" << o;
      }
    }
  }
}

TEST(NetworkTest, ForwardBatchMatchesPerRowThroughConvTrunk) {
  util::Rng rng(15);
  Network net = build_trunk(14, 12, 16, 4, 16, 3, rng);
  util::Rng data(16);
  const std::size_t batch = 7;
  std::vector<double> input(batch * net.input_size());
  for (double& v : input) v = data.uniform(-1.0, 1.0);
  const auto batched = net.forward_batch(input, batch);
  EXPECT_EQ(mismatches_vs_forward(net, input, batched, batch), 0u);

  // The deployed geometry on edge rows, through the fused-ReLU stores.
  Network deployed = deployed_trunk();
  for (const std::size_t rows : {1u, 3u, 4u, 5u, 14u, 256u, 257u}) {
    const auto deployed_input = edge_rows(deployed.input_size(), rows, data);
    const auto deployed_out = deployed.forward_batch(deployed_input, rows);
    EXPECT_EQ(mismatches_vs_forward(deployed, deployed_input, deployed_out, rows),
              0u)
        << "batch=" << rows;
  }
}

TEST(NetworkTest, ForwardBatchDuplicateRowsProduceByteIdenticalOutputs) {
  // Row independence (DESIGN.md §7): a row's output depends only on its
  // bytes, never on its batch position or neighbours — duplicated rows must
  // come out bit-equal at every batch size.
  util::Rng rng(21);
  Network net = build_trunk(14, 12, 16, 4, 16, 3, rng);
  util::Rng data(22);
  std::vector<double> unique_rows(3 * net.input_size());
  for (double& v : unique_rows) v = data.normal(0.0, 1.0);
  for (const std::size_t batch : {1u, 2u, 64u}) {
    std::vector<double> input(batch * net.input_size());
    for (std::size_t b = 0; b < batch; ++b)
      std::copy_n(unique_rows.begin() +
                      static_cast<std::ptrdiff_t>((b % 3) * net.input_size()),
                  net.input_size(),
                  input.begin() + static_cast<std::ptrdiff_t>(b * net.input_size()));
    const auto out = net.forward_batch(input, batch);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t o = 0; o < net.output_size(); ++o)
        EXPECT_EQ(out[b * net.output_size() + o],
                  out[(b % 3) * net.output_size() + o])
            << "batch=" << batch << " row=" << b << " out=" << o;
  }
}

TEST(NetworkTest, ForwardBatchPermutedRowsPermuteTheOutputs) {
  util::Rng rng(24);
  Network net = build_trunk(14, 12, 16, 4, 16, 3, rng);
  util::Rng data(25);
  for (const std::size_t batch : {1u, 2u, 64u}) {
    std::vector<double> input(batch * net.input_size());
    for (double& v : input) v = data.uniform(-1.0, 1.0);
    std::vector<double> reversed(input.size());
    for (std::size_t b = 0; b < batch; ++b)
      std::copy_n(
          input.begin() + static_cast<std::ptrdiff_t>(b * net.input_size()),
          net.input_size(),
          reversed.begin() +
              static_cast<std::ptrdiff_t>((batch - 1 - b) * net.input_size()));
    const auto forward = net.forward_batch(input, batch);
    const auto backward = net.forward_batch(reversed, batch);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t o = 0; o < net.output_size(); ++o)
        EXPECT_EQ(backward[(batch - 1 - b) * net.output_size() + o],
                  forward[b * net.output_size() + o])
            << "batch=" << batch << " row=" << b << " out=" << o;
  }
}

TEST(NetworkTest, ForwardBatchValidatesInputSize) {
  util::Rng rng(17);
  Network net = tiny_net(rng);
  EXPECT_THROW(net.forward_batch(std::vector<double>(7, 0.0), 2),
               std::invalid_argument);
}

TEST(NetworkTest, ForwardBatchTrainMatchesPerRowForwardExactly) {
  util::Rng rng(18);
  Network net = build_trunk(14, 12, 16, 4, 16, 3, rng);
  util::Rng data(19);
  const std::size_t batch = 5;
  std::vector<double> input(batch * net.input_size());
  for (double& v : input) v = data.uniform(-1.0, 1.0);
  const auto batched = net.forward_batch_train(input, batch);
  ASSERT_EQ(batched.size(), batch * net.output_size());
  EXPECT_EQ(mismatches_vs_forward(net, input, batched, batch), 0u);

  // The deployed geometry on edge rows; the training path never fuses.
  Network deployed = deployed_trunk();
  for (const std::size_t rows : {1u, 3u, 4u, 5u, 14u, 256u, 257u}) {
    const auto deployed_input = edge_rows(deployed.input_size(), rows, data);
    const auto deployed_out = deployed.forward_batch_train(deployed_input, rows);
    EXPECT_EQ(mismatches_vs_forward(deployed, deployed_input, deployed_out, rows),
              0u)
        << "batch=" << rows;
  }
}

TEST(NetworkTest, BackwardBatchBitIdenticalToSequentialScalar) {
  // Full conv trunk (the actor/critic architecture). The batched pass must
  // accumulate exactly the gradients of the reference forward + backward
  // per row in ascending row order, 0 ULP. So must the trainer's
  // rollout-stash arming: per-row forward_train_row() (each returned row
  // equal to the reference forward), then backward_batch.
  for (const std::size_t batch : {1u, 2u, 14u, 64u}) {
    util::Rng rng_a(23), rng_b(23);
    Network batched = build_trunk(14, 12, 16, 4, 16, 3, rng_a);
    Network stashed = build_trunk(14, 12, 16, 4, 16, 3, rng_b);
    util::Rng data(500 + batch);
    std::vector<double> input(batch * batched.input_size());
    std::vector<double> grad_rows(batch * batched.output_size());
    for (double& v : input) v = data.normal(0.0, 1.0);
    for (double& v : grad_rows) v = data.uniform(-1.0, 1.0);

    batched.forward_batch_train(input, batch);
    batched.backward_batch(grad_rows, batch);
    const auto grads_batched = take_gradients(batched);

    const std::size_t in_w = batched.input_size();
    const std::size_t out_w = batched.output_size();
    std::vector<double> grads_reference(batched.parameter_count(), 0.0);
    for (std::size_t b = 0; b < batch; ++b)
      reference::backward(
          batched, std::span<const double>(input.data() + b * in_w, in_w),
          std::span<const double>(grad_rows.data() + b * out_w, out_w),
          grads_reference);

    stashed.begin_train_batch();
    for (std::size_t b = 0; b < batch; ++b) {
      const std::span<const double> row(input.data() + b * in_w, in_w);
      const auto row_out = stashed.forward_train_row(row);
      const auto expected = reference::forward(stashed, row);
      ASSERT_EQ(row_out.size(), out_w);
      for (std::size_t o = 0; o < out_w; ++o)
        EXPECT_EQ(row_out[o], expected[o])
            << "batch=" << batch << " row " << b << " out " << o;
    }
    stashed.backward_batch(grad_rows, batch);
    const auto grads_stashed = take_gradients(stashed);

    ASSERT_EQ(grads_batched.size(), grads_reference.size());
    ASSERT_EQ(grads_stashed.size(), grads_reference.size());
    for (std::size_t i = 0; i < grads_batched.size(); ++i) {
      EXPECT_EQ(grads_batched[i], grads_reference[i])
          << "batch=" << batch << " grad " << i;
      EXPECT_EQ(grads_stashed[i], grads_reference[i])
          << "batch=" << batch << " stashed grad " << i;
    }
  }
}

TEST(NetworkTest, BackwardBatchAccumulatesAcrossCalls) {
  // Two batched passes must accumulate exactly like four sequential
  // reference forward + backward rounds (accumulators are never reset in
  // between).
  util::Rng rng(24);
  Network batched = tiny_net(rng);
  const std::size_t batch = 2;
  util::Rng data(25);
  std::vector<double> input(batch * batched.input_size());
  std::vector<double> grad_rows(batch * batched.output_size(), 1.0);
  for (double& v : input) v = data.normal(0.0, 1.0);

  std::vector<double> want(batched.parameter_count(), 0.0);
  const std::size_t in_w = batched.input_size();
  const std::size_t out_w = batched.output_size();
  for (int pass = 0; pass < 2; ++pass) {
    batched.forward_batch_train(input, batch);
    batched.backward_batch(grad_rows, batch);
    for (std::size_t b = 0; b < batch; ++b)
      reference::backward(
          batched, std::span<const double>(input.data() + b * in_w, in_w),
          std::span<const double>(grad_rows.data() + b * out_w, out_w), want);
  }
  const auto got = take_gradients(batched);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(NetworkTest, BackwardBatchRequiresMatchingForward) {
  util::Rng rng(26);
  Network net = tiny_net(rng);
  std::vector<double> grad_rows(2 * net.output_size(), 1.0);
  EXPECT_THROW(net.backward_batch(grad_rows, 2), std::logic_error);
  std::vector<double> input(3 * net.input_size(), 0.5);
  net.forward_batch_train(input, 3);
  EXPECT_THROW(net.backward_batch(grad_rows, 2), std::logic_error);
}

TEST(NetworkTest, ForwardTrainRowRequiresStashAndInputWidth) {
  util::Rng rng(28);
  Network net = tiny_net(rng);
  std::vector<double> row(net.input_size(), 0.5);
  EXPECT_THROW(net.forward_train_row(row), std::logic_error);
  net.begin_train_batch();
  std::vector<double> wide(net.input_size() + 1, 0.5);
  EXPECT_THROW(net.forward_train_row(wide), std::invalid_argument);
  EXPECT_EQ(net.forward_train_row(row).size(), net.output_size());
  // One stashed row arms a one-row backward_batch, and nothing else.
  std::vector<double> grad_rows(2 * net.output_size(), 1.0);
  EXPECT_THROW(net.backward_batch(grad_rows, 2), std::logic_error);
  EXPECT_NO_THROW(net.backward_batch(
      std::span<const double>(grad_rows).first(net.output_size()), 1));
}

TEST(NetworkTest, ForwardBatchSeesEveryParameterWrite) {
  // Dense keeps its transposed weights for forward_batch() between
  // parameter writes. After each write path — writes through parameters(),
  // load_parameters, load_network, and a copy or clone of a layer whose
  // transpose is current, written afterwards — the next forward_batch()
  // must run on the new weights: bit-identical to the reference, which
  // reads them directly. Each check is preceded by a forward_batch() that
  // builds the transpose for the old weights.
  const auto layer_mismatches = [](Layer& layer,
                                   const std::vector<double>& rows,
                                   std::size_t batch) {
    const std::size_t in_w = layer.input_size();
    const std::size_t out_w = layer.output_size();
    std::vector<double> batched(batch * out_w);
    layer.forward_batch(rows, batched, batch);
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto expected = reference::forward(
          layer, std::span<const double>(rows.data() + b * in_w, in_w));
      for (std::size_t o = 0; o < out_w; ++o)
        if (std::bit_cast<std::uint64_t>(batched[b * out_w + o]) !=
            std::bit_cast<std::uint64_t>(expected[o]))
          ++mismatches;
    }
    return mismatches;
  };
  const std::pair<std::size_t, std::size_t> widths[] = {{366, 32}, {65, 33}};
  for (const auto& [in, out] : widths) {
    SCOPED_TRACE("dense " + std::to_string(in) + " " + std::to_string(out));
    util::Rng rng(40 + in);
    const std::size_t batch = 5;
    std::vector<double> rows(batch * in);
    for (double& v : rows) v = rng.uniform(-1.0, 1.0);

    Dense layer(in, out, rng);
    EXPECT_EQ(layer_mismatches(layer, rows, batch), 0u);
    for (double& w : layer.parameters()) w = w * 0.5 + 0.125;
    EXPECT_EQ(layer_mismatches(layer, rows, batch), 0u) << "parameters()";

    Dense copy(layer);
    const std::unique_ptr<Layer> clone = layer.clone();
    for (double& w : copy.parameters()) w = -w;
    for (double& w : clone->parameters()) w += 0.25;
    EXPECT_EQ(layer_mismatches(copy, rows, batch), 0u) << "copy";
    EXPECT_EQ(layer_mismatches(*clone, rows, batch), 0u) << "clone()";
    EXPECT_EQ(layer_mismatches(layer, rows, batch), 0u) << "copied-from";

    // Network paths, through the fused Dense+Relu store as the trunk runs.
    const auto dense_relu = [&rng, in = in, out = out] {
      Network net;
      net.add(std::make_unique<Dense>(in, out, rng));
      net.add(std::make_unique<Relu>(out));
      return net;
    };
    Network net = dense_relu();
    const auto net_mismatches = [&] {
      return mismatches_vs_forward(net, rows, net.forward_batch(rows, batch),
                                   batch);
    };
    EXPECT_EQ(net_mismatches(), 0u);
    std::vector<double> flat = net.snapshot_parameters();
    for (double& w : flat) w = w * 0.5 - 0.125;
    net.load_parameters(flat);
    EXPECT_EQ(net_mismatches(), 0u) << "load_parameters";
    std::stringstream saved;
    save_network(dense_relu(), saved);
    net = load_network(saved);
    EXPECT_EQ(net_mismatches(), 0u) << "load_network";
    Network net_copy = net;
    for (double& w : flat) w = -w;
    net_copy.load_parameters(flat);
    std::swap(net, net_copy);
    EXPECT_EQ(net_mismatches(), 0u) << "Network copy";
  }
}

TEST(BuildTrunkTest, MatchesPaperArchitectureShapes) {
  util::Rng rng(10);
  // 14-day history + 12 aux, 128 filters of 4, 128 hidden (paper Sec. 6.1),
  // 3 outputs (tier logits).
  Network net = build_trunk(14, 12, 128, 4, 128, 3, rng);
  EXPECT_EQ(net.input_size(), 26u);
  EXPECT_EQ(net.output_size(), 3u);
  const auto out = net.forward_batch(std::vector<double>(26, 0.1), 1);
  EXPECT_EQ(out.size(), 3u);
}

}  // namespace
}  // namespace minicost::nn
