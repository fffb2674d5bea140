#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "nn/activation.hpp"
#include "nn/dense.hpp"

namespace minicost::nn {
namespace {

TEST(SerializeTest, RoundTripsTrunkNetwork) {
  util::Rng rng(1);
  Network net = build_trunk(14, 12, 8, 4, 16, 3, rng);
  std::stringstream buffer;
  save_network(net, buffer);
  Network loaded = load_network(buffer);

  EXPECT_EQ(loaded.parameter_count(), net.parameter_count());
  const std::vector<double> input(26, 0.3);
  const auto a = net.forward_batch(input, 1);
  const auto b = loaded.forward_batch(input, 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// Dense -> Relu -> Dense, `in` -> `hidden` -> `out`.
Network mlp(std::size_t in, std::size_t hidden, std::size_t out,
            util::Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(in, hidden, rng));
  net.add(std::make_unique<Relu>(hidden));
  net.add(std::make_unique<Dense>(hidden, out, rng));
  return net;
}

TEST(SerializeTest, RoundTripsMlp) {
  util::Rng rng(2);
  Network net = mlp(5, 8, 2, rng);
  std::stringstream buffer;
  save_network(net, buffer);
  Network loaded = load_network(buffer);
  const std::vector<double> input{0.1, -0.5, 0.3, 0.9, -0.2};
  EXPECT_EQ(net.forward_batch(input, 1), loaded.forward_batch(input, 1));
}

TEST(SerializeTest, FileRoundTrip) {
  util::Rng rng(3);
  Network net = mlp(3, 4, 1, rng);
  const auto path = std::filesystem::temp_directory_path() /
                    ("minicost_net_" + std::to_string(::getpid()) + ".txt");
  save_network(net, path);
  Network loaded = load_network(path);
  const std::vector<double> input{1.0, 2.0, 3.0};
  EXPECT_EQ(net.forward_batch(input, 1), loaded.forward_batch(input, 1));
  std::filesystem::remove(path);
}

TEST(SerializeTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-network 1\n0\n0\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(SerializeTest, RejectsTruncatedParams) {
  util::Rng rng(4);
  Network net;
  net.add(std::make_unique<Dense>(2, 2, rng));
  std::stringstream buffer;
  save_network(net, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_network(truncated), std::runtime_error);
}

TEST(SerializeTest, RejectsUnknownLayerKind) {
  for (const char* kind : {"warp", "tanh"}) {
    std::stringstream buffer(std::string("minicost-network 1\n1\n") + kind +
                             " 3\n0\n");
    EXPECT_THROW(load_network(buffer), std::runtime_error) << kind;
  }
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_network(std::filesystem::path("/no/such/net.txt")),
               std::runtime_error);
}

}  // namespace
}  // namespace minicost::nn
