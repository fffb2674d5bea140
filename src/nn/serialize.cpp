#include "nn/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"

namespace minicost::nn {
namespace {

constexpr const char* kMagic = "minicost-network";
constexpr int kVersion = 1;

std::unique_ptr<Layer> layer_from_spec(const std::string& spec) {
  std::istringstream in(spec);
  std::string kind;
  in >> kind;
  // Weight values are replaced right after construction, so the init RNG is
  // irrelevant; a fixed seed keeps construction deterministic anyway.
  util::Rng rng(1);
  if (kind == "dense") {
    std::size_t input = 0, output = 0;
    in >> input >> output;
    if (!in) throw std::runtime_error("load_network: bad dense spec: " + spec);
    return std::make_unique<Dense>(input, output, rng);
  }
  if (kind == "conv1d") {
    std::size_t input = 0, prefix = 0, filters = 0, kernel = 0;
    in >> input >> prefix >> filters >> kernel;
    if (!in) throw std::runtime_error("load_network: bad conv1d spec: " + spec);
    return std::make_unique<Conv1DOverPrefix>(input, prefix, filters, kernel, rng);
  }
  if (kind == "relu") {
    std::size_t size = 0;
    in >> size;
    if (!in) throw std::runtime_error("load_network: bad relu spec: " + spec);
    return std::make_unique<Relu>(size);
  }
  throw std::runtime_error("load_network: unknown layer kind: " + kind);
}

}  // namespace

void save_network(const Network& net, std::ostream& out) {
  out << kMagic << ' ' << kVersion << '\n';
  out << net.layer_count() << '\n';
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    out << net.layer(i).spec() << '\n';
  const std::vector<double> params = net.snapshot_parameters();
  out << params.size() << '\n';
  out << std::setprecision(17);
  for (std::size_t i = 0; i < params.size(); ++i) {
    out << params[i] << (i + 1 == params.size() ? '\n' : ' ');
  }
}

void save_network(const Network& net, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_network: cannot open " + path.string());
  save_network(net, out);
}

Network load_network(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != kMagic || version != kVersion)
    throw std::runtime_error("load_network: bad header");
  std::size_t layers = 0;
  in >> layers;
  in.ignore();  // rest of line
  Network net;
  for (std::size_t i = 0; i < layers; ++i) {
    std::string spec;
    if (!std::getline(in, spec))
      throw std::runtime_error("load_network: truncated layer specs");
    net.add(layer_from_spec(spec));
  }
  std::size_t count = 0;
  in >> count;
  if (count != net.parameter_count())
    throw std::runtime_error("load_network: parameter count mismatch");
  std::vector<double> params(count);
  for (double& value : params) {
    if (!(in >> value)) throw std::runtime_error("load_network: truncated params");
  }
  net.load_parameters(params);
  return net;
}

Network load_network(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_network: cannot open " + path.string());
  return load_network(in);
}

}  // namespace minicost::nn
