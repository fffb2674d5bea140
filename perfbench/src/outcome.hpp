#pragma once
// What one benchmark run reports: the operations attempted and failed, and
// the metrics it measured.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run facts printed on the line before the result (thread counts, input
  /// sizes, sample counts).
  std::vector<std::pair<std::string, double>> context;

  /// Counts one checked operation; `ok == false` marks it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, double value) {
    context.emplace_back(std::move(key), value);
  }
};

}  // namespace perfbench
