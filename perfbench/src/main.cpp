// The MiniCost benchmark: one workload per process.
//
//   minicost_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --work-dir DIR [--smoke] [--perturb-bill]
//
// Workloads: plan-greedy, plan-minicost, replan-serve, train-a3c (see
// perfbench/README.md). --trace 0 measures the end-to-end metrics on
// untraced runs; --trace 1 measures the per-layer metrics on a traced
// rebuild of the same pipeline. Every run checks the program's outputs.
//
// The last line of stdout is the result:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"NAME": {"value": V, "unit": "U"}, ...}}
// and the line before it records the run's context (thread count T, nproc,
// input sizes, sample counts). Exit status is 0 when every check passed,
// 1 when one failed, 2 on a usage error.
//
// The benchmark owns the only thread pool: T = min(4, nproc) threads, passed
// to every planning call and used as the trainer's worker count. After the
// workload it counts the process's threads and fails the run if any thread
// beyond that pool exists, which is how it proves util::ThreadPool::shared()
// (sized by the hardware, with no override) was never spawned.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>

#include "outcome.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

constexpr std::size_t kMaxThreads = 4;

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1U, std::thread::hardware_concurrency());
}

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return error == std::errc() && end == text.data() + text.size();
}

bool parse_args(int argc, char** argv, RunConfig& config) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (flag == "--perturb-bill") {
      config.perturb_bill = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, config.seed)) return false;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600)
        return false;
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && !config.work_dir.empty();
}

void print_json_string(std::string_view text) {
  std::printf("\"%.*s\"", static_cast<int>(text.size()), text.data());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!parse_args(argc, argv, config) ||
      (config.workload != "plan-greedy" && config.workload != "plan-minicost" &&
       config.workload != "replan-serve" && config.workload != "train-a3c")) {
    std::cerr << "usage: minicost_perfbench --workload "
                 "plan-greedy|plan-minicost|replan-serve|train-a3c --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--smoke] "
                 "[--perturb-bill]\n";
    return 2;
  }
  std::filesystem::create_directories(config.work_dir);

  const std::size_t nproc = online_cpus();
  const std::size_t threads = std::min(kMaxThreads, nproc);
  Outcome out;
  {
    minicost::util::ThreadPool pool(threads);
    const std::size_t baseline = thread_count();  // main + the pool
    try {
      if (config.workload == "plan-greedy") {
        perfbench::run_plan(config, /*minicost=*/false, pool, out);
      } else if (config.workload == "plan-minicost") {
        perfbench::run_plan(config, /*minicost=*/true, pool, out);
      } else if (config.workload == "replan-serve") {
        perfbench::run_replan(config, pool, out);
      } else {
        perfbench::run_train(config, pool, out);
      }
    } catch (const std::exception& error) {
      out.check(false, std::string("exception: ") + error.what());
    }
    out.check(thread_count() == baseline,
              "no threads beyond the benchmark's pool (shared pool unused)");
  }
  if (!config.trace) out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.note("threads", static_cast<double>(threads));
  out.note("nproc", static_cast<double>(nproc));

  std::printf("{\"workload\": ");
  print_json_string(config.workload);
  std::printf(", \"seed\": %llu, \"trace\": %d",
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0);
  for (const auto& [key, value] : out.context) {
    std::printf(", ");
    print_json_string(key);
    std::printf(": %.17g", value);
  }
  std::printf("}\n");

  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s", i == 0 ? "" : ", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
