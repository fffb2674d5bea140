#include "obs/run_report.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

#ifndef MINICOST_GIT_SHA
#define MINICOST_GIT_SHA "unknown"
#endif
#ifndef MINICOST_BUILD_TYPE_NAME
#define MINICOST_BUILD_TYPE_NAME "unknown"
#endif
#ifndef MINICOST_SANITIZE_NAME
#define MINICOST_SANITIZE_NAME ""
#endif

namespace minicost::obs {
namespace {

std::string cpu_model_name() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

}  // namespace

std::string EnvFingerprint::comparable_key() const {
  std::ostringstream key;
  key << cpu << '|' << compiler << '|' << build_type << '|' << sanitize << '|'
      << seed << '|' << scale << '|' << threads;
  return key.str();
}

EnvFingerprint current_fingerprint() {
  EnvFingerprint env;
  env.git_sha = MINICOST_GIT_SHA;
  env.cpu = cpu_model_name();
  env.compiler = __VERSION__;
  env.build_type = MINICOST_BUILD_TYPE_NAME;
  env.sanitize = MINICOST_SANITIZE_NAME;
  env.seed = util::bench_seed();
  env.scale = util::env_int("MINICOST_SCALE", 0);
  env.threads = static_cast<std::uint32_t>(util::hardware_threads());
  return env;
}

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is KiB on Linux
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

RunReport make_report(std::string name) {
  RunReport report;
  report.name = std::move(name);
  report.env = current_fingerprint();
  report.counters = Registry::global().counters();
  report.timers = Registry::global().timers();
  report.rss_mib = peak_rss_mib();
  return report;
}

std::string to_json(const RunReport& report) {
  std::ostringstream out;
  out << "{\"schema\":" << RunReport::kSchemaVersion
      << ",\"bench\":" << json::quote(report.name) << ",\"env\":{"
      << "\"git_sha\":" << json::quote(report.env.git_sha)
      << ",\"cpu\":" << json::quote(report.env.cpu)
      << ",\"compiler\":" << json::quote(report.env.compiler)
      << ",\"build_type\":" << json::quote(report.env.build_type)
      << ",\"sanitize\":" << json::quote(report.env.sanitize)
      << ",\"seed\":" << report.env.seed << ",\"scale\":" << report.env.scale
      << ",\"threads\":" << report.env.threads << "}";
  out << ",\"peak_rss_mib\":" << json::number(report.rss_mib);

  out << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    if (i > 0) out << ',';
    out << json::quote(report.metrics[i].first) << ':'
        << json::number(report.metrics[i].second);
  }
  out << "}";

  out << ",\"counters\":{";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    if (i > 0) out << ',';
    out << json::quote(report.counters[i].name) << ':'
        << report.counters[i].value;
  }
  out << "}";

  out << ",\"timers\":{";
  for (std::size_t i = 0; i < report.timers.size(); ++i) {
    if (i > 0) out << ',';
    const TimerStats& stats = report.timers[i].stats;
    out << json::quote(report.timers[i].name) << ":{\"count\":" << stats.count
        << ",\"total_ns\":" << stats.total_ns
        << ",\"min_ns\":" << stats.min_ns << ",\"max_ns\":" << stats.max_ns
        << ",\"buckets\":[";
    for (std::size_t b = 0; b < stats.buckets.size(); ++b) {
      if (b > 0) out << ',';
      out << stats.buckets[b];
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

RunReport report_from_json(std::string_view text) {
  const json::Value root = json::Value::parse(text);
  const std::uint64_t schema = root.at("schema").as_u64();
  if (schema != RunReport::kSchemaVersion)
    throw std::runtime_error(
        "run report schema version " + std::to_string(schema) +
        " is not the supported version " +
        std::to_string(RunReport::kSchemaVersion));

  RunReport report;
  report.name = root.at("bench").as_string();
  const json::Value& env = root.at("env");
  report.env.git_sha = env.at("git_sha").as_string();
  report.env.cpu = env.at("cpu").as_string();
  report.env.compiler = env.at("compiler").as_string();
  report.env.build_type = env.at("build_type").as_string();
  report.env.sanitize = env.at("sanitize").as_string();
  report.env.seed = env.at("seed").as_u64();
  report.env.scale = env.at("scale").as_i64();
  report.env.threads = static_cast<std::uint32_t>(env.at("threads").as_u64());
  report.rss_mib = root.at("peak_rss_mib").as_double();

  for (const auto& [name, value] : root.at("metrics").members())
    report.metrics.emplace_back(name, value.as_double());
  for (const auto& [name, value] : root.at("counters").members())
    report.counters.push_back({name, value.as_u64()});
  for (const auto& [name, value] : root.at("timers").members()) {
    Registry::TimerSnapshot snapshot;
    snapshot.name = name;
    snapshot.stats.count = value.at("count").as_u64();
    snapshot.stats.total_ns = value.at("total_ns").as_u64();
    snapshot.stats.min_ns = value.at("min_ns").as_u64();
    snapshot.stats.max_ns = value.at("max_ns").as_u64();
    const auto& buckets = value.at("buckets").items();
    if (buckets.size() != TimerStats::kBucketCount)
      throw std::runtime_error("run report timer '" + name + "' has " +
                               std::to_string(buckets.size()) +
                               " buckets; expected " +
                               std::to_string(TimerStats::kBucketCount));
    for (std::size_t b = 0; b < buckets.size(); ++b)
      snapshot.stats.buckets[b] = buckets[b].as_u64();
    report.timers.push_back(std::move(snapshot));
  }
  return report;
}

std::filesystem::path write_report(const RunReport& report,
                                   const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::filesystem::path target = dir / (report.name + ".json");

  if (std::filesystem::exists(target)) {
    bool comparable = false;
    try {
      std::ifstream in(target);
      std::ostringstream existing;
      existing << in.rdbuf();
      const RunReport previous = report_from_json(existing.str());
      comparable = previous.env.comparable_key() ==
                   report.env.comparable_key();
    } catch (const std::exception&) {
      comparable = false;  // unreadable/foreign file: do not clobber it
    }
    if (!comparable) {
      for (std::size_t k = 1;; ++k) {
        std::filesystem::path versioned =
            dir / (report.name + "." + std::to_string(k) + ".json");
        if (!std::filesystem::exists(versioned)) {
          target = std::move(versioned);
          break;
        }
      }
    }
  }

  std::ofstream out(target);
  if (!out)
    throw std::runtime_error("cannot write run report: " + target.string());
  out << to_json(report) << "\n";
  return target;
}

}  // namespace minicost::obs
