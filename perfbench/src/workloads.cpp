#include "workloads.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/plan_driver.hpp"
#include "core/rl_policy.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "pricing/policy.hpp"
#include "rl/a3c.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

using namespace minicost;
namespace fs = std::filesystem;

namespace {

// Every plan bills the last 35 days of a 62-day trace (the paper's
// two-month horizon).
constexpr std::size_t kDays = 62;
constexpr std::size_t kBilledDays = 35;
constexpr std::size_t kStartDay = kDays - kBilledDays;
constexpr std::size_t kPlanSetups = 3;
constexpr std::size_t kTrainSetups = 25;
constexpr double kHeldOutShare = 0.2;

struct Sizes {
  std::size_t greedy_files;
  std::size_t minicost_files;
  std::size_t replan_files;
  std::size_t replan_shard_files;
  std::size_t replan_max_touch;  ///< files one request marks dirty, at most
  std::size_t min_requests;
  std::size_t train_files;
  /// The training whose agent is billed: enough episodes for the default
  /// init racing ((init_candidates + 1) x candidate_probe_episodes).
  std::size_t train_episodes;
  /// The timed trainings: short, so that a run holds many of them.
  std::size_t train_timed_episodes;
  std::size_t train_timed_episodes_1t;
};

constexpr Sizes kFull{100'000, 10'000, 200'000, 4096, 256,
                      200,     2000,   24'000,  3000, 1000};
constexpr Sizes kSmoke{3000, 600, 3000, 512, 64, 20, 200, 120, 60, 30};

const pricing::PricingPolicy& prices() {
  static const pricing::PricingPolicy azure =
      pricing::PricingPolicy::azure_2020();
  return azure;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

trace::SyntheticConfig synthetic(std::size_t files, std::uint64_t seed) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = kDays;
  config.integral_counts = true;
  config.grouped_file_fraction = 0.0;
  config.seed = seed;
  return config;
}

store::WriterOptions delta_codec() {
  store::WriterOptions options;
  options.codec = "delta";
  return options;
}

/// Streams the synthetic trace into a delta-coded v2 .mct.
void pack_synthetic(const trace::SyntheticConfig& config,
                    const fs::path& path) {
  constexpr std::size_t kChunk = 16384;
  store::TraceWriter writer(path, config.days, delta_codec());
  for (std::size_t first = 0; first < config.file_count; first += kChunk)
    for (const trace::FileRecord& f : trace::generate_synthetic_files(
             config, first, std::min(kChunk, config.file_count - first)))
      writer.add_file(f.name, f.size_gb, f.reads, f.writes);
  writer.finish();
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// A timed operation and the untimed check that follows each run of it.
struct TimedLoop {
  TimedLoop() = default;
  TimedLoop(std::function<void()> op_, std::function<void()> verify_,
            std::size_t min_reps_)
      : op(std::move(op_)), verify(std::move(verify_)), min_reps(min_reps_) {}

  std::function<void()> op;
  std::function<void()> verify;
  std::size_t min_reps = 1;
  std::vector<double> samples;      ///< wall seconds per op
  std::vector<double> cpu_samples;  ///< process CPU seconds per op

  void step() {
    const util::Stopwatch watch;
    const double cpu = process_cpu_seconds();
    op();
    samples.push_back(watch.seconds());
    cpu_samples.push_back(process_cpu_seconds() - cpu);
    verify();
  }
};

/// Pins the calling thread to one CPU of its affinity mask, the next one on
/// each pin_next(), until release(). The 1-thread loops run all their work
/// on the calling thread, and each CPU's speed drifts on its own for seconds
/// at a time (a busy SMT sibling slows it), so spreading the samples over
/// every CPU keeps their median steady.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Alternates two loops op by op until each has its minimum samples and
/// another round would overrun `budget`. The machine's speed drifts by tens
/// of percent over seconds, so every timed metric is a median over many
/// short operations, and alternating lets both loops sample the whole run
/// window. With `rotation`, the second loop's ops run pinned (it is the
/// 1-thread loop).
void alternate(double budget, TimedLoop& first, TimedLoop& second,
               CpuRotation* rotation = nullptr) {
  const util::Stopwatch total;
  while (first.samples.size() < first.min_reps ||
         second.samples.size() < second.min_reps ||
         total.seconds() + first.samples.back() + second.samples.back() <=
             budget) {
    first.step();
    if (rotation != nullptr) rotation->pin_next();
    second.step();
    if (rotation != nullptr) rotation->release();
  }
}

void maybe_perturb(const RunConfig& config, sim::BillingReport& bill) {
  if (config.perturb_bill && bill.file_count() > 0)
    bill.charge(0, 0, sim::CostBreakdown{1e-9, 0.0, 0.0, 0.0});
}

std::unique_ptr<core::TieringPolicy> make_policy(bool minicost) {
  if (minicost) return core::make_rl_policy(core::RlPolicyOptions{});
  return std::make_unique<core::GreedyPolicy>();
}

core::PlanDriverOptions driver_options(util::ThreadPool& pool,
                                       std::size_t shard_files) {
  core::PlanDriverOptions options;
  options.shard_files = shard_files;
  options.start_day = kStartDay;
  options.pool = &pool;
  return options;
}

/// A packed store with a resident driver that has planned once.
struct Resident {
  std::unique_ptr<store::TraceReader> reader;
  std::unique_ptr<core::TieringPolicy> policy;
  std::unique_ptr<core::PlanDriver> driver;
  sim::BillingReport first_bill;

  void reset() {
    driver.reset();
    policy.reset();
    reader.reset();
  }
};

/// Packs the store, opens it, builds the policy and the driver, and runs the
/// first (cold) plan. Returns the set-up seconds.
double bring_up(const trace::SyntheticConfig& config, const fs::path& path,
                bool minicost, std::size_t shard_files, util::ThreadPool& pool,
                Resident& resident) {
  resident.reset();  // unmap the old store before the file is rewritten
  const util::Stopwatch watch;
  pack_synthetic(config, path);
  resident.reader = std::make_unique<store::TraceReader>(path);
  resident.policy = make_policy(minicost);
  resident.driver = std::make_unique<core::PlanDriver>(
      *resident.reader, prices(), *resident.policy,
      driver_options(pool, shard_files));
  resident.first_bill = resident.driver->run().report;
  return watch.seconds();
}

/// Grand total and tier changes of a bill, for cheap per-request checks.
struct BillDigest {
  sim::CostBreakdown total;
  std::uint64_t tier_changes = 0;

  explicit BillDigest(const sim::BillingReport& bill)
      : total(bill.grand_total()), tier_changes(bill.tier_changes()) {}
  bool operator==(const BillDigest& other) const {
    return std::memcmp(&total, &other.total, sizeof total) == 0 &&
           tier_changes == other.tier_changes;
  }
};

double optimal_cost(const store::TraceReader& reader, util::ThreadPool& pool,
                    std::size_t shard_files) {
  core::OptimalPolicy optimal;
  core::PlanDriver driver(reader, prices(), optimal,
                          driver_options(pool, shard_files));
  return driver.run().report.grand_total().total();
}

void add_cost_vs_optimal(Outcome& out, double policy_cost, double optimal) {
  // Both are simulator bills; Optimal's per-file sequences are exact minima,
  // so only rounding in a tie could put it above the policy.
  out.check(optimal <= policy_cost * (1.0 + 1e-12),
            "Optimal bill <= policy bill");
  out.add("cost_vs_optimal", policy_cost / optimal, "ratio");
}

// --- The per-layer ledger ---------------------------------------------------

/// Time accounting of the traced operations (op ids 1..n; op 0 holds the
/// spans outside any operation, such as opening the store).
struct Ledger {
  std::size_t ops = 0;
  std::vector<double> op_seconds;  ///< per op: wall minus verification
  double program_seconds = 0.0;    ///< sum of op_seconds
  double covered_seconds = 0.0;    ///< layer self time inside the ops
  std::map<std::string, double> layer_seconds;  ///< inclusive, inside ops
  double open_seconds = 0.0;
};

Ledger make_ledger(const Tracer& tracer, const std::vector<double>& op_walls) {
  Ledger ledger;
  ledger.ops = op_walls.size();
  std::vector<double> verify(op_walls.size() + 1, 0.0);
  std::vector<std::int64_t> child_ns(tracer.spans().size(), 0);
  for (const Span& s : tracer.spans())
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    const double seconds = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const std::string_view name = s.name;
    if (name == "store.open") ledger.open_seconds += seconds;
    if (s.op == 0 || s.op > ledger.ops) continue;
    if (name.starts_with("bench.")) {
      verify[s.op] += seconds;
      continue;
    }
    ledger.layer_seconds[s.name] += seconds;
    ledger.covered_seconds +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  for (std::size_t k = 0; k < op_walls.size(); ++k) {
    ledger.op_seconds.push_back(op_walls[k] - verify[k + 1]);
    ledger.program_seconds += ledger.op_seconds.back();
  }
  return ledger;
}

/// Adds the planning layers' metrics, each a mean per traced operation.
void add_plan_layers(Outcome& out, const Ledger& ledger,
                     const LayerCounts& counts,
                     const store::TraceReader& reader) {
  const double ops = static_cast<double>(ledger.ops);
  const auto layer = [&](const char* name) {
    const auto it = ledger.layer_seconds.find(name);
    return it == ledger.layer_seconds.end() ? 0.0 : it->second;
  };
  const auto per_op = [&](double v) { return v / ops; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  out.add("store.open_s", ledger.open_seconds, "s");
  out.add("store.materialize_s", per_op(layer("store.materialize")), "s");
  out.add("store.materialize_files", per_op(counts.materialize_files),
          "count");
  out.add("store.materialize_raw_mb",
          per_op(counts.materialize_raw_bytes) / (1024.0 * 1024.0), "MiB");
  out.add("store.bytes_on_disk_per_raw_byte",
          static_cast<double>(reader.total_bytes()) /
              static_cast<double>(reader.freq_raw_bytes()),
          "ratio");
  out.add("store.release_s", per_op(layer("store.release")), "s");
  out.add("core.prepare_s", per_op(layer("core.prepare")), "s");
  out.add("core.decide_s", per_op(layer("core.decide")), "s");
  out.add("core.decide_file_days", per_op(counts.decide_file_days), "count");
  out.add("core.decide_ns_per_file_day",
          ratio(layer("core.decide") * 1e9, counts.decide_file_days),
          "ns/file-day");
  out.add("rl.featurize_share",
          ratio(layer("rl.featurize"), ledger.program_seconds), "share");
  out.add("rl.forward_share",
          ratio(layer("rl.forward"), ledger.program_seconds), "share");
  out.add("rl.forward_rows", per_op(counts.forward_rows), "count");
  out.add("rl.forward_unique_row_share",
          ratio(counts.forward_unique_rows, counts.forward_rows), "share");
  out.add("sim.setup_s", per_op(layer("sim.setup") - layer("sim.advance")),
          "s");
  out.add("sim.bill_s", per_op(layer("sim.advance")), "s");
  out.add("sim.bill_file_days", per_op(counts.bill_file_days), "count");
  out.add("sim.bill_ns_per_file_day",
          ratio(layer("sim.advance") * 1e9, counts.bill_file_days),
          "ns/file-day");
  out.add("sim.tier_changes", per_op(counts.tier_changes), "count");
  out.add("core.merge_s", per_op(layer("core.merge")), "s");
  out.add("core.merge_shards", per_op(counts.merge_shards), "count");
  out.add("core.replan_shards_planned", per_op(counts.shards_planned),
          "count");
}

/// The trainer's phase timers, as shares of worker time (workers x train
/// wall). All zero on the workloads that do not train.
struct TrainPhases {
  double rollout = 0.0;
  double grad = 0.0;
  double opt_step = 0.0;
  double sync_wait = 0.0;
  double opt_step_lock_wait = 0.0;
  double env_steps = 0.0;
  double worker_seconds = 0.0;

  double covered() const { return rollout + grad + opt_step + sync_wait; }
};

void add_train_layers(Outcome& out, const TrainPhases& phases) {
  const auto share = [&](double seconds) {
    return phases.worker_seconds > 0.0 ? seconds / phases.worker_seconds : 0.0;
  };
  out.add("rl.train.rollout_share", share(phases.rollout), "share");
  out.add("rl.train.grad_share", share(phases.grad), "share");
  out.add("rl.train.opt_step_share", share(phases.opt_step), "share");
  out.add("rl.train.sync_wait_share", share(phases.sync_wait), "share");
  out.add("rl.train.opt_step_lock_wait_share",
          share(phases.opt_step_lock_wait), "share");
  out.add("rl.train.env_steps", phases.env_steps, "count");
}

void add_coverage(Outcome& out, double covered, double wall) {
  const double coverage = covered / wall;
  out.add("layer_coverage", coverage, "ratio");
  if (coverage < 0.9) {
    out.note("layer_coverage_below_0_9", 1.0);
    std::cerr << "perfbench: warning: layer_coverage " << coverage
              << " < 0.9: the spans leave time unexplained\n";
  }
}

void write_spans(const RunConfig& config, const Tracer& tracer) {
  std::ofstream out(config.work_dir / ("spans-" + config.workload + ".jsonl"));
  tracer.write_jsonl(out);
}

/// The traced operation over the rebuilt driver: op k (from 1) runs
/// `prepare(k)`, then one replan whose bill lands in `bill`.
TimedLoop traced_loop(Tracer& tracer, RebuiltDriver& rebuilt,
                      sim::BillingReport& bill,
                      std::function<void(std::uint64_t)> prepare,
                      std::function<void()> verify, std::size_t min_reps) {
  return TimedLoop{
      [&tracer, &rebuilt, &bill, prepare = std::move(prepare),
       op = std::uint64_t{0}]() mutable {
        tracer.set_op(++op);
        prepare(op);
        bill = rebuilt.replan(tracer);
      },
      std::move(verify), min_reps};
}

}  // namespace

// --- plan-greedy / plan-minicost --------------------------------------------

void run_plan(const RunConfig& config, bool minicost, util::ThreadPool& pool,
              Outcome& out) {
  const Sizes sizes = config.smoke ? kSmoke : kFull;
  const std::size_t files =
      minicost ? sizes.minicost_files : sizes.greedy_files;
  const std::size_t shard_files = core::PlanDriverOptions{}.shard_files;
  const trace::SyntheticConfig input = synthetic(files, config.seed);
  const fs::path mct = config.work_dir / "plan.mct";
  const double file_days = static_cast<double>(files * kBilledDays);
  out.note("files", static_cast<double>(files));
  out.note("shard_files", static_cast<double>(shard_files));

  Resident resident;
  std::vector<double> setups;
  for (std::size_t i = 0; i < (config.trace ? 1 : kPlanSetups); ++i)
    setups.push_back(
        bring_up(input, mct, minicost, shard_files, pool, resident));

  // The benchmark's rebuild of the pipeline, on a reader of its own. For
  // MiniCost it decides with an agent built like make_rl_policy's and checks
  // every day against a second RL policy's decide_day.
  Tracer tracer(config.trace);
  std::optional<store::TraceReader> own;
  {
    Tracer::Scope span(tracer, "store.open");
    own.emplace(mct);
  }
  const core::RlPolicyOptions rl_options;
  std::unique_ptr<rl::A3CAgent> agent;
  if (minicost)
    agent = std::make_unique<rl::A3CAgent>(rl_options.agent, rl_options.seed);
  const std::unique_ptr<core::TieringPolicy> check_policy =
      make_policy(minicost);
  RebuiltDriver rebuilt(*own, prices(), *check_policy, agent.get(), pool,
                        shard_files, kStartDay);

  core::PlanDriverRun last;
  const auto check_run = [&](const sim::BillingReport& reference) {
    return [&out, &last, &reference] {
      out.check(same_bill(last.report, reference),
                "PlanDriver::run() bill == rebuilt pipeline bill");
    };
  };

  if (!config.trace) {
    Tracer off(false);
    sim::BillingReport reference = rebuilt.replan(off);
    maybe_perturb(config, reference);
    if (minicost)
      out.check(rebuilt.action_mismatches == 0,
                "encode_into + act_features_batch actions == decide_day");
    out.check(same_bill(resident.first_bill, reference),
              "first PlanDriver::run() bill == rebuilt pipeline bill");

    util::ThreadPool one(1);
    core::PlanDriver single(*resident.reader, prices(), *resident.policy,
                            driver_options(one, shard_files));
    TimedLoop wide{[&] { last = resident.driver->run(); },
                   check_run(reference), 5};
    TimedLoop narrow{[&] { last = single.run(); }, check_run(reference), 3};
    CpuRotation rotation;
    alternate(config.seconds, wide, narrow, &rotation);

    out.add("setup_s", median(setups), "s");
    out.add("file_days_per_s", file_days / median(wide.samples),
            "file-days/s");
    out.add("file_days_per_cpu_s_1t", file_days / median(narrow.cpu_samples),
            "file-days/cpu-s");
    out.add("op_p50_ms", median(wide.samples) * 1e3, "ms");
    add_cost_vs_optimal(out, resident.first_bill.grand_total().total(),
                        optimal_cost(*resident.reader, pool, shard_files));
    out.note("plans", static_cast<double>(wide.samples.size()));
    out.note("plans_1t", static_cast<double>(narrow.samples.size()));
    return;
  }

  TimedLoop untraced{[&] { last = resident.driver->run(); }, [] {}, 3};
  sim::BillingReport traced_bill;
  TimedLoop traced = traced_loop(
      tracer, rebuilt, traced_bill,
      [&](std::uint64_t) { rebuilt.mark_all_dirty(); },
      [&] {
        maybe_perturb(config, traced_bill);
        out.check(same_bill(last.report, traced_bill),
                  "traced rebuild bill == PlanDriver::run() bill");
      },
      3);
  alternate(config.seconds, untraced, traced);
  if (minicost)
    out.check(rebuilt.action_mismatches == 0,
              "encode_into + act_features_batch actions == decide_day");

  const Ledger ledger = make_ledger(tracer, traced.samples);
  add_plan_layers(out, ledger, rebuilt.counts, *own);
  add_train_layers(out, TrainPhases{});
  add_coverage(out, ledger.covered_seconds, ledger.program_seconds);
  out.add("trace_overhead_ratio",
          median(ledger.op_seconds) / median(untraced.samples), "ratio");
  out.note("traced_plans", static_cast<double>(traced.samples.size()));
  write_spans(config, tracer);
}

// --- replan-serve ------------------------------------------------------------

namespace {

struct Request {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// One client's closed loop of replan requests against a resident driver.
struct RequestLoop {
  std::vector<double> planned_files;  ///< files re-planned per request
  std::vector<BillDigest> digests;    ///< bill after each request
  core::PlanDriverRun last;
  TimedLoop timing;                   ///< latency per request
};

/// Median over requests of the file-days each re-planned per second of
/// `seconds` (wall or CPU samples of the loop).
double median_file_days_per_s(const RequestLoop& loop,
                              const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < seconds.size(); ++i)
    rates.push_back(loop.planned_files[i] *
                    static_cast<double>(kBilledDays) / seconds[i]);
  return median(rates);
}

std::size_t files_in_shards(const Request& r, std::size_t files,
                            std::size_t shard_files) {
  std::size_t total = 0;
  const std::size_t hi = (r.first + r.count - 1) / shard_files;
  for (std::size_t s = r.first / shard_files; s <= hi; ++s)
    total += std::min(shard_files, files - s * shard_files);
  return total;
}

}  // namespace

void run_replan(const RunConfig& config, util::ThreadPool& pool,
                Outcome& out) {
  const Sizes sizes = config.smoke ? kSmoke : kFull;
  const std::size_t files = sizes.replan_files;
  const std::size_t shard_files = sizes.replan_shard_files;
  const trace::SyntheticConfig input = synthetic(files, config.seed);
  const fs::path mct = config.work_dir / "replan.mct";
  out.note("files", static_cast<double>(files));
  out.note("shard_files", static_cast<double>(shard_files));

  Resident resident;
  std::vector<double> setups;
  for (std::size_t i = 0; i < (config.trace ? 1 : kPlanSetups); ++i)
    setups.push_back(
        bring_up(input, mct, /*minicost=*/false, shard_files, pool, resident));

  // Each request touches a seeded random range of a few files and is timed
  // from the start of mark_dirty to replan's return.
  util::Rng rng(config.seed);
  std::vector<Request> requests;
  const auto serve = [&](core::PlanDriver& driver, RequestLoop& loop,
                         std::size_t min_requests) {
    core::PlanDriver* d = &driver;
    RequestLoop* l = &loop;
    loop.timing = TimedLoop{
        [&, d, l] {
          const auto count = static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(sizes.replan_max_touch)));
          const auto first = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(files - count)));
          requests.push_back({first, count});
          d->mark_dirty(first, count);
          l->last = d->replan();
        },
        [&, l] {
          out.check(l->last.report.file_count() == files &&
                        l->last.report.days() == kBilledDays,
                    "replan() returns the full-width bill");
          l->planned_files.push_back(static_cast<double>(
              files_in_shards(requests.back(), files, shard_files)));
          l->digests.emplace_back(l->last.report);
        },
        min_requests};
  };

  if (!config.trace) {
    util::ThreadPool one(1);
    core::PlanDriver single(*resident.reader, prices(), *resident.policy,
                            driver_options(one, shard_files));
    single.run();
    RequestLoop wide;
    RequestLoop narrow;
    serve(*resident.driver, wide, sizes.min_requests);
    serve(single, narrow, 1);
    CpuRotation rotation;
    alternate(config.seconds, wide.timing, narrow.timing, &rotation);

    // A fresh driver's full plan is the reference for the final bills.
    const std::unique_ptr<core::TieringPolicy> fresh_policy =
        make_policy(false);
    core::PlanDriver fresh(*resident.reader, prices(), *fresh_policy,
                           driver_options(pool, shard_files));
    sim::BillingReport reference = fresh.run().report;
    maybe_perturb(config, reference);
    out.check(same_bill(wide.last.report, reference),
              "final replan() bill == fresh PlanDriver::run() bill");
    out.check(same_bill(narrow.last.report, reference),
              "final 1-thread replan() bill == fresh PlanDriver::run() bill");

    out.add("setup_s", median(setups), "s");
    out.add("file_days_per_s",
            median_file_days_per_s(wide, wide.timing.samples), "file-days/s");
    out.add("file_days_per_cpu_s_1t",
            median_file_days_per_s(narrow, narrow.timing.cpu_samples),
            "file-days/cpu-s");
    out.add("op_p50_ms", median(wide.timing.samples) * 1e3, "ms");
    add_cost_vs_optimal(out, reference.grand_total().total(),
                        optimal_cost(*resident.reader, pool, shard_files));
    out.note("requests", static_cast<double>(wide.timing.samples.size()));
    out.note("replan_p95_ms", quantile(wide.timing.samples, 0.95) * 1e3);
    out.note("requests_1t", static_cast<double>(narrow.timing.samples.size()));
    return;
  }

  // The traced replay reissues each request right after the program served
  // it, on a rebuilt resident driver.
  Tracer tracer(true);
  std::optional<store::TraceReader> own;
  {
    Tracer::Scope span(tracer, "store.open");
    own.emplace(mct);
  }
  const std::unique_ptr<core::TieringPolicy> policy = make_policy(false);
  RebuiltDriver rebuilt(*own, prices(), *policy, nullptr, pool, shard_files,
                        kStartDay);
  rebuilt.replan(tracer);  // the resident state, outside every request
  rebuilt.counts = {};

  RequestLoop untraced;
  serve(*resident.driver, untraced, sizes.min_requests);
  sim::BillingReport bill;
  TimedLoop traced = traced_loop(
      tracer, rebuilt, bill,
      [&](std::uint64_t op) {
        const Request& r = requests[op - 1];
        rebuilt.mark_dirty(r.first, r.count);
      },
      [&] {
        out.check(BillDigest(bill) ==
                      untraced.digests[traced.samples.size() - 1],
                  "traced replan bill == replan() bill, per request");
      },
      sizes.min_requests);
  alternate(config.seconds, untraced.timing, traced);
  maybe_perturb(config, bill);
  out.check(same_bill(bill, untraced.last.report),
            "final traced replan bill == final replan() bill");

  const Ledger ledger = make_ledger(tracer, traced.samples);
  add_plan_layers(out, ledger, rebuilt.counts, *own);
  add_train_layers(out, TrainPhases{});
  add_coverage(out, ledger.covered_seconds, ledger.program_seconds);
  out.add("trace_overhead_ratio",
          median(ledger.op_seconds) / median(untraced.timing.samples),
          "ratio");
  out.note("traced_requests", static_cast<double>(traced.samples.size()));
  write_spans(config, tracer);
}

// --- train-a3c ---------------------------------------------------------------

namespace {

/// The trainer's agent seed; fixed, like the deployed policy's.
const std::uint64_t kAgentSeed = core::RlPolicyOptions{}.seed;

double timer_seconds(std::string_view name) {
  for (const auto& t : obs::Registry::global().timers())
    if (t.name == name) return t.stats.total_seconds();
  return 0.0;
}

double counter_value(std::string_view name) {
  for (const auto& c : obs::Registry::global().counters())
    if (c.name == name) return static_cast<double>(c.value);
  return 0.0;
}

struct TrainInputs {
  trace::RequestTrace train;
  std::unique_ptr<store::TraceReader> held_out;  ///< the 20% test files
  std::unique_ptr<rl::A3CAgent> agent;           ///< fresh, untrained
};

/// Generates the trace, splits it, packs and opens the held-out store, and
/// builds a fresh agent. Returns the set-up seconds.
double bring_up_train(const trace::SyntheticConfig& config,
                      const fs::path& path, const rl::A3CConfig& agent_config,
                      TrainInputs& inputs) {
  inputs.held_out.reset();
  const util::Stopwatch watch;
  const trace::RequestTrace trace = trace::generate_synthetic(config);
  auto [train, test] = trace.split(1.0 - kHeldOutShare, config.seed);
  inputs.train = std::move(train);
  store::pack_trace(test, path, delta_codec());
  inputs.held_out = std::make_unique<store::TraceReader>(path);
  inputs.agent = std::make_unique<rl::A3CAgent>(agent_config, kAgentSeed);
  return watch.seconds();
}

}  // namespace

void run_train(const RunConfig& config, util::ThreadPool& pool, Outcome& out) {
  const Sizes sizes = config.smoke ? kSmoke : kFull;
  const trace::SyntheticConfig input =
      synthetic(sizes.train_files, config.seed);
  const fs::path mct = config.work_dir / "heldout.mct";
  const std::size_t shard_files = core::PlanDriverOptions{}.shard_files;
  rl::A3CConfig agent_config;
  agent_config.workers = pool.size();
  rl::TrainOptions options;
  options.episodes = sizes.train_episodes;
  out.note("files", static_cast<double>(sizes.train_files));
  out.note("billed_agent_episodes",
           static_cast<double>(sizes.train_episodes));

  TrainInputs inputs;
  std::vector<double> setups;
  for (std::size_t i = 0; i < (config.trace ? 1 : kTrainSetups); ++i)
    setups.push_back(bring_up_train(input, mct, agent_config, inputs));

  // The billed agent trains with init racing; it is the one the held-out
  // files are planned with.
  std::unique_ptr<rl::A3CAgent> trained = std::move(inputs.agent);
  const auto train_billed = [&] {
    trained->train(inputs.train, prices(), options);
  };

  // The trained agent plans the held-out files through PlanDriver and
  // through the rebuilt pipeline (featurize + forward on the same agent).
  core::PlanDriverRun last;
  const auto plan_held_out = [&] {
    core::RlPolicy deployed(*trained);
    core::PlanDriver driver(*inputs.held_out, prices(), deployed,
                            driver_options(pool, shard_files));
    last = driver.run();
  };

  if (!config.trace) {
    train_billed();

    // Timed trainings: each op trains a fresh agent (built untimed) for a
    // fixed number of episodes.
    struct Trainings {
      rl::A3CConfig config;
      rl::TrainOptions options;
      std::unique_ptr<rl::A3CAgent> agent;
      double steps = 0.0;
    };
    const auto make_trainings = [&](std::size_t workers,
                                    std::size_t episodes) {
      Trainings t{agent_config, options, nullptr, 0.0};
      t.config.workers = workers;
      t.options.episodes = episodes;
      t.agent = std::make_unique<rl::A3CAgent>(t.config, kAgentSeed);
      return t;
    };
    const auto timed = [&](Trainings& trainings) {
      Trainings* t = &trainings;
      return TimedLoop{
          [&, t] { t->agent->train(inputs.train, prices(), t->options); },
          [&, t] {
            // Training is deterministic: every op takes the same env steps.
            const auto steps = static_cast<double>(t->agent->trained_steps());
            out.check(t->steps == 0.0 || steps == t->steps,
                      "repeated trainings take identical env steps");
            t->steps = steps;
            t->agent = std::make_unique<rl::A3CAgent>(t->config, kAgentSeed);
          },
          5};
    };
    Trainings wide_trainings =
        make_trainings(agent_config.workers, sizes.train_timed_episodes);
    Trainings narrow_trainings =
        make_trainings(1, sizes.train_timed_episodes_1t);
    TimedLoop wide = timed(wide_trainings);
    TimedLoop narrow = timed(narrow_trainings);
    CpuRotation rotation;  // one worker trains on the calling thread
    alternate(config.seconds, wide, narrow, &rotation);

    plan_held_out();
    core::RlPolicy check(*trained);
    RebuiltDriver rebuilt(*inputs.held_out, prices(), check, trained.get(),
                          pool, shard_files, kStartDay);
    Tracer off(false);
    sim::BillingReport reference = rebuilt.replan(off);
    maybe_perturb(config, reference);
    out.check(rebuilt.action_mismatches == 0,
              "encode_into + act_features_batch actions == decide_day");
    out.check(same_bill(last.report, reference),
              "held-out PlanDriver::run() bill == rebuilt pipeline bill");

    out.add("setup_s", median(setups), "s");
    out.add("file_days_per_s", wide_trainings.steps / median(wide.samples),
            "file-days/s");
    out.add("file_days_per_cpu_s_1t",
            narrow_trainings.steps / median(narrow.cpu_samples),
            "file-days/cpu-s");
    out.add("op_p50_ms", median(wide.samples) * 1e3, "ms");
    add_cost_vs_optimal(out, last.report.grand_total().total(),
                        optimal_cost(*inputs.held_out, pool, shard_files));
    out.note("trainings", static_cast<double>(wide.samples.size()));
    out.note("training_episodes",
             static_cast<double>(sizes.train_timed_episodes));
    out.note("trainings_1t", static_cast<double>(narrow.samples.size()));
    out.note("training_episodes_1t",
             static_cast<double>(sizes.train_timed_episodes_1t));
    return;
  }

  // The trainer's phases are reachable only through the obs timers the
  // program records (on by default); its wall is the same untraced or not.
  obs::Registry::global().reset();
  const util::Stopwatch watch;
  train_billed();
  const double train_wall = watch.seconds();
  TrainPhases phases;
  phases.rollout = timer_seconds("rl.a3c.rollout");
  phases.grad = timer_seconds("rl.a3c.grad");
  phases.opt_step = timer_seconds("rl.a3c.opt_step");
  phases.sync_wait = counter_value("rl.a3c.sync.wait_ns") * 1e-9;
  phases.opt_step_lock_wait =
      counter_value("rl.a3c.opt_step.lock_wait_ns") * 1e-9;
  phases.env_steps = counter_value("rl.a3c.train.env_steps");
  const auto workers = static_cast<double>(agent_config.workers);
  phases.worker_seconds = workers * train_wall;

  Tracer tracer(true);
  std::optional<store::TraceReader> own;
  {
    Tracer::Scope span(tracer, "store.open");
    own.emplace(mct);
  }
  core::RlPolicy check(*trained);
  RebuiltDriver rebuilt(*own, prices(), check, trained.get(), pool,
                        shard_files, kStartDay);
  TimedLoop untraced{plan_held_out, [] {}, 3};
  sim::BillingReport bill;
  TimedLoop traced = traced_loop(
      tracer, rebuilt, bill,
      [&](std::uint64_t) { rebuilt.mark_all_dirty(); },
      [&] {
        maybe_perturb(config, bill);
        out.check(same_bill(last.report, bill),
                  "traced held-out bill == PlanDriver::run() bill");
      },
      3);
  alternate(0.0, untraced, traced);
  out.check(rebuilt.action_mismatches == 0,
            "encode_into + act_features_batch actions == decide_day");

  const Ledger ledger = make_ledger(tracer, traced.samples);
  const double ops = static_cast<double>(ledger.ops);
  add_plan_layers(out, ledger, rebuilt.counts, *own);
  add_train_layers(out, phases);
  add_coverage(out,
               phases.covered() / workers + ledger.covered_seconds / ops,
               train_wall + ledger.program_seconds / ops);
  out.add("trace_overhead_ratio",
          (train_wall + median(ledger.op_seconds)) /
              (train_wall + median(untraced.samples)),
          "ratio");
  out.note("train_wall_s", train_wall);
  write_spans(config, tracer);
}

}  // namespace perfbench
