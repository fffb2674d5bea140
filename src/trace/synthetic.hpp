#pragma once
// Synthetic Wikipedia-like workload generator.
//
// The paper drives every experiment with a 2-month Wikipedia page-view trace
// (hourly views for ~4M English articles, re-formatted to daily request
// frequencies). That dump is not shipped here, so this generator produces a
// trace with the same distributional properties the paper reports for it:
//
//  * Zipf-distributed mean popularity across files (web traffic heavy tail);
//  * a weekly request cycle (the paper cites ~1-week periodicity, Sec. 3.1);
//  * a per-file variability mixture calibrated to Figure 2: the coefficient
//    of variation of daily request frequency falls in buckets
//    {0-0.1, 0.1-0.3, 0.3-0.5, 0.5-0.8, >0.8} with shares
//    {81.75%, 9.93%, 5.39%, 2.3%, 0.63%};
//  * high-variability files are flash-crowd-like: low baseline with rare
//    multi-day spikes (the exact pattern Sec. 1 motivates: "unexpectedly the
//    file's request frequency increases significantly");
//  * per-page data sizes Poisson-distributed with mean 100 MB (Sec. 3.1);
//  * co-request groups of files linked to the same webpage, with daily
//    concurrent-request frequencies r_dc (Sec. 5.2).
//
// Everything is deterministic given the seed.

#include <cstdint>

#include "trace/trace.hpp"

namespace minicost::trace {

struct SyntheticConfig {
  std::size_t file_count = 20'000;
  std::size_t days = 62;  ///< the paper's Jul 15 - Sep 15 horizon

  // Popularity (mean daily reads): bounded Pareto with tail index
  // `popularity_alpha` on [floor, peak]. A Pareto tail matches the heavy
  // tail of Wikipedia page views, and — unlike rank-based Zipf — the
  // popularity *distribution* is independent of file_count, so experiment
  // shapes do not change when MINICOST_SCALE changes. With the defaults
  // roughly a third of the files sit above the hot/cool cost crossover
  // (~0.5 reads/day at 100 MB under the Azure preset), which is what makes
  // tier assignment a real decision.
  double popularity_alpha = 0.45;
  double peak_daily_reads = 600.0;
  double floor_daily_reads = 0.02;

  // Variability mixture; defaults to the paper's Figure 2 shares.
  // bucket_shares[i] is the probability a file targets variability bucket i.
  std::vector<double> bucket_shares;  ///< empty -> stats::paper_fig2_shares()

  /// Mean-popularity multiplier per variability bucket. Volatile (trending /
  /// news) articles also receive more traffic on average; this reproduces
  /// the paper's Figure 8 (per-file cost grows with variability) and
  /// Figure 3 (high-variability files save the most per file).
  std::vector<double> bucket_popularity_boost{1.0, 1.3, 1.8, 2.5, 4.0};

  // Spike (flash-crowd) process for high-variability files.
  double spike_days_mean = 2.0;      ///< mean burst length, days
  double spike_rate_per_horizon = 1.2;  ///< expected bursts per file horizon

  // Sizes: Poisson with this mean, in MB (paper: 100 MB).
  double mean_size_mb = 100.0;
  double min_size_mb = 1.0;

  // Writes: w_t = write_read_ratio * r_t + base_write_rate (+ noise).
  double write_read_ratio = 0.02;
  double base_write_rate = 0.05;

  // Co-request groups (aggregation enhancement workload).
  double grouped_file_fraction = 0.3;  ///< fraction of files placed in groups
  std::size_t group_size_min = 2;
  std::size_t group_size_max = 5;
  double concurrency_min = 0.2;  ///< r_dc = U[min,max] * min member rate
  double concurrency_max = 0.9;

  /// Round the generated read/write frequencies to whole requests, which is
  /// what real count-derived traces (e.g. pagecounts aggregations) contain.
  /// OFF by default to keep the historical fractional-rate workload — and
  /// every baseline derived from it — bit-stable. Integral counts are what
  /// the .mct v2 delta codec is built for; fractional series make it fall
  /// back to raw/zstd per chunk.
  bool integral_counts = false;

  std::uint64_t seed = 42;
};

/// Generates a trace per the config. Throws std::invalid_argument on
/// malformed configs (zero files/days, bad shares).
RequestTrace generate_synthetic(const SyntheticConfig& config);

/// Generates only files [first, first + count) of the trace that
/// generate_synthetic(config) would produce — bit-identical records, because
/// every file draws from its own forked RNG stream. This is what lets
/// `minicost generate --out x.mct` stream a trace far larger than RAM into
/// a .mct container chunk by chunk. Co-request groups are whole-trace constructs and are not
/// produced here; use generate_synthetic for traces that fit in memory, or
/// pack without groups. Throws std::invalid_argument on malformed configs
/// and std::out_of_range when the range exceeds config.file_count.
std::vector<FileRecord> generate_synthetic_files(const SyntheticConfig& config,
                                                 std::size_t first,
                                                 std::size_t count);

/// The variability-bucket target ranges corresponding to the paper's bucket
/// edges; bucket i samples its target CV uniformly from these ranges.
struct BucketRange {
  double lo;
  double hi;
};
std::vector<BucketRange> variability_bucket_ranges();

}  // namespace minicost::trace
