// Shared types of the benchmark's workload runners: options, the result
// each workload run returns (metrics, output checks, rendered report), and
// small helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ghs/serve/job.hpp"
#include "spans.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 42;
/// Jobs in every serving workload.
inline constexpr std::int64_t kJobs = 1'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool traced = false;
  std::int64_t run_id = 0;
  /// Directory of the reference outputs recorded from a known-good build.
  std::string reference_dir;
  /// When set, the reference files are (re)written instead of checked.
  bool write_reference = false;
  /// Traced runs only: where to write every recorded span as CSV.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  // what was compared, printed when the check fails
};

/// A derived ratio and its base, printed as "name = num / den".
struct Ratio {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string numerator;
  double numerator_value = 0.0;
  std::string denominator;
  double denominator_value = 0.0;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<Ratio> ratios;
  std::vector<std::string> notes;
  /// The rendered report; byte-compared against the reference on the
  /// default seed and digested for the cross-run determinism check.
  std::string report;
  /// Digest of the generated inputs (0 when the workload takes no seed).
  std::uint64_t inputs_digest = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  void ratio(const std::string& name, const std::string& unit,
             const std::string& numerator, double numerator_value,
             const std::string& denominator, double denominator_value);
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over raw bytes, chained through `seed`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = kFnvOffset);

/// Digest of generated jobs: what a seed fed the program.
std::uint64_t digest_jobs(const std::vector<ghs::serve::Job>& jobs);

/// Every digit of `value` ("%.17g"), so equal strings mean equal doubles.
std::string format_exact(double value);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Seconds between two now_ns() readings.
inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Reference file `name` in opts.reference_dir: compares `actual` to it
/// byte for byte (or writes it when opts.write_reference is set).
void check_against_reference(const Options& opts, const std::string& name,
                             const std::string& actual, Result& result);

/// Table 1 on fresh platforms, after a serving workload has run: adds
/// table1_max_err_pct and the Table 1 reference checks to `result`.
void table1_accuracy(const Options& opts, Result& result);

/// Spans totals helpers for the traced run's per-layer metrics.
double span_seconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name);
std::int64_t span_count(const std::map<std::string, SpanTotals>& totals,
                        const std::string& name);

Result run_paper_sweep(const Options& opts, SpanLog& spans);
Result run_serve(const Options& opts, SpanLog& spans, bool observed);
Result run_fleet(const Options& opts, SpanLog& spans);

}  // namespace perfbench
