// paper_sweep: the paper's own protocols on fresh platforms. Table 1
// (Listing 6, explicit map: the heuristic-grid baseline and the
// teams x V grid over C1-C4), then the four Listing 8 UM co-execution
// sweeps (baseline/optimized kernel x A1/A2, C1-C4, p = 0.0..1.0). The
// paper fixes its inputs, so the seed is ignored.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "ghs/core/platform.hpp"
#include "ghs/core/reduce.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/core/system_config.hpp"
#include "ghs/stats/series.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"
#include "ghs/workload/cases.hpp"

namespace perfbench {

namespace {

using namespace ghs;

/// Table 1 repetitions, as in the table1 bench's default.
constexpr int kTable1Iterations = 10;
/// The reduced Listing 8 repetition count N per p value (the paper uses
/// 200; the shapes of Figs. 2-5 already hold at 20).
constexpr int kUmIterations = 20;
/// Platform sets built during setup; setup_s is their median (odd count).
constexpr int kSetupRepeats = 51;

/// The paper's Table 1: baseline GB/s, optimized GB/s and speedup, C1-C4.
struct PaperRow {
  double baseline_gbps;
  double optimized_gbps;
  double speedup;
};
constexpr std::array<PaperRow, 4> kPaperTable1 = {{
    {620.0, 3795.0, 6.120},
    {172.0, 3596.0, 20.906},
    {271.0, 3790.0, 13.985},
    {526.0, 3833.0, 7.287},
}};

/// Counters summed over every platform a protocol call ran on.
struct SubstrateTotals {
  std::int64_t events = 0;
  std::int64_t peak_queue = 0;
  std::int64_t kernels = 0;
  std::int64_t waves = 0;
  std::int64_t combines = 0;
  std::int64_t fault_migrations = 0;
  std::int64_t counter_migrations = 0;
  double migrated_bytes = 0.0;
  double remote_bytes = 0.0;
  std::int64_t cpu_reductions = 0;
  std::int64_t target_regions = 0;
  double hbm_bytes = 0.0;
  double c2c_bytes = 0.0;

  void add(core::Platform& p) {
    events += static_cast<std::int64_t>(p.sim().events_processed());
    peak_queue = std::max(peak_queue,
                          static_cast<std::int64_t>(p.sim().peak_queue_size()));
    const auto& gpu = p.gpu().stats();
    kernels += gpu.kernels_launched;
    waves += gpu.waves_executed;
    combines += gpu.combines_issued;
    const auto& um = p.um().stats();
    fault_migrations += um.fault_migrations;
    counter_migrations += um.counter_migrations;
    migrated_bytes += static_cast<double>(um.bytes_migrated_to_hbm +
                                          um.bytes_migrated_to_lpddr);
    remote_bytes +=
        static_cast<double>(um.remote_bytes_gpu + um.remote_bytes_cpu);
    cpu_reductions += p.cpu().stats().reductions;
    target_regions += p.runtime().stats().target_regions;
    const auto& net = p.topology().network();
    hbm_bytes += net.resource_stats(p.topology().hbm()).bytes_served;
    c2c_bytes += net.resource_stats(p.topology().c2c_to_gpu()).bytes_served +
                 net.resource_stats(p.topology().c2c_to_cpu()).bytes_served;
  }
};

struct UmSweep {
  const char* kernel;  // "baseline" | "optimized"
  core::AllocSite site;
};
constexpr std::array<UmSweep, 4> kUmSweeps = {{
    {"baseline", core::AllocSite::kA1},
    {"optimized", core::AllocSite::kA1},
    {"baseline", core::AllocSite::kA2},
    {"optimized", core::AllocSite::kA2},
}};

struct Table1Values {
  double baseline_gbps = 0.0;
  double optimized_gbps = 0.0;
  core::ReduceTuning best;
};

std::vector<std::unique_ptr<core::Platform>> make_platforms(
    std::size_t n, const core::SystemConfig& config, SpanLog& spans) {
  const auto ctor = spans.intern("core.platform");
  std::vector<std::unique_ptr<core::Platform>> platforms;
  platforms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Scope scope(spans, ctor);
    platforms.push_back(std::make_unique<core::Platform>(config));
  }
  return platforms;
}

/// Table 1 on the platforms in `platforms` (one per protocol call, in
/// order); the same loop as core::table1.
std::vector<Table1Values> table1_protocol(
    const core::SweepOptions& grid,
    const std::vector<std::unique_ptr<core::Platform>>& platforms,
    SpanLog& spans) {
  const auto call = spans.intern("core.run_gpu_benchmark");
  std::vector<Table1Values> rows;
  std::size_t next = 0;
  for (const auto case_id : workload::all_cases()) {
    Table1Values row;
    core::GpuBenchmark bench;
    bench.case_id = case_id;
    bench.iterations = kTable1Iterations;
    {
      Scope scope(spans, call);
      row.baseline_gbps =
          core::run_gpu_benchmark(*platforms[next++], bench).bandwidth.gbps();
    }
    for (const int v : grid.vs) {
      for (const std::int64_t teams : grid.teams) {
        if (teams % v != 0) continue;
        bench.tuning = core::ReduceTuning{teams, grid.thread_limit, v};
        double gbps = 0.0;
        {
          Scope scope(spans, call);
          gbps = core::run_gpu_benchmark(*platforms[next++], bench)
                     .bandwidth.gbps();
        }
        if (gbps > row.optimized_gbps) {
          row.optimized_gbps = gbps;
          row.best = *bench.tuning;
        }
      }
    }
    rows.push_back(row);
  }
  return rows;
}

std::size_t table1_calls(const core::SweepOptions& grid) {
  std::size_t per_case = 1;
  for (const int v : grid.vs) {
    for (const std::int64_t teams : grid.teams) {
      if (teams % v == 0) ++per_case;
    }
  }
  return per_case * workload::all_cases().size();
}

double table1_max_err_pct(const std::vector<Table1Values>& rows) {
  double worst = 0.0;
  const auto err = [&worst](double sim, double paper) {
    worst = std::max(worst, 100.0 * std::abs(sim - paper) / paper);
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& paper = kPaperTable1[i];
    err(rows[i].baseline_gbps, paper.baseline_gbps);
    err(rows[i].optimized_gbps, paper.optimized_gbps);
    err(rows[i].optimized_gbps / rows[i].baseline_gbps, paper.speedup);
  }
  return worst;
}

void add_table1_values(const std::vector<Table1Values>& rows,
                       std::vector<std::pair<std::string, std::string>>& out) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string key =
        std::string("table1.") +
        workload::case_spec(workload::all_cases()[i]).name;
    const auto& row = rows[i];
    std::string best = std::to_string(row.best.teams) + "x" +
                       std::to_string(row.best.thread_limit) + "xv" +
                       std::to_string(row.best.v);
    out.emplace_back(key, format_exact(row.baseline_gbps) + " " +
                              format_exact(row.optimized_gbps) + " " +
                              format_exact(row.optimized_gbps /
                                           row.baseline_gbps) +
                              " " + best);
  }
}

std::string render_table1(const std::vector<Table1Values>& rows,
                          const core::SystemConfig& config) {
  const double peak = core::peak_gpu_bandwidth(config).gbps();
  stats::Table table({"Case", "Base (GB/s)", "Optimized (GB/s)", "Speedup",
                      "Efficiency (%)", "Best (teams, v)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::string eff = format_fixed(100.0 * row.baseline_gbps / peak, 1);
    eff += " / ";
    eff += format_fixed(100.0 * row.optimized_gbps / peak, 1);
    std::string best = std::to_string(row.best.teams);
    best += ", v";
    best += std::to_string(row.best.v);
    table.add_row({workload::case_spec(workload::all_cases()[i]).name,
                   format_fixed(row.baseline_gbps, 0),
                   format_fixed(row.optimized_gbps, 0),
                   format_fixed(row.optimized_gbps / row.baseline_gbps, 3),
                   eff, best});
  }
  std::ostringstream os;
  table.render_csv(os);
  return os.str();
}

/// Checks each "key value" line against the reference (or records them).
void check_values(const Options& opts, const std::string& file,
                  const std::vector<std::pair<std::string, std::string>>&
                      values,
                  Result& result) {
  const std::string path = opts.reference_dir + "/" + file;
  if (opts.write_reference) {
    std::ofstream out(path);
    for (const auto& [key, value] : values) out << key << ' ' << value << '\n';
    return;
  }
  std::map<std::string, std::string> reference;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    reference[line.substr(0, space)] = line.substr(space + 1);
  }
  for (const auto& [key, value] : values) {
    const auto it = reference.find(key);
    const bool ok = it != reference.end() && it->second == value;
    result.check(key, ok,
                 "got '" + value + "', reference '" +
                     (it == reference.end() ? std::string("<missing>")
                                            : it->second) +
                     "'");
  }
}

}  // namespace

Result run_paper_sweep(const Options& opts, SpanLog& spans) {
  Result result;
  result.notes.push_back("paper_sweep ignores --seed " +
                         std::to_string(opts.seed) +
                         ": the paper fixes its inputs");

  // ---- setup: one fresh platform per protocol call, as core::table1 and
  // core::um_sweep_case build them. A set costs well under a millisecond,
  // so it is built kSetupRepeats times and setup_s is the median.
  const core::SystemConfig config = core::gh200_config();
  const core::SweepOptions grid;
  const std::size_t n_table1 = table1_calls(grid);
  const std::size_t n_um = kUmSweeps.size() * workload::all_cases().size();
  std::vector<std::unique_ptr<core::Platform>> platforms;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    platforms.clear();
    const std::int64_t start = now_ns();
    Scope scope(spans, "bench.setup");
    platforms = make_platforms(n_table1 + n_um, config, spans);
    setup_times.push_back(seconds_between(start, now_ns()));
  }
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];
  const std::int64_t window_start = now_ns();

  // ---- window: every protocol call, then the report.
  std::vector<Table1Values> rows;
  std::vector<std::pair<std::string, std::string>> values;
  std::string report;
  {
    Scope window(spans, "bench.window");
    rows = table1_protocol(grid, platforms, spans);
    std::vector<stats::Figure> figures;
    std::size_t next = n_table1;
    for (const auto& sweep : kUmSweeps) {
      const bool optimized = std::string(sweep.kernel) == "optimized";
      const auto call = spans.intern(std::string("core.run_hetero_benchmark.") +
                                     sweep.kernel);
      figures.emplace_back(std::string("UM co-execution, ") + sweep.kernel +
                               " kernel, " + core::alloc_site_name(sweep.site),
                           "cpu_part", "bandwidth GB/s");
      for (const auto case_id : workload::all_cases()) {
        core::HeteroBenchmark bench;
        bench.case_id = case_id;
        bench.tuning = optimized ? std::optional<core::ReduceTuning>(
                                       core::paper_best_tuning(case_id))
                                 : std::nullopt;
        bench.site = sweep.site;
        bench.cpu_parts = core::paper_cpu_parts();
        bench.iterations = kUmIterations;
        core::HeteroBenchmarkResult sweep_result;
        {
          Scope scope(spans, call);
          sweep_result = core::run_hetero_benchmark(*platforms[next++], bench);
        }
        const std::string name = workload::case_spec(case_id).name;
        auto& series = figures.back().add_series(name);
        for (const auto& point : sweep_result.points) {
          series.add(point.cpu_part, point.bandwidth.gbps());
          values.emplace_back(std::string("um.") + sweep.kernel + "." +
                                  core::alloc_site_name(sweep.site) + "." +
                                  name + ".p" + format_fixed(point.cpu_part, 2),
                              format_exact(point.bandwidth.gbps()));
        }
      }
    }
    Scope render(spans, "stats.render");
    std::ostringstream os;
    os << render_table1(rows, config);
    for (const auto& figure : figures) {
      os << "# " << figure.title() << '\n';
      figure.render_csv(os);
    }
    report = os.str();
  }
  const std::int64_t window_end = now_ns();

  const double run_s = seconds_between(window_start, window_end);
  const auto calls = static_cast<double>(n_table1 + n_um);
  result.metric("setup_s", setup_s, "s");
  result.metric("run_s", run_s, "s");
  result.metric("jobs_per_s", calls / run_s, "jobs/s");
  result.metric("table1_max_err_pct", table1_max_err_pct(rows), "%");
  result.notes.push_back("jobs_per_s counts protocol calls: " +
                         format_exact(calls) + " (" + std::to_string(n_table1) +
                         " Table 1 + " + std::to_string(n_um) + " Listing 8)");

  SubstrateTotals totals;
  for (const auto& p : platforms) totals.add(*p);
  result.metric("sim.events", static_cast<double>(totals.events), "count");
  result.metric("sim.peak_queue", static_cast<double>(totals.peak_queue),
                "count");
  result.metric("gpu.kernels", static_cast<double>(totals.kernels), "count");
  result.metric("gpu.waves", static_cast<double>(totals.waves), "count");
  result.metric("gpu.combines", static_cast<double>(totals.combines), "count");
  result.metric("um.fault_migrations",
                static_cast<double>(totals.fault_migrations), "count");
  result.metric("um.counter_migrations",
                static_cast<double>(totals.counter_migrations), "count");
  result.metric("um.migrated_gb", totals.migrated_bytes * 1e-9, "GB");
  result.metric("um.remote_gb", totals.remote_bytes * 1e-9, "GB");
  result.metric("cpu.reductions", static_cast<double>(totals.cpu_reductions),
                "count");
  result.metric("omp.target_regions",
                static_cast<double>(totals.target_regions), "count");
  result.metric("mem.hbm_gb", totals.hbm_bytes * 1e-9, "GB");
  result.metric("mem.c2c_gb", totals.c2c_bytes * 1e-9, "GB");

  if (spans.enabled()) {
    const auto t = spans.totals();
    const double protocol_s =
        span_seconds(t, "core.run_gpu_benchmark") +
        span_seconds(t, "core.run_hetero_benchmark.baseline") +
        span_seconds(t, "core.run_hetero_benchmark.optimized");
    result.metric("core.platform_s",
                  span_seconds(t, "core.platform") / kSetupRepeats, "s");
    result.metric("core.table1_s", span_seconds(t, "core.run_gpu_benchmark"),
                  "s");
    result.metric("core.um_baseline_s",
                  span_seconds(t, "core.run_hetero_benchmark.baseline"), "s");
    result.metric("core.um_optimized_s",
                  span_seconds(t, "core.run_hetero_benchmark.optimized"), "s");
    result.ratio("sim.ns_per_event", "ns", "core protocol calls s", protocol_s,
                 "sim.events", static_cast<double>(totals.events));
    result.ratio("gpu.ns_per_wave", "ns", "core protocol calls s", protocol_s,
                 "gpu.waves", static_cast<double>(totals.waves));
  }

  add_table1_values(rows, values);
  check_values(opts, "paper_sweep.values", values, result);
  check_against_reference(opts, "paper_sweep.report", report, result);
  result.report = std::move(report);
  return result;
}

void table1_accuracy(const Options& opts, Result& result) {
  // Every workload reports table1_max_err_pct: on the serving workloads it
  // is the accuracy of the substrate their ServiceModel prices with. No
  // spans: it runs after the workload and is not part of its measurement.
  SpanLog off(/*enabled=*/false, 0);
  const core::SweepOptions grid;
  const auto platforms =
      make_platforms(table1_calls(grid), core::gh200_config(), off);
  const auto rows = table1_protocol(grid, platforms, off);
  result.metric("table1_max_err_pct", table1_max_err_pct(rows), "%");
  std::vector<std::pair<std::string, std::string>> values;
  add_table1_values(rows, values);
  Options read_only = opts;
  read_only.write_reference = false;
  check_values(read_only, "paper_sweep.values", values, result);
}

}  // namespace perfbench
