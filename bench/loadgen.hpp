// Shared scaffolding of the two loadgens: serve_loadgen (one
// ReductionService) and cluster_loadgen (a Cluster of them). It holds
// three pieces:
//
//   * the flag block both loadgens declare, validated Cli-style (stderr +
//     exit 2) before any simulation;
//   * observed_run, which wires every sink (tracer, fault injector, cost
//     recorder, scraper, profiler, SLO monitor) around one run of either
//     target and writes the trace, series and collapsed-stack files;
//   * the writers for the per-run report sections (slo_report,
//     timeline_report, cost_report) and for --metrics-out.
//
// Each main keeps only what differs: the serve loadgen's policies,
// comparison and perf sections; the fleet loadgen's routers, scaling and
// membership sections. Header-only, like scrape.hpp and profile.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/serve/service_model.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/cli.hpp"
#include "ghs/util/error.hpp"
#include "profile.hpp"
#include "scrape.hpp"
#include "serve_perf.hpp"

namespace ghs::bench {

/// Runs `parse` on the value of `flag` and turns any exception it throws
/// into a Cli-style "program: flag: message" on stderr plus exit 2:
/// hostile flag values must not reach std::terminate.
template <typename Parse>
auto parse_or_exit(const std::string& program, const char* flag,
                   Parse&& parse) {
  try {
    return parse();
  } catch (const std::exception& error) {
    std::cerr << program << ": " << flag << ": " << error.what() << "\n";
    std::exit(2);
  }
}

/// Exits 2 Cli-style unless `value` is one of `choices`.
inline void require_choice(const std::string& program, const char* flag,
                           const std::string& value,
                           std::initializer_list<const char*> choices) {
  std::string expected;
  for (const char* choice : choices) {
    if (value == choice) return;
    expected += expected.empty() ? choice : std::string("|") + choice;
  }
  std::cerr << program << ": " << flag << " must be one of " << expected
            << ", got '" << value << "'\n";
  std::exit(2);
}

/// The flags both loadgens declare. The pointers are owned by the Cli and
/// hold values once parse_or_exit has run.
struct CommonFlags {
  const std::string* policy;
  const double* rate;
  const long long* jobs;
  const long long* depth;
  const long long* seed;
  const long long* min_log2;
  const long long* max_log2;
  const long long* deadline_us;
  const double* um_fraction;
  const bool* no_batch;
  const bool* no_cpu;
  const std::string* plan;
  const long long* fault_seed;
  const std::string* trace;
  const double* trace_sample;
  const std::string* metrics_out;
  const bool* slo;
  const double* slo_latency_ms;
  const long long* scrape_interval;
  const std::string* series_out;
  const long long* profile_interval;
  const std::string* profile_out;
  const bool* cost_report;
};

inline CommonFlags add_common_flags(Cli& cli,
                                    const std::string& default_policy,
                                    const std::string& policy_help,
                                    long long default_jobs) {
  CommonFlags f{};
  f.policy = cli.add_string("policy", default_policy, policy_help);
  f.rate = cli.add_double(
      "rate", 100000.0, "open-loop arrival rate, jobs/s (per node on a fleet)");
  f.jobs = cli.add_int("jobs", default_jobs, "total jobs to submit");
  f.depth = cli.add_int("depth", 64, "admission queue depth (per node)");
  f.seed = cli.add_int("seed", 42, "workload RNG seed");
  f.min_log2 = cli.add_int("min-log2", 16, "smallest job, log2(elements)");
  f.max_log2 = cli.add_int("max-log2", 21, "largest job, log2(elements)");
  f.deadline_us =
      cli.add_int("deadline-us", 0, "relative deadline (0 = best effort)");
  f.um_fraction = cli.add_double(
      "um-fraction", 0.0,
      "fraction of jobs over unified-memory buffers (GPU-only placement)");
  f.no_batch = cli.add_flag("no-batch", "disable launch batching");
  f.no_cpu = cli.add_flag("no-cpu", "GPU-only device pools (no Grace CPU)");
  f.plan = cli.add_string("plan", "",
                          "fault-plan file (e.g. configs/chaos.plan)");
  f.fault_seed = cli.add_int("fault-seed", 7, "fault-injector RNG seed");
  f.trace =
      cli.add_string("trace", "", "write a Chrome-trace JSON timeline here");
  f.trace_sample = cli.add_double(
      "trace-sample", 1.0,
      "fraction of job traces kept by the head sampler (1.0 = all)");
  f.metrics_out = cli.add_string(
      "metrics-out", "",
      "write Prometheus metrics here (+ JSON snapshot at FILE.json)");
  f.slo = cli.add_flag(
      "slo", "evaluate SLOs per run and append an slo_report section");
  f.slo_latency_ms = cli.add_double(
      "slo-latency-ms", 1.0, "latency_p99 objective threshold, milliseconds");
  f.scrape_interval = cli.add_int(
      "scrape-interval", 0,
      "sim-time metrics scrape interval, microseconds (0 = off)");
  f.series_out = cli.add_string(
      "series-out", "",
      "write the scraped time-series dump here (.csv for CSV)");
  f.profile_interval = cli.add_int(
      "profile-interval", 0,
      "sim-time profiler sample interval, microseconds (0 = off)");
  f.profile_out = cli.add_string(
      "profile-out", "",
      "write collapsed stacks here (flamegraph.pl-compatible)");
  f.cost_report = cli.add_flag(
      "cost-report",
      "append per-tenant cost attribution to the report (+ stderr table)");
  return f;
}

/// What one observed run records and writes.
struct Observe {
  std::string program;
  telemetry::Sink sink;
  std::string trace_path;
  /// Head-sampling rate; 1.0 keeps every span (and leaves the trace file
  /// byte-identical to a sampler-free run).
  double trace_sample = 1.0;
  std::uint64_t trace_seed = 0;
  ScrapeSettings scrape;
  ProfileSettings profile;
  /// Empty = no SLO section.
  std::vector<slo::Objective> slo;
  /// An injector is built only when a plan is set: its constructor
  /// registers the ghs_fault_* counters.
  std::optional<fault::FaultPlan> plan;
  std::uint64_t fault_seed = 7;
  /// Timeline queue capacity (the per-node admission depth).
  std::size_t queue_depth = 0;
};

/// The sinks observed_run hands to its target's constructor. Each is null
/// when its flag is off.
struct RunHooks {
  fault::Injector* injector;
  profile::Recorder* recorder;
  trace::Tracer* tracer;
};

/// One run's report sections, each a finished JSON value.
struct RunSections {
  std::string slo;
  std::string timeline;
  std::string cost;
};

/// Runs one target (a serve::ReductionService or a cluster::Cluster) with
/// every sink `observe` asks for. `make(hooks)` builds the target around
/// the hooks and returns it in a unique_ptr; `drive(target)` submits the
/// workload and runs it. The trace, series and collapsed-stack files are
/// rewritten by every run, so the last run wins them. `sections` (may be
/// null) receives the SLO, timeline and cost sections; `perf` (may be
/// null) the run's wall-clock throughput.
template <typename Make, typename Drive>
auto observed_run(const Observe& observe, const std::string& label, Make make,
                  Drive drive, RunSections* sections,
                  PerfSample* perf = nullptr) {
  trace::Tracer tracer;
  const bool tracing = !observe.trace_path.empty();
  tracer.set_sampler(
      trace::SamplerOptions{observe.trace_sample, observe.trace_seed});
  // A fresh injector per run replays the same (plan, seed) chaos for every
  // policy or router, so their reports are comparable. Declared before the
  // target, like the recorder, so its pointers outlive the target.
  std::optional<fault::Injector> injector;
  if (observe.plan) {
    injector.emplace(*observe.plan, observe.fault_seed, observe.sink);
  }
  const bool profiling = observe.profile.enabled();
  std::optional<profile::Recorder> recorder;
  if (profiling) recorder.emplace();
  const auto target =
      make(RunHooks{injector ? &*injector : nullptr,
                    recorder ? &*recorder : nullptr,
                    tracing ? &tracer : nullptr});
  const bool scraping = observe.scrape.enabled();
  timeseries::Tsdb store;
  std::optional<timeseries::Scraper> scraper;
  if (scraping) {
    timeseries::ScraperOptions scraper_options;
    scraper_options.interval = observe.scrape.interval;
    scraper.emplace(target->sim(), *observe.sink.metrics, store,
                    scraper_options);
    scraper->start();
  }
  std::optional<profile::Profiler> profiler;
  if (observe.profile.sampling()) {
    profile::ProfilerOptions profiler_options;
    profiler_options.interval = observe.profile.interval;
    profiler.emplace(target->sim(), *recorder, profiler_options, &store);
    profiler->start();
  }
  const WallTimer timer;
  drive(*target);
  if (scraping) scraper->finish();
  if (profiler) profiler->finish();
  if (profiling) {
    // Attribution must reconcile with the target's own busy/byte totals
    // (a fleet adds interconnect and replay bytes) on every profiled run,
    // under chaos too, not just when the report is requested.
    const auto check =
        recorder->ledger().check(target->conservation_totals());
    GHS_REQUIRE(check.ok(), "cost attribution leaked on '" << label << "'");
  }
  if (perf != nullptr) {
    perf->policy = label;
    perf->wall_seconds = timer.elapsed_seconds();
    perf->sim_events = target->sim().events_processed();
    perf->jobs_served = static_cast<std::uint64_t>(target->records().size());
    perf->peak_queue_size = target->sim().peak_queue_size();
  }
  if (tracing && tracer.sampler_active() && observe.sink.metrics != nullptr) {
    // Sampler drops are a pure function of (seed, trace ids), so unlike
    // the wall gauge this counter may live in the deterministic snapshot.
    observe.sink.metrics
        ->counter("ghs_trace_dropped_by_sampler_total", {},
                  "Span/instant records rejected by the trace head sampler")
        .inc(tracer.dropped_by_sampler());
  }
  if (tracing) {
    auto out = open_output_or_exit(observe.program, observe.trace_path);
    trace::ChromeTraceExporter exporter(tracer);
    if (scraping) add_counter_tracks(exporter, store, observe.scrape.interval);
    if (profiler) add_profile_tracks(exporter, *profiler);
    exporter.write(out);
  }
  if (profiler) write_profile_file(observe.program, observe.profile, *profiler);
  if (scraping) write_series_file(observe.program, observe.scrape, store,
                                  *scraper);
  if (sections == nullptr) return target->report();
  if (observe.profile.cost_report) {
    std::ostringstream cost_os;
    recorder->ledger().write_json(cost_os, target->conservation_totals());
    sections->cost = cost_os.str();
    std::cerr << "[" << label << "] ";
    recorder->ledger().write_table(std::cerr, /*top_k=*/5);
  }
  if (scraping) {
    timeseries::TimelineOptions timeline_options;
    timeline_options.interval = observe.scrape.interval;
    timeline_options.queue_capacity = observe.queue_depth;
    const auto timeline = timeseries::build_timeline(store, timeline_options);
    std::ostringstream timeline_os;
    timeline.write_json(timeline_os);
    sections->timeline = timeline_os.str();
    std::cerr << "[" << label << "] ";
    timeline.write_table(std::cerr);
  }
  if (!observe.slo.empty()) {
    slo::Monitor monitor(observe.slo);
    if constexpr (requires { target->feed_slo(monitor); }) {
      target->feed_slo(monitor);
    } else {
      monitor.feed(*target);
    }
    std::ostringstream slo_os;
    monitor.evaluate().write_json(slo_os);
    sections->slo = slo_os.str();
  }
  return target->report();
}

/// Appends the slo_report, timeline_report and cost_report sections the
/// runs produced: one entry per run, labelled `"<key>":"<label>"`.
inline void write_sections(std::ostream& out, const Observe& observe,
                           const char* key,
                           const std::vector<std::string>& labels,
                           const std::vector<RunSections>& runs) {
  const auto section = [&](bool on, const char* name, const char* field,
                           std::string RunSections::*member) {
    if (!on) return;
    out << ",\"" << name << "\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"" << key << "\":\"" << labels[i] << "\",\"" << field
          << "\":" << runs[i].*member << "}";
    }
    out << "]";
  };
  section(!observe.slo.empty(), "slo_report", "slo", &RunSections::slo);
  section(observe.scrape.enabled(), "timeline_report", "timeline",
          &RunSections::timeline);
  section(observe.profile.cost_report, "cost_report", "cost",
          &RunSections::cost);
}

/// The validated common flags and the telemetry every run of the process
/// feeds: one registry accumulates across all runs.
class Harness {
 public:
  /// Validates the common flags, exiting 2 Cli-style on bad input.
  /// `policies` lists the accepted --policy values; "all" expands to the
  /// rest of the list.
  Harness(std::string program, const CommonFlags& flags,
          std::initializer_list<const char*> policies)
      : flags_(flags) {
    const auto scrape = scrape_settings_or_exit(program, *flags.scrape_interval,
                                                *flags.series_out);
    const auto profile = profile_settings_or_exit(
        program, *flags.profile_interval, *flags.profile_out,
        *flags.cost_report);
    require_positive(program, "--jobs", *flags.jobs);
    require_positive(program, "--rate", *flags.rate);
    require_positive(program, "--depth", *flags.depth);
    require_fraction(program, "--trace-sample", *flags.trace_sample);
    require_fraction(program, "--um-fraction", *flags.um_fraction);
    require_writable_path(program, *flags.metrics_out);
    require_writable_path(program, *flags.trace);
    require_choice(program, "--policy", *flags.policy, policies);
    for (const std::string policy : policies) {
      const bool picked = *flags.policy == "all" || *flags.policy == policy;
      if (policy != "all" && picked) policies_.push_back(policy);
    }
    if (!flags.plan->empty()) {
      observe_.plan = parse_or_exit(
          program, "--plan", [&] { return fault::load_plan(*flags.plan); });
    }

    // Null pointers keep telemetry free when neither --metrics-out nor
    // --scrape-interval was given.
    if (!flags.metrics_out->empty() || scrape.enabled()) {
      observe_.sink = telemetry::Sink{&registry_, &flight_};
    }
    observe_.sink.timeline = scrape.enabled();
    observe_.program = std::move(program);
    observe_.trace_path = *flags.trace;
    observe_.trace_sample = *flags.trace_sample;
    observe_.trace_seed = static_cast<std::uint64_t>(*flags.seed);
    observe_.scrape = scrape;
    observe_.profile = profile;
    if (*flags.slo) {
      // Three-nines availability plus a p99 latency bound.
      observe_.slo.push_back(slo::Objective{
          "availability", slo::ObjectiveKind::kAvailability, 0.999, 0.0});
      observe_.slo.push_back(
          slo::Objective{"latency_p99", slo::ObjectiveKind::kLatencyQuantile,
                         0.99, *flags.slo_latency_ms});
    }
    observe_.fault_seed = static_cast<std::uint64_t>(*flags.fault_seed);
    observe_.queue_depth = static_cast<std::size_t>(*flags.depth);

    service_.queue_depth = static_cast<std::size_t>(*flags.depth);
    service_.batching.enable = !*flags.no_batch;
    service_.use_cpu = !*flags.no_cpu;
    service_.telemetry = observe_.sink;

    serve::ServiceModelOptions model_options;
    model_options.telemetry = observe_.sink;
    model_.emplace(model_options);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const Observe& observe() const { return observe_; }
  /// The --policy values to run ("all" expanded).
  const std::vector<std::string>& policies() const { return policies_; }
  /// Per-service options: depth, batching, CPU pool, queue kind, telemetry.
  const serve::ServiceOptions& service_options() const { return service_; }
  serve::ServiceModel& model() { return *model_; }

  /// The open-loop workload at --rate (a fleet scales the rate by nodes).
  serve::OpenLoopOptions open_loop() const {
    serve::OpenLoopOptions open;
    open.shape.min_log2_elements = static_cast<int>(*flags_.min_log2);
    open.shape.max_log2_elements = static_cast<int>(*flags_.max_log2);
    open.shape.deadline = *flags_.deadline_us * kMicrosecond;
    open.shape.um_fraction = *flags_.um_fraction;
    open.rate_hz = *flags_.rate;
    open.jobs = *flags_.jobs;
    open.seed = static_cast<std::uint64_t>(*flags_.seed);
    return open;
  }

  /// Appends the workload keys echoed only while their sink is on, so
  /// unobserved reports keep their exact bytes.
  void write_sink_echo(std::ostream& out) const {
    if (observe_.scrape.enabled()) {
      out << ",\"scrape_interval_us\":" << *flags_.scrape_interval;
    }
    if (observe_.profile.sampling()) {
      out << ",\"profile_interval_us\":" << *flags_.profile_interval;
    }
  }

  /// With --metrics-out: appends the `"metrics"` snapshot to the report
  /// and writes the Prometheus exposition and the FILE.json snapshot.
  void finish_metrics(std::ostream& report) {
    const std::string& path = *flags_.metrics_out;
    if (path.empty()) return;
    // Wall time is run-dependent, so the gauge is volatile: it shows up in
    // the Prometheus exposition but not in the JSON snapshots, keeping
    // same-seed snapshots byte-identical.
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start_;
    registry_
        .gauge("ghs_bench_wall_seconds", {},
               "wall-clock duration of this bench process",
               /*volatile_instrument=*/true)
        .set(wall.count());
    report << ",\"metrics\":";
    telemetry::write_json_snapshot(report, registry_);
    telemetry::ExportOptions prom_options;
    prom_options.include_volatile = true;
    auto prom = open_output_or_exit(observe_.program, path);
    telemetry::write_prometheus(prom, registry_, prom_options);
    auto snapshot = open_output_or_exit(observe_.program, path + ".json");
    telemetry::write_json_snapshot(snapshot, registry_);
    snapshot << "\n";
  }

 private:
  const std::chrono::steady_clock::time_point wall_start_ =
      std::chrono::steady_clock::now();
  CommonFlags flags_;
  telemetry::Registry registry_;
  telemetry::FlightRecorder flight_;
  Observe observe_;
  std::vector<std::string> policies_;
  serve::ServiceOptions service_;
  std::optional<serve::ServiceModel> model_;
};

}  // namespace ghs::bench
