// serve_1m and serve_1m_observed: one ReductionService under the
// bandwidth-aware policy (GPU plus Grace CPU, tuner), fed 10^6 open-loop
// Poisson jobs at 100 k jobs/s (mixed C1-C4, 2^16-2^21 elements, explicit
// map, depth 64, batching on). The observed variant serves the same jobs
// with every sink on: registry + flight recorder, a 1 ms TSDB scrape, the
// 1 ms profiler with its cost ledger, and 1% head-sampled tracing exported
// into memory.
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/timeseries/scraper.hpp"
#include "ghs/timeseries/tsdb.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/trace/tracer.hpp"

namespace perfbench {

namespace {

using namespace ghs;

constexpr double kRateHz = 100000.0;
constexpr SimTime kSinkInterval = kMillisecond;
constexpr double kTraceSample = 0.01;

/// The bandwidth-aware policy with a span around each select/geometry
/// call. It subclasses rather than wraps the policy, so the service's
/// dynamic_cast to BandwidthAwarePolicy still finds the tuner cache and
/// the report stays byte-identical to an untimed run.
class TimedBandwidthPolicy : public serve::BandwidthAwarePolicy {
 public:
  TimedBandwidthPolicy(serve::ServiceModel& model, SpanLog& spans)
      : BandwidthAwarePolicy(model),
        spans_(spans),
        select_(spans.intern("serve.policy.select")),
        geometry_(spans.intern("serve.policy.geometry")) {}

  std::optional<std::size_t> select(const serve::AdmissionQueue& queue,
                                    serve::Placement device,
                                    SimTime now) override {
    Scope scope(spans_, select_);
    return BandwidthAwarePolicy::select(queue, device, now);
  }

  core::ReduceTuning geometry(const serve::Job& job) override {
    Scope scope(spans_, geometry_);
    return BandwidthAwarePolicy::geometry(job);
  }

 private:
  SpanLog& spans_;
  std::uint32_t select_;
  std::uint32_t geometry_;
};

/// Host time to price this run's distinct shapes on a fresh model: every
/// launch (case, device, summed elements, tuning) and every per-job
/// CPU-eligibility probe. The workload is explicit-map only, so there are
/// no unified shapes. Returns seconds; `shapes` gets the fresh misses.
double cold_price_seconds(const serve::ReductionService& service,
                          serve::BandwidthAwarePolicy& policy,
                          const serve::ServiceModelOptions& model_options,
                          std::int64_t* shapes) {
  struct Launch {
    serve::Placement placement = serve::Placement::kGpu;
    std::int64_t elements = 0;
    const serve::Job* front = nullptr;
  };
  std::map<std::int64_t, Launch> launches;
  for (const auto& record : service.records()) {
    auto& launch = launches[record.launch_id];
    launch.placement = record.placement;
    launch.elements += record.job.elements;
    if (launch.front == nullptr || record.job.id < launch.front->id) {
      launch.front = &record.job;
    }
  }
  using Shape = std::tuple<int, std::int64_t, std::int64_t, int, int, int>;
  std::set<Shape> gpu;
  std::set<std::pair<int, std::int64_t>> cpu;
  // geometry() is a tuner-cache hit here: every shape was seen in the run.
  const auto gpu_shape = [&policy](const serve::Job& job,
                                   std::int64_t elements) {
    const auto t = policy.BandwidthAwarePolicy::geometry(job);
    return Shape{static_cast<int>(job.case_id), elements, t.teams,
                 t.thread_limit, t.v, static_cast<int>(t.strategy)};
  };
  for (const auto& [id, launch] : launches) {
    const auto& job = *launch.front;
    if (launch.placement == serve::Placement::kCpu) {
      cpu.emplace(static_cast<int>(job.case_id), launch.elements);
    } else {
      gpu.insert(gpu_shape(job, launch.elements));
    }
  }
  const Bytes max_cpu_bytes =
      serve::BandwidthAwarePolicy::Options{}.max_cpu_bytes;
  for (const auto& record : service.records()) {
    if (record.job.bytes() > max_cpu_bytes) continue;
    cpu.emplace(static_cast<int>(record.job.case_id), record.job.elements);
    gpu.insert(gpu_shape(record.job, record.job.elements));
  }

  serve::ServiceModelOptions fresh_options = model_options;
  fresh_options.telemetry = telemetry::Sink{};
  serve::ServiceModel fresh(fresh_options);
  const std::int64_t start = now_ns();
  for (const auto& [case_id, elements, teams, threads, v, strategy] : gpu) {
    fresh.gpu_service(
        static_cast<workload::CaseId>(case_id), elements,
        core::ReduceTuning{teams, threads, v,
                           static_cast<gpu::CombineStrategy>(strategy)});
  }
  for (const auto& [case_id, elements] : cpu) {
    fresh.cpu_service(static_cast<workload::CaseId>(case_id), elements);
  }
  const std::int64_t end = now_ns();
  *shapes = fresh.misses();
  return seconds_between(start, end);
}

}  // namespace

std::uint64_t digest_jobs(const std::vector<serve::Job>& jobs) {
  std::uint64_t h = kFnvOffset;
  for (const auto& job : jobs) {
    const std::int64_t fields[] = {job.id,
                                   static_cast<std::int64_t>(job.case_id),
                                   job.elements,
                                   job.arrival,
                                   job.tenant,
                                   job.source_node};
    h = fnv1a(fields, sizeof(fields), h);
  }
  return h;
}

Result run_serve(const Options& opts, SpanLog& spans, bool observed) {
  Result result;

  // ---- setup: inputs, model, policy, service and sinks.
  const std::int64_t setup_start = now_ns();
  std::vector<serve::Job> jobs;
  serve::ServiceModelOptions model_options;
  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  trace::Tracer tracer;
  profile::Recorder recorder;
  timeseries::Tsdb store;
  std::optional<serve::ServiceModel> model;
  std::optional<serve::ReductionService> service;
  std::optional<timeseries::Scraper> scraper;
  std::optional<profile::Profiler> profiler;
  TimedBandwidthPolicy* timed_policy = nullptr;
  {
    Scope setup(spans, "bench.setup");
    {
      Scope scope(spans, "workload.gen");
      serve::OpenLoopOptions open;
      open.rate_hz = kRateHz;
      open.jobs = kJobs;
      open.seed = opts.seed;
      jobs = serve::open_loop_poisson(open);
    }
    serve::ServiceOptions service_options;
    service_options.queue_depth = 64;
    service_options.batching.enable = true;
    service_options.use_cpu = true;
    if (observed) {
      telemetry::Sink sink{&registry, &flight};
      sink.timeline = true;
      model_options.telemetry = sink;
      service_options.telemetry = sink;
      service_options.profile = &recorder;
      tracer.set_sampler(trace::SamplerOptions{kTraceSample, opts.seed});
    }
    {
      Scope scope(spans, "serve.model.ctor");
      model.emplace(model_options);
    }
    std::unique_ptr<serve::SchedulerPolicy> policy;
    if (spans.enabled()) {
      auto timed = std::make_unique<TimedBandwidthPolicy>(*model, spans);
      timed_policy = timed.get();
      policy = std::move(timed);
    } else {
      policy = std::make_unique<serve::BandwidthAwarePolicy>(*model);
    }
    {
      Scope scope(spans, "serve.ctor");
      service.emplace(std::move(policy), *model, service_options,
                      observed ? &tracer : nullptr);
    }
    if (observed) {
      Scope scope(spans, "sinks.start");
      timeseries::ScraperOptions scraper_options;
      scraper_options.interval = kSinkInterval;
      scraper.emplace(service->sim(), registry, store, scraper_options);
      scraper->start();
      profile::ProfilerOptions profiler_options;
      profiler_options.interval = kSinkInterval;
      profiler.emplace(service->sim(), recorder, profiler_options, &store);
      profiler->start();
    }
  }
  const std::int64_t setup_end = now_ns();
  result.inputs_digest = digest_jobs(jobs);
  const auto submitted = static_cast<std::int64_t>(jobs.size());

  // ---- window: submit, run, report, and (observed) the sinks' exports.
  const std::int64_t window_start = now_ns();
  serve::ServiceReport report;
  std::string report_json;
  bool ledger_ok = true;
  std::size_t export_bytes = 0;
  {
    Scope window(spans, "bench.window");
    {
      Scope scope(spans, "serve.submit");
      service->submit_all(std::move(jobs));
    }
    {
      Scope scope(spans, "serve.run");
      service->run();
    }
    if (observed) {
      {
        Scope scope(spans, "timeseries.finish");
        scraper->finish();
      }
      {
        Scope scope(spans, "profile.finish");
        profiler->finish();
      }
      Scope scope(spans, "profile.check");
      ledger_ok = recorder.ledger().check(service->conservation_totals()).ok();
    }
    {
      Scope scope(spans, "serve.report");
      report = service->report();
    }
    {
      Scope scope(spans, "stats.json");
      std::ostringstream os;
      report.write_json(os);
      report_json = os.str();
    }
    if (observed) {
      {
        Scope scope(spans, "telemetry.export");
        std::ostringstream os;
        telemetry::write_json_snapshot(os, registry);
        telemetry::write_prometheus(os, registry);
        export_bytes += os.str().size();
      }
      {
        Scope scope(spans, "profile.report");
        std::ostringstream os;
        recorder.ledger().write_json(os, service->conservation_totals());
        profiler->write_collapsed(os);
        export_bytes += os.str().size();
      }
      Scope scope(spans, "trace.export");
      std::ostringstream os;
      trace::ChromeTraceExporter(tracer).write(os);
      export_bytes += os.str().size();
    }
  }
  const std::int64_t window_end = now_ns();

  // ---- output checks.
  const auto served = static_cast<std::int64_t>(service->records().size());
  const auto rejected =
      static_cast<std::int64_t>(service->rejected_jobs().size());
  const auto shed = static_cast<std::int64_t>(service->shed_jobs().size());
  result.check("submitted == served + rejected + shed",
               submitted == served + rejected + shed &&
                   report.submitted == submitted && report.served == served &&
                   report.rejected == rejected && report.shed == shed,
               std::to_string(submitted) + " vs " + std::to_string(served) +
                   " + " + std::to_string(rejected) + " + " +
                   std::to_string(shed));
  std::int64_t early = 0;
  for (const auto& record : service->records()) {
    if (record.completion < record.job.arrival ||
        record.start < record.job.arrival) {
      ++early;
    }
  }
  result.check("no completion precedes its arrival", early == 0,
               std::to_string(early) + " records end before they arrive");
  if (observed) {
    result.check("cost ledger conservation", ledger_ok,
                 "CostLedger::check against the pool's totals");
  }
  if (opts.seed == kDefaultSeed) {
    // The sinks must not perturb the simulation: both variants share one
    // reference report.
    check_against_reference(opts, "serve_1m.report.json", report_json, result);
  }

  const double setup_s = seconds_between(setup_start, setup_end);
  const double run_s = seconds_between(window_start, window_end);
  result.metric("setup_s", setup_s, "s");
  result.metric("run_s", run_s, "s");
  result.metric("jobs_per_s", static_cast<double>(served) / run_s, "jobs/s");

  const auto& sim = service->sim();
  result.metric("sim.events", static_cast<double>(sim.events_processed()),
                "count");
  result.metric("sim.peak_queue", static_cast<double>(sim.peak_queue_size()),
                "count");
  result.metric("serve.model.hits", static_cast<double>(model->hits()),
                "count");
  result.metric("serve.model.misses", static_cast<double>(model->misses()),
                "count");
  result.metric("serve.tuner.misses", static_cast<double>(report.tuner_misses),
                "count");
  result.metric("serve.launches", static_cast<double>(report.launches),
                "count");
  result.metric("serve.batched_jobs", static_cast<double>(report.batched_jobs),
                "count");
  result.metric("serve.gpu_jobs", static_cast<double>(report.gpu_jobs),
                "count");
  result.metric("serve.cpu_jobs", static_cast<double>(report.cpu_jobs),
                "count");
  result.metric("serve.queue_hwm",
                static_cast<double>(report.queue_high_watermark), "count");
  result.metric("serve.rejected", static_cast<double>(report.rejected),
                "count");
  if (observed) {
    result.metric("timeseries.scrapes", static_cast<double>(scraper->scrapes()),
                  "count");
    result.metric("timeseries.points",
                  static_cast<double>(store.total_points()), "count");
    result.metric("profile.samples", static_cast<double>(profiler->samples()),
                  "count");
    result.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                  "count");
    result.metric("trace.dropped_by_sampler",
                  static_cast<double>(tracer.dropped_by_sampler()), "count");
    result.notes.push_back("sink exports rendered " +
                           std::to_string(export_bytes) + " bytes in memory");
  }

  if (spans.enabled()) {
    const auto t = spans.totals();
    const double run = span_seconds(t, "serve.run");
    result.metric("workload.gen_s", span_seconds(t, "workload.gen"), "s");
    result.metric("serve.submit_s", span_seconds(t, "serve.submit"), "s");
    result.metric("serve.run_s", run, "s");
    result.metric("serve.report_s", span_seconds(t, "serve.report"), "s");
    result.metric("stats.json_s", span_seconds(t, "stats.json"), "s");
    result.metric("serve.policy.select_calls",
                  static_cast<double>(span_count(t, "serve.policy.select")),
                  "count");
    result.metric("serve.policy.select_s",
                  span_seconds(t, "serve.policy.select"), "s");
    result.metric("serve.policy.geometry_calls",
                  static_cast<double>(span_count(t, "serve.policy.geometry")),
                  "count");
    result.metric("serve.policy.geometry_s",
                  span_seconds(t, "serve.policy.geometry"), "s");
    if (observed) {
      result.metric("telemetry.export_s", span_seconds(t, "telemetry.export"),
                    "s");
      result.metric("profile.check_s", span_seconds(t, "profile.check"), "s");
      result.metric("profile.report_s", span_seconds(t, "profile.report"), "s");
      result.metric("trace.export_s", span_seconds(t, "trace.export"), "s");
    }
    result.ratio("sim.ns_per_event", "ns", "serve.run s", run, "sim.events",
                 static_cast<double>(sim.events_processed()));
    result.ratio("serve.us_per_job", "us", "serve.run s", run, "jobs served",
                 static_cast<double>(served));
    std::int64_t shapes = 0;
    result.metric("serve.model.cold_price_s",
                  cold_price_seconds(*service, *timed_policy, model_options,
                                     &shapes),
                  "s");
    result.notes.push_back(
        "serve.model.cold_price_s priced " + std::to_string(shapes) +
        " distinct shapes on a fresh model (the run missed " +
        std::to_string(model->misses()) + " times)");
  }
  result.report = std::move(report_json);
  return result;
}

}  // namespace perfbench
