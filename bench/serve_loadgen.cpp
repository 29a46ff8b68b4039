// Load generator for the ghs::serve request-serving layer.
//
// Synthesises a mixed C1-C4 workload (open-loop Poisson arrivals by
// default, closed-loop with --closed), serves it under one or more
// scheduler policies, and emits a JSON throughput/latency report:
//
//   $ ./bench/serve_loadgen                         # fifo vs sjf vs bandwidth
//   $ ./bench/serve_loadgen --policy=bandwidth --rate=200000 --jobs=500
//   $ ./bench/serve_loadgen --trace=serve.json      # Chrome-trace timeline
//   $ ./bench/serve_loadgen --slo --slo-latency-ms=0.5   # burn-rate report
//   $ ./bench/serve_loadgen --perf                  # event-core throughput
//   $ ./bench/serve_loadgen --trace=t.json --trace-sample=0.01  # 1% of jobs
//   $ ./bench/serve_loadgen --policy=fifo --plan=configs/chaos.plan  # chaos
//
// The report is one JSON object: "workload" echoes the generator settings,
// "policies" holds one serve report per policy (p50/p95/p99 latency and
// queue wait, rejected count, batching and placement counters), and
// "comparison" contrasts bandwidth-aware against FIFO when both ran.
//
// --plan runs every policy under a fault::FaultPlan (transient kernel
// failures, bandwidth brown-outs, device-down outages, migration stalls)
// that the service defends against with retries, circuit breakers,
// deadline-aware shedding and CPU fallback; a "fault" section echoes the
// plan. Every run asserts that no job is lost: each submitted job is
// served, rejected at admission, or shed.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/util/cli.hpp"
#include "ghs/util/error.hpp"
#include "build_info.hpp"
#include "loadgen.hpp"
#include "serve_perf.hpp"

int main(int argc, char** argv) {
  using namespace ghs;
  Cli cli("serve_loadgen",
          "open/closed-loop load generator for the reduction service");
  const auto flags =
      bench::add_common_flags(cli, "all", "all|fifo|sjf|bandwidth", 200);
  const auto* closed = cli.add_flag("closed", "closed loop instead of open");
  const auto* tenants = cli.add_int("tenants", 8, "closed-loop tenants");
  const auto* think_us =
      cli.add_int("think-us", 0, "closed-loop think time between jobs");
  const auto* perf = cli.add_flag(
      "perf", "append wall-clock event-core throughput (machine-dependent)");
  cli.parse_or_exit(argc, argv);
  bench::Harness harness("serve_loadgen", flags,
                         {"all", "fifo", "sjf", "bandwidth"});
  const bench::Observe& observe = harness.observe();
  const std::vector<std::string>& policies = harness.policies();

  const serve::OpenLoopOptions open = harness.open_loop();
  serve::ClosedLoopOptions closed_opts;
  closed_opts.shape = open.shape;
  closed_opts.tenants = static_cast<int>(*tenants);
  closed_opts.jobs = open.jobs;
  closed_opts.think_time = *think_us * kMicrosecond;
  closed_opts.seed = open.seed;
  const serve::ServiceOptions& service_options = harness.service_options();

  std::ostringstream out;
  out << "{";
  bench::write_build_info(out);
  out << ",\"workload\":{\"mode\":\"" << (*closed ? "closed" : "open")
      << "\"";
  if (*closed) {
    out << ",\"tenants\":" << closed_opts.tenants
        << ",\"think_us\":" << *think_us;
  } else {
    out << ",\"rate_hz\":" << *flags.rate;
  }
  out << ",\"jobs\":" << *flags.jobs << ",\"seed\":" << *flags.seed
      << ",\"min_log2_elements\":" << *flags.min_log2
      << ",\"max_log2_elements\":" << *flags.max_log2
      << ",\"deadline_us\":" << *flags.deadline_us
      << ",\"um_fraction\":" << *flags.um_fraction
      << ",\"queue_depth\":" << *flags.depth << ",\"batching\":"
      << (service_options.batching.enable ? "true" : "false")
      << ",\"cpu_pool\":" << (service_options.use_cpu ? "true" : "false");
  harness.write_sink_echo(out);
  out << "}";
  if (observe.plan) {
    // Retry and breaker settings are the ServiceOptions defaults.
    out << ",\"fault\":{\"plan\":\"" << *flags.plan
        << "\",\"seed\":" << *flags.fault_seed
        << ",\"specs\":" << observe.plan->size()
        << ",\"max_attempts\":" << service_options.retry.max_attempts
        << ",\"breaker_threshold\":"
        << service_options.breaker.failure_threshold << "}";
  }
  out << ",\"policies\":[";

  std::vector<serve::ServiceReport> reports;
  std::vector<bench::RunSections> sections(policies.size());
  std::vector<bench::PerfSample> perf_samples(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const std::string& name = policies[i];
    const auto make = [&](const bench::RunHooks& hooks) {
      serve::ServiceOptions options = service_options;
      options.injector = hooks.injector;
      options.profile = hooks.recorder;
      return std::make_unique<serve::ReductionService>(
          serve::make_policy(name, harness.model()), harness.model(), options,
          hooks.tracer);
    };
    const auto drive = [&](serve::ReductionService& service) {
      if (*closed) {
        serve::run_closed_loop(service, closed_opts);
      } else {
        service.submit_all(serve::open_loop_poisson(open));
        service.run();
      }
    };
    const auto& report =
        reports.emplace_back(bench::observed_run(observe, name, make, drive,
                                                 &sections[i],
                                                 *perf ? &perf_samples[i]
                                                       : nullptr));
    // Faults may delay, degrade or shed work, but never lose a job.
    GHS_CHECK(report.submitted ==
                  report.served + report.rejected + report.shed,
              "lost jobs under " << name << ": submitted=" << report.submitted
                                 << " served=" << report.served
                                 << " rejected=" << report.rejected
                                 << " shed=" << report.shed);
    if (i > 0) out << ",";
    report.write_json(out);
  }
  out << "]";
  bench::write_sections(out, observe, "policy", policies, sections);
  if (policies.size() == 3 && reports[0].throughput_gbps > 0.0) {
    // --policy=all ran fifo first and bandwidth last.
    const serve::ServiceReport& fifo = reports.front();
    const serve::ServiceReport& bandwidth = reports.back();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  bandwidth.throughput_gbps / fifo.throughput_gbps);
    out << ",\"comparison\":{\"fifo_gbps\":" << fifo.throughput_gbps
        << ",\"bandwidth_gbps\":" << bandwidth.throughput_gbps
        << ",\"bandwidth_over_fifo\":" << buf << "}";
  }
  if (*perf) {
    // Wall-clock section: machine-dependent by design, so it only exists
    // behind --perf and never perturbs byte-identity checks on the
    // default report.
    out << ",\"perf\":";
    bench::write_perf_json(out, perf_samples);
  }
  harness.finish_metrics(out);
  out << "}";
  std::cout << out.str() << "\n";
  return 0;
}
