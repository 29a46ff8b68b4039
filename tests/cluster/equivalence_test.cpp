// The determinism guard for clustering: a single-node passthrough fleet is
// the standalone service, byte for byte — same report JSON, same telemetry
// snapshot, same chrome trace. Any cluster machinery that leaks into the
// nodes=1 wire-through (an extra event, a perturbed instrument, a resequenced
// arrival) breaks these string equalities.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ghs/cluster/cluster.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs::cluster {
namespace {

serve::OpenLoopOptions small_workload(std::uint64_t seed) {
  serve::OpenLoopOptions load;
  load.jobs = 120;
  load.rate_hz = 300000.0;  // past capacity: queues, rejections, batching
  load.seed = seed;
  load.shape.min_log2_elements = 14;
  load.shape.max_log2_elements = 18;
  return load;
}

struct RunOutput {
  std::string report;
  std::string metrics;
  std::string trace;
};

serve::ServiceOptions base_options(telemetry::Registry* registry) {
  serve::ServiceOptions options;
  options.queue_depth = 16;
  options.telemetry.metrics = registry;
  return options;
}

RunOutput run_standalone(std::uint64_t seed) {
  telemetry::Registry registry;
  trace::Tracer tracer;
  serve::ServiceModel model;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  base_options(&registry), &tracer);
  service.submit_all(serve::open_loop_poisson(small_workload(seed)));
  service.run();
  RunOutput out;
  std::ostringstream report;
  service.report().write_json(report);
  out.report = report.str();
  std::ostringstream metrics;
  telemetry::write_json_snapshot(metrics, registry);
  out.metrics = metrics.str();
  std::ostringstream trace_json;
  trace::ChromeTraceExporter(tracer).write(trace_json);
  out.trace = trace_json.str();
  return out;
}

RunOutput run_passthrough(std::uint64_t seed) {
  telemetry::Registry registry;
  trace::Tracer tracer;
  serve::ServiceModel model;
  ClusterOptions options;
  options.nodes = 1;
  options.router = RouterPolicy::kPassthrough;
  options.node = base_options(&registry);
  Cluster fleet(model, options, &tracer);
  // The workload is the standalone one verbatim: passthrough must not
  // require (or react to) tenant or placement annotations.
  fleet.submit_all(serve::open_loop_poisson(small_workload(seed)));
  fleet.run();
  RunOutput out;
  std::ostringstream report;
  fleet.report().node_reports.at(0).write_json(report);
  out.report = report.str();
  std::ostringstream metrics;
  telemetry::write_json_snapshot(metrics, registry);
  out.metrics = metrics.str();
  std::ostringstream trace_json;
  trace::ChromeTraceExporter(tracer).write(trace_json);
  out.trace = trace_json.str();
  return out;
}

TEST(PassthroughEquivalence, ReportSnapshotAndTraceAreByteIdentical) {
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    const RunOutput standalone = run_standalone(seed);
    const RunOutput fleet = run_passthrough(seed);
    EXPECT_EQ(standalone.report, fleet.report) << "seed " << seed;
    EXPECT_EQ(standalone.metrics, fleet.metrics) << "seed " << seed;
    EXPECT_EQ(standalone.trace, fleet.trace) << "seed " << seed;
  }
}

TEST(PassthroughEquivalence, ClusterTotalsMirrorTheSingleNode) {
  serve::ServiceModel model;
  ClusterOptions options;
  options.nodes = 1;
  options.router = RouterPolicy::kPassthrough;
  options.node.queue_depth = 16;
  Cluster fleet(model, options);
  fleet.submit_all(serve::open_loop_poisson(small_workload(42)));
  fleet.run();
  const ClusterReport report = fleet.report();
  const serve::ServiceReport& node = report.node_reports.at(0);
  EXPECT_EQ(report.submitted, node.submitted);
  EXPECT_EQ(report.served, node.served);
  EXPECT_EQ(report.rejected, node.rejected);
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_EQ(report.remote_jobs, 0);
  EXPECT_EQ(report.transfers, 0);
  EXPECT_EQ(report.spills, 0);
  EXPECT_EQ(report.steals, 0);
  EXPECT_EQ(fleet.interconnect(), nullptr);
}

TEST(PassthroughEquivalence, PassthroughRequiresExactlyOneNode) {
  serve::ServiceModel model;
  ClusterOptions options;
  options.nodes = 2;
  options.router = RouterPolicy::kPassthrough;
  EXPECT_THROW(Cluster(model, options), Error);
}

}  // namespace
}  // namespace ghs::cluster
