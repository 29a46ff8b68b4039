// fleet_16: a 16-node Cluster on one shared simulator, least-loaded
// router, fifo on each node. 10^6 jobs at 100 k jobs/s per node, 64
// tenants, and 25% of the jobs' data on the tenant's hash-home node. The
// phi-accrual detector runs at 100 us heartbeats with no crashes, so the
// membership table and the write-ahead journal see every job.
#include <algorithm>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "ghs/cluster/cluster.hpp"
#include "ghs/cluster/ring.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/util/rng.hpp"

namespace perfbench {

namespace {

using namespace ghs;

constexpr int kNodes = 16;
constexpr double kRatePerNodeHz = 100000.0;
constexpr int kTenants = 64;
constexpr double kRemoteFraction = 0.25;

/// Tenant from the job id, and for kRemoteFraction of the jobs a source
/// array on the tenant's hash-home node: the cluster loadgen's sharding.
void shard(std::vector<serve::Job>& jobs, std::uint64_t seed,
           const cluster::HashRing& placement) {
  Rng remote_rng(seed ^ 0xD15C0FF5E7ULL);
  for (auto& job : jobs) {
    job.tenant = static_cast<std::int64_t>(
        cluster::mix64(static_cast<std::uint64_t>(job.id)) %
        static_cast<std::uint64_t>(kTenants));
    if (remote_rng.next_double() < kRemoteFraction) {
      job.source_node = placement.owner(static_cast<std::uint64_t>(job.tenant));
    }
  }
}

}  // namespace

Result run_fleet(const Options& opts, SpanLog& spans) {
  Result result;

  // ---- setup: model, fleet, inputs.
  const std::int64_t setup_start = now_ns();
  std::vector<serve::Job> jobs;
  std::optional<serve::ServiceModel> model;
  std::optional<cluster::Cluster> fleet;
  {
    Scope setup(spans, "bench.setup");
    {
      Scope scope(spans, "serve.model.ctor");
      model.emplace();
    }
    cluster::ClusterOptions options;
    options.nodes = kNodes;
    options.router = cluster::RouterPolicy::kLeast;
    options.policy = "fifo";
    options.node.queue_depth = 64;
    options.node.batching.enable = true;
    options.node.use_cpu = true;
    options.health.enabled = true;
    options.health.interval = 100 * kMicrosecond;
    {
      Scope scope(spans, "cluster.ctor");
      fleet.emplace(*model, options);
    }
    Scope scope(spans, "workload.gen");
    serve::OpenLoopOptions open;
    open.rate_hz = kRatePerNodeHz * kNodes;
    open.jobs = kJobs;
    open.seed = opts.seed;
    jobs = serve::open_loop_poisson(open);
    shard(jobs, opts.seed, fleet->router().ring());
  }
  const std::int64_t setup_end = now_ns();
  result.inputs_digest = digest_jobs(jobs);
  const auto submitted = static_cast<std::int64_t>(jobs.size());

  // ---- window.
  const std::int64_t window_start = now_ns();
  cluster::ClusterReport report;
  std::string report_json;
  {
    Scope window(spans, "bench.window");
    {
      Scope scope(spans, "cluster.submit");
      fleet->submit_all(std::move(jobs));
    }
    {
      Scope scope(spans, "cluster.run");
      fleet->run();
    }
    {
      Scope scope(spans, "cluster.report");
      report = fleet->report();
    }
    Scope scope(spans, "stats.json");
    std::ostringstream os;
    report.write_json(os);
    report_json = os.str();
  }
  const std::int64_t window_end = now_ns();

  // ---- output checks.
  const auto served = static_cast<std::int64_t>(fleet->records().size());
  const auto rejected =
      static_cast<std::int64_t>(fleet->rejected_jobs().size());
  const auto shed = static_cast<std::int64_t>(fleet->shed_jobs().size());
  result.check("submitted == served + rejected + shed",
               submitted == served + rejected + shed &&
                   report.submitted == submitted && report.served == served &&
                   report.rejected == rejected && report.shed == shed,
               std::to_string(submitted) + " vs " + std::to_string(served) +
                   " + " + std::to_string(rejected) + " + " +
                   std::to_string(shed));
  std::int64_t early = 0;
  for (const auto& record : fleet->records()) {
    if (record.record.completion < record.original_arrival) ++early;
  }
  result.check("no completion precedes its arrival", early == 0,
               std::to_string(early) + " records end before they arrive");
  const auto* journal = fleet->journal();
  const std::int64_t appended = journal != nullptr ? journal->appended() : -1;
  const std::int64_t committed = journal != nullptr ? journal->committed() : -2;
  result.check("journal appended == committed (no crashes)",
               appended == committed && appended >= served,
               std::to_string(appended) + " appended, " +
                   std::to_string(committed) + " committed");
  if (opts.seed == kDefaultSeed) {
    check_against_reference(opts, "fleet_16.report.json", report_json, result);
  }

  const double setup_s = seconds_between(setup_start, setup_end);
  const double run_s = seconds_between(window_start, window_end);
  result.metric("setup_s", setup_s, "s");
  result.metric("run_s", run_s, "s");
  result.metric("jobs_per_s", static_cast<double>(served) / run_s, "jobs/s");

  auto& sim = fleet->sim();
  result.metric("sim.events", static_cast<double>(sim.events_processed()),
                "count");
  result.metric("sim.peak_queue", static_cast<double>(sim.peak_queue_size()),
                "count");
  result.metric("serve.model.hits", static_cast<double>(model->hits()),
                "count");
  result.metric("serve.model.misses", static_cast<double>(model->misses()),
                "count");
  std::int64_t launches = 0, batched = 0, gpu_jobs = 0, cpu_jobs = 0;
  std::int64_t node_rejected = 0;
  std::size_t hwm = 0;
  for (const auto& node : report.node_reports) {
    launches += node.launches;
    batched += node.batched_jobs;
    gpu_jobs += node.gpu_jobs;
    cpu_jobs += node.cpu_jobs;
    node_rejected += node.rejected;
    hwm = std::max(hwm, node.queue_high_watermark);
  }
  result.metric("serve.launches", static_cast<double>(launches), "count");
  result.metric("serve.batched_jobs", static_cast<double>(batched), "count");
  result.metric("serve.gpu_jobs", static_cast<double>(gpu_jobs), "count");
  result.metric("serve.cpu_jobs", static_cast<double>(cpu_jobs), "count");
  result.metric("serve.queue_hwm", static_cast<double>(hwm), "count");
  result.metric("serve.rejected", static_cast<double>(node_rejected), "count");
  result.metric("cluster.transfers", static_cast<double>(report.transfers),
                "count");
  result.metric("cluster.transfer_gb", report.transfer_gb, "GB");
  result.metric("cluster.remote_jobs", static_cast<double>(report.remote_jobs),
                "count");
  result.metric("cluster.spills", static_cast<double>(report.spills), "count");
  result.metric("cluster.steals", static_cast<double>(report.steals), "count");
  result.metric("cluster.imbalance", report.imbalance, "ratio");
  result.metric("membership.appended", static_cast<double>(appended), "count");
  result.metric("membership.committed", static_cast<double>(committed),
                "count");

  if (spans.enabled()) {
    const auto t = spans.totals();
    const double run = span_seconds(t, "cluster.run");
    result.metric("workload.gen_s", span_seconds(t, "workload.gen"), "s");
    result.metric("cluster.ctor_s", span_seconds(t, "cluster.ctor"), "s");
    result.metric("cluster.submit_s", span_seconds(t, "cluster.submit"), "s");
    result.metric("cluster.run_s", run, "s");
    result.metric("cluster.report_s", span_seconds(t, "cluster.report"), "s");
    result.metric("stats.json_s", span_seconds(t, "stats.json"), "s");
    result.ratio("sim.ns_per_event", "ns", "cluster.run s", run, "sim.events",
                 static_cast<double>(sim.events_processed()));
    result.ratio("cluster.us_per_job", "us", "cluster.run s", run,
                 "jobs served", static_cast<double>(served));
  }
  result.report = std::move(report_json);
  return result;
}

}  // namespace perfbench
