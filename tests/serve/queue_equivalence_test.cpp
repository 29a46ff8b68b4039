// End-to-end contracts of the serve layer's event-core plumbing. The
// chained arrival pump dispatches in the same order as per-job submit(),
// with an event queue that stays shallow no matter how large the batch is;
// the trace head sampler is a pure performance choice, so the same seed
// produces a byte-identical report whatever the rate, and (at rate 1.0) a
// byte-identical trace file.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs::serve {
namespace {

OpenLoopOptions small_workload(std::uint64_t seed) {
  OpenLoopOptions load;
  load.jobs = 120;
  load.rate_hz = 300000.0;  // past capacity: queues, rejections, batching
  load.seed = seed;
  load.shape.min_log2_elements = 14;
  load.shape.max_log2_elements = 18;
  return load;
}

TEST(QueueEquivalenceTest, ChainedPumpKeepsTheQueueShallow) {
  // 10^3 jobs submitted as one sorted batch: the pump injects arrivals one
  // at a time, so the queue depth tracks in-flight service work (a handful
  // of events), not the batch size.
  OpenLoopOptions load = small_workload(42);
  load.jobs = 1000;
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options);
  service.submit_all(open_loop_poisson(load));
  service.run();
  EXPECT_EQ(service.records().size() + service.rejected_jobs().size(), 1000u);
  EXPECT_LE(service.sim().peak_queue_size(), 8u);
}

TEST(QueueEquivalenceTest, BatchAndPerJobSubmissionMatch) {
  const auto jobs = open_loop_poisson(small_workload(42));
  std::string reports[2];
  for (int batched = 0; batched < 2; ++batched) {
    ServiceModel model;
    ServiceOptions options;
    options.queue_depth = 16;
    ReductionService service(make_policy("fifo", model), model, options);
    if (batched == 1) {
      service.submit_all(jobs);
    } else {
      for (const auto& job : jobs) service.submit(job);
    }
    service.run();
    std::ostringstream os;
    service.report().write_json(os);
    reports[batched] = os.str();
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(QueueEquivalenceTest, UnsortedBatchFallsBackAndStillServes) {
  auto jobs = open_loop_poisson(small_workload(42));
  std::reverse(jobs.begin(), jobs.end());  // violates the sorted fast path
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options);
  service.submit_all(jobs);
  service.run();
  EXPECT_EQ(service.records().size() + service.rejected_jobs().size(),
            jobs.size());
}

/// Report + trace JSON for one traced run at the given sampling rate
/// (rate >= 1 leaves the sampler uninstalled).
std::pair<std::string, std::string> traced_run(double rate) {
  trace::Tracer tracer;
  tracer.set_sampler(trace::SamplerOptions{rate, 42});
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options,
                           &tracer);
  service.submit_all(open_loop_poisson(small_workload(42)));
  service.run();
  std::ostringstream report;
  service.report().write_json(report);
  std::ostringstream trace_json;
  trace::ChromeTraceExporter(tracer).write(trace_json);
  return {report.str(), trace_json.str()};
}

TEST(SamplerEquivalenceTest, RateOneIsByteIdenticalToNoSampler) {
  trace::Tracer plain;  // sampler never installed
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options,
                           &plain);
  service.submit_all(open_loop_poisson(small_workload(42)));
  service.run();
  std::ostringstream plain_trace;
  trace::ChromeTraceExporter(plain).write(plain_trace);

  const auto [report, sampled_trace] = traced_run(1.0);
  EXPECT_EQ(sampled_trace, plain_trace.str());
}

TEST(SamplerEquivalenceTest, SamplingNeverChangesTheReport) {
  const auto full = traced_run(1.0);
  const auto half = traced_run(0.5);
  EXPECT_EQ(full.first, half.first);      // report is sampling-invariant
  EXPECT_NE(full.second, half.second);    // but spans were actually dropped
  EXPECT_LT(half.second.size(), full.second.size());
}

}  // namespace
}  // namespace ghs::serve
