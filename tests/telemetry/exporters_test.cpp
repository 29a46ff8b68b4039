#include "ghs/telemetry/exporters.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace ghs::telemetry {
namespace {

// A tiny registry with one instrument of each kind, used by the golden
// tests below.
void populate(Registry& registry) {
  registry.counter("ghs_test_events_total", {}, "events processed").inc(3);
  registry.gauge("ghs_test_depth", {{"queue", "main"}}, "queue depth")
      .set(2.5);
  Histogram& h =
      registry.histogram("ghs_test_latency_ms", {1.0, 10.0}, {}, "latency");
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
}

TEST(ExportersTest, PrometheusGolden) {
  Registry registry;
  populate(registry);
  std::ostringstream oss;
  write_prometheus(oss, registry);
  const std::string want =
      "# HELP ghs_test_depth queue depth\n"
      "# TYPE ghs_test_depth gauge\n"
      "ghs_test_depth{queue=\"main\"} 2.500000\n"
      "# HELP ghs_test_events_total events processed\n"
      "# TYPE ghs_test_events_total counter\n"
      "ghs_test_events_total 3\n"
      "# HELP ghs_test_latency_ms latency\n"
      "# TYPE ghs_test_latency_ms histogram\n"
      "ghs_test_latency_ms_bucket{le=\"1\"} 1\n"
      "ghs_test_latency_ms_bucket{le=\"10\"} 2\n"
      "ghs_test_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "ghs_test_latency_ms_sum 55.500000\n"
      "ghs_test_latency_ms_count 3\n";
  EXPECT_EQ(oss.str(), want);
}

TEST(ExportersTest, JsonSnapshotGolden) {
  Registry registry;
  populate(registry);
  std::ostringstream oss;
  write_json_snapshot(oss, registry);
  const std::string want =
      "{\"counters\":{\"ghs_test_events_total\":3},"
      "\"gauges\":{\"ghs_test_depth{queue=\\\"main\\\"}\":2.500000},"
      "\"histograms\":{\"ghs_test_latency_ms\":{\"count\":3,"
      "\"sum\":55.500000,\"buckets\":{\"1\":1,\"10\":2,\"+Inf\":3}}}}";
  EXPECT_EQ(oss.str(), want);
}

TEST(ExportersTest, JsonSnapshotEscapesControlCharactersInLabels) {
  // Label values are only Prometheus-escaped (`"` and `\`) when the
  // instrument registers; a newline or other control byte in one must
  // still reach the JSON snapshot escaped, or the file is not JSON.
  Registry registry;
  registry.counter("ghs_test_total", {{"tenant", "a\nb\x01"}}, "").inc();
  std::ostringstream oss;
  write_json_snapshot(oss, registry);
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"ghs_test_total{tenant=\\\"a\\nb\\u0001\\\"}\":1"),
            std::string::npos)
      << json;
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(ExportersTest, IdenticalValuesGiveByteIdenticalSnapshots) {
  Registry a;
  Registry b;
  populate(a);
  populate(b);
  std::ostringstream oss_a;
  std::ostringstream oss_b;
  write_json_snapshot(oss_a, a);
  write_json_snapshot(oss_b, b);
  EXPECT_EQ(oss_a.str(), oss_b.str());
}

TEST(ExportersTest, VolatileInstrumentsAreSkippedByDefault) {
  Registry registry;
  registry.counter("stable_total").inc();
  registry.gauge("wall_seconds", {}, "", /*volatile_instrument=*/true)
      .set(123.456);
  std::ostringstream def;
  write_json_snapshot(def, registry);
  EXPECT_EQ(def.str().find("wall_seconds"), std::string::npos);
  std::ostringstream prom;
  write_prometheus(prom, registry);
  EXPECT_EQ(prom.str().find("wall_seconds"), std::string::npos);

  ExportOptions options;
  options.include_volatile = true;
  std::ostringstream all;
  write_json_snapshot(all, registry, options);
  EXPECT_NE(all.str().find("wall_seconds"), std::string::npos);
}

TEST(ExportersTest, TableReportsQuantiles) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0, 10.0, 100.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const auto table = to_table(registry);
  std::ostringstream oss;
  table.render(oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("h_ms"), std::string::npos);
  EXPECT_NE(text.find("count=100"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p999="), std::string::npos);
}

TEST(ExportersTest, EmptyRegistryIsStillValidJson) {
  Registry registry;
  std::ostringstream oss;
  write_json_snapshot(oss, registry);
  EXPECT_EQ(oss.str(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

}  // namespace
}  // namespace ghs::telemetry
