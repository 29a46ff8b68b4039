// ghs_perfbench: runs one benchmark workload once, in this process, and
// prints one JSON line with its metrics, output checks and digests.
//
//   ghs_perfbench --workload=serve_1m --seed=42 --reference=perfbench/reference
//   ghs_perfbench --workload=fleet_16 --seed=7 --traced --spans-out=spans.csv
//
// Workloads: paper_sweep, serve_1m, serve_1m_observed, fleet_16.
// perfbench/run.py drives it.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

void Result::ratio(const std::string& name, const std::string& unit,
                   const std::string& numerator, double numerator_value,
                   const std::string& denominator, double denominator_value) {
  // Ratios are printed as ns/us per unit from a numerator in seconds.
  const double scale = unit == "ns" ? 1e9 : 1e6;
  const double value = denominator_value > 0.0
                           ? scale * numerator_value / denominator_value
                           : 0.0;
  ratios.push_back({name, value, unit, numerator, numerator_value, denominator,
                    denominator_value});
  metric(name, value, unit);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string format_exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void check_against_reference(const Options& opts, const std::string& name,
                             const std::string& actual, Result& result) {
  const std::string path = opts.reference_dir + "/" + name;
  if (opts.write_reference) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream expected;
  expected << in.rdbuf();
  result.check(name + " byte-equal to reference",
               in.good() && expected.str() == actual,
               in.good() ? "report differs from " + path
                         : "cannot read " + path);
}

double span_seconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end()
             ? 0.0
             : static_cast<double>(it->second.total_ns) * 1e-9;
}

std::int64_t span_count(const std::map<std::string, SpanTotals>& totals,
                        const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.count;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void write_json(std::ostream& os, const Options& opts, const Result& r,
                const std::map<std::string, SpanTotals>& spans) {
  os << "{\"workload\":" << json_string(opts.workload)
     << ",\"seed\":" << opts.seed << ",\"traced\":"
     << (opts.traced ? "true" : "false") << ",\"run_id\":" << opts.run_id
     << ",\"inputs_digest\":\"" << hex(r.inputs_digest)
     << "\",\"report_digest\":\""
     << hex(fnv1a(r.report.data(), r.report.size())) << "\",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? "," : "") << json_string(m.name) << ":{\"value\":"
       << format_exact(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
  }
  os << "},\"ratios\":[";
  for (std::size_t i = 0; i < r.ratios.size(); ++i) {
    const auto& q = r.ratios[i];
    os << (i ? "," : "") << "{\"name\":" << json_string(q.name)
       << ",\"value\":" << format_exact(q.value)
       << ",\"unit\":" << json_string(q.unit)
       << ",\"numerator\":" << json_string(q.numerator)
       << ",\"numerator_value\":" << format_exact(q.numerator_value)
       << ",\"denominator\":" << json_string(q.denominator)
       << ",\"denominator_value\":" << format_exact(q.denominator_value) << "}";
  }
  os << "],\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    os << (i ? "," : "") << "{\"name\":" << json_string(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << json_string(c.detail) << "}";
  }
  os << "],\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    os << (i ? "," : "") << json_string(r.notes[i]);
  }
  os << "],\"spans\":{";
  bool first = true;
  for (const auto& [name, t] : spans) {
    os << (first ? "" : ",") << json_string(name) << ":{\"count\":" << t.count
       << ",\"total_s\":"
       << format_exact(static_cast<double>(t.total_ns) * 1e-9)
       << ",\"self_s\":" << format_exact(static_cast<double>(t.self_ns) * 1e-9)
       << "}";
    first = false;
  }
  os << "}}\n";
}

bool take(const std::string& arg, const char* flag, std::string* value) {
  const std::size_t n = std::strlen(flag);
  if (arg.compare(0, n, flag) != 0 || arg.size() <= n || arg[n] != '=') {
    return false;
  }
  *value = arg.substr(n + 1);
  return true;
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (take(arg, "--workload", &value)) {
      opts.workload = value;
    } else if (take(arg, "--seed", &value)) {
      opts.seed = std::stoull(value);
    } else if (take(arg, "--run-id", &value)) {
      opts.run_id = std::stoll(value);
    } else if (take(arg, "--reference", &value)) {
      opts.reference_dir = value;
    } else if (take(arg, "--spans-out", &value)) {
      opts.spans_out = value;
    } else if (arg == "--traced") {
      opts.traced = true;
    } else if (arg == "--write-reference") {
      opts.write_reference = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (opts.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (opts.reference_dir.empty()) {
    throw std::invalid_argument("--reference is required");
  }
  return opts;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ghs_perfbench: " << e.what() << "\n";
    return 2;
  }
  SpanLog spans(opts.traced, opts.run_id);
  Result result;
  if (opts.workload == "paper_sweep") {
    result = run_paper_sweep(opts, spans);
  } else if (opts.workload == "serve_1m") {
    result = run_serve(opts, spans, /*observed=*/false);
  } else if (opts.workload == "serve_1m_observed") {
    result = run_serve(opts, spans, /*observed=*/true);
  } else if (opts.workload == "fleet_16") {
    result = run_fleet(opts, spans);
  } else {
    std::cerr << "ghs_perfbench: unknown workload '" << opts.workload << "'\n";
    return 2;
  }
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  if (opts.workload != "paper_sweep") {
    // After the peak is read, so that Table 1's platforms do not count.
    table1_accuracy(opts, result);
  }

  std::map<std::string, SpanTotals> totals;
  if (spans.enabled()) {
    totals = spans.totals();
    const auto window = totals.find("bench.window");
    if (window != totals.end()) {
      const double window_s =
          static_cast<double>(window->second.total_ns) * 1e-9;
      const double uncovered_s =
          static_cast<double>(window->second.self_ns) * 1e-9;
      result.metric("bench.uncovered_s", uncovered_s, "s");
      result.metric("bench.uncovered_pct",
                    window_s > 0.0 ? 100.0 * uncovered_s / window_s : 0.0, "%");
    }
    if (!opts.spans_out.empty()) {
      std::ofstream out(opts.spans_out);
      spans.write_csv(out);
      if (!out.good()) {
        std::cerr << "ghs_perfbench: cannot write " << opts.spans_out << "\n";
        return 1;
      }
    }
  }
  write_json(std::cout, opts, result, totals);
  return 0;
}
