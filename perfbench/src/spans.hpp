// Host-time spans recorded by the benchmark around calls into the
// program's public functions. Off (no clock reads, no storage) in untimed
// mode; on in the traced run, where every span is kept in memory and
// summarised or written out after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;  // inclusive duration
  std::int64_t self_ns = 0;   // duration minus the time its children cover
};

class SpanLog {
 public:
  SpanLog(bool enabled, std::int64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  bool enabled() const { return enabled_; }

  /// Name id for `name`; intern once, outside hot loops.
  std::uint32_t intern(const std::string& name);

  void begin(std::uint32_t name);
  void end();

  /// Per-name totals over every closed span.
  std::map<std::string, SpanTotals> totals() const;

  /// One line per span: run,id,parent,name,start_ns,end_ns (start relative
  /// to the first span).
  void write_csv(std::ostream& os) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  bool enabled_;
  std::int64_t run_id_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Records one span for its lifetime when the log is enabled.
class Scope {
 public:
  Scope(SpanLog& log, std::uint32_t name) : log_(log) {
    if (log_.enabled()) log_.begin(name);
  }
  Scope(SpanLog& log, const std::string& name) : log_(log) {
    if (log_.enabled()) log_.begin(log_.intern(name));
  }
  ~Scope() {
    if (log_.enabled()) log_.end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
};

}  // namespace perfbench
