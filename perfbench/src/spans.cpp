#include "spans.hpp"

#include <stdexcept>

namespace perfbench {

std::uint32_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::begin(std::uint32_t name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  open_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(span);
}

void SpanLog::end() {
  if (open_.empty()) throw std::logic_error("SpanLog::end without begin");
  spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    auto& t = out[names_[span.name]];
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return out;
}

void SpanLog::write_csv(std::ostream& os) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "run,id,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    os << run_id_ << ',' << i << ',' << span.parent << ','
       << names_[span.name] << ',' << span.start_ns - origin << ','
       << span.end_ns - origin << '\n';
  }
}

}  // namespace perfbench
