#include "perfbench/src/span.h"

#include <fstream>

namespace perfbench {

int SpanRecorder::Open(const char* name, std::uint64_t item) {
  Span s;
  s.name = name;
  s.item = item;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  // Scopes nest, so the closing span is the innermost open one.
  open_.pop_back();
}

std::map<std::string, SpanRecorder::Stat> SpanRecorder::Stats() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    Stat& st = out[s.name];
    st.count++;
    st.total_ns += d;
    st.self_ns += d - child_ns[i];
    st.durations_ns.push_back(d);
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream f(path);
  for (const Span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"item\":" << s.item
      << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
