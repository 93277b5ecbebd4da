// Span recorder for the traced run: one span per call the benchmark makes
// into a library layer (name, start, end, parent span, per-scenario/edit
// item id). Spans are recorded only from the benchmark's own thread, kept in
// memory and written out when the run ends. A disabled recorder never reads
// the clock, so the untraced run pays one branch per call site.

#ifndef PERFBENCH_SRC_SPAN_H_
#define PERFBENCH_SRC_SPAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;  // since the recorder was created
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
    std::uint64_t item = 0;    // scenario / edit / batch id
  };

  // Per-name aggregate: count, total and self time (duration minus the part
  // covered by child spans), and every duration for percentiles.
  struct Stat {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    std::vector<double> durations_ns;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Toggled only between spans (the traced run times one unit of work with
  // recording off and on to measure the recorder's overhead).
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span nested in the innermost open one; returns its index, or -1
  // when disabled.
  int Open(const char* name, std::uint64_t item);
  void Close(int index);

  std::map<std::string, Stat> Stats() const;

  // One JSON object per span: name, start_ns, end_ns, parent, item.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name, std::uint64_t item = 0)
      : rec_(rec), index_(rec.enabled() ? rec.Open(name, item) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) {
      rec_.Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_H_
