// In-memory span recorder for the benchmark's traced mode.
//
// A span is one call into a layer, timed from the benchmark's side of the
// boundary: name, start, end (steady-clock nanoseconds since the recorder
// was created), the enclosing span and a run id shared by every span of
// one measured unit (a setup, a simulation or a replay). Spans are kept
// in memory and written out once, when the benchmark ends, so recording
// costs one vector append per span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
  int run = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Start the spans of a new measured unit; returns its run id.
  int new_run() { return ++run_; }

  /// Open a span nested in the innermost open span; returns its index.
  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, ns_between(origin_, Clock::now()), 0, parent,
                          run_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns =
        ns_between(origin_, Clock::now());
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Take over the spans a forked copy of this recorder appended, and its
  /// run counter. The copy started from this recorder's state, so parent
  /// indices stay valid.
  void adopt(const std::vector<Span>& spans, int run) {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    run_ = std::max(run_, run);
  }
  int run() const { return run_; }

  /// Seconds spent in spans of each name, minus the time their child
  /// spans cover (self time).
  std::map<std::string, double> self_seconds() const;

  /// Write every span as one JSON object per line. False on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench
