// In-memory span recorder for the benchmark's traced run.
//
// A span is one call the benchmark makes into a module's public function:
// its name ("<layer>.<what>"), wall-clock start and end, the span that was
// open when it started (its parent), and an id (site rank, query index, or
// pass number). Spans stay in memory and are written out once, at the end,
// as Chrome trace-event JSON (loadable in Perfetto).
//
// The recorder is driven from one thread: the traced run crawls with the
// sink on the calling thread and replays queries with a single client, so
// every span opens and closes on the thread that owns the recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  // static string: "<layer>.<what>" or a phase
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;           // index into spans(), -1 = root
    std::int64_t id = 0;
  };

  SpanRecorder();

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name, std::int64_t id);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t now_ns() const;

  /// The layer a span belongs to: the text before the first '.', or "" for
  /// a phase span (a name without a dot) that only groups layer calls.
  static std::string layer_of(const char* name);

  struct LayerTotals {
    /// Summed span durations minus the parts their child spans cover.
    double self_s = 0;
    std::int64_t count = 0;
  };
  /// Per-layer totals over spans that lie inside [from_ns, to_ns].
  std::map<std::string, LayerTotals> layer_totals(std::int64_t from_ns,
                                                  std::int64_t to_ns) const;
  /// Share of [from_ns, to_ns] covered by the union of layer spans.
  double layer_coverage(std::int64_t from_ns, std::int64_t to_ns) const;

  /// Durations in seconds of every span named `name` (exact match).
  std::vector<double> durations(const char* name) const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  std::string to_trace_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t id = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, id) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span before the scope does; later calls do nothing.
  void close() {
    if (recorder_ != nullptr && !closed_) recorder_->close(index_);
    closed_ = true;
  }
  /// The closed span's duration (0 without a recorder).
  double seconds() const {
    if (recorder_ == nullptr || !closed_) return 0;
    const auto& span = recorder_->spans()[static_cast<std::size_t>(index_)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }

 private:
  SpanRecorder* recorder_;
  int index_;
  bool closed_ = false;
};

}  // namespace perfbench
