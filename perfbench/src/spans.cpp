#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::open(const char* name, std::int64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans are scoped, so the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::string SpanRecorder::layer_of(const char* name) {
  const std::string_view view(name);
  const auto dot = view.find('.');
  return dot == std::string_view::npos ? std::string()
                                       : std::string(view.substr(0, dot));
}

namespace {

/// Total length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>
                              intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::map<std::string, SpanRecorder::LayerTotals> SpanRecorder::layer_totals(
    std::int64_t from_ns, std::int64_t to_ns) const {
  // Children of each span, so self time = duration - union(children).
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0 || span.start_ns < from_ns || span.end_ns > to_ns) {
      continue;
    }
    const std::string layer = layer_of(span.name);
    if (layer.empty()) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    covered.reserve(children[i].size());
    for (const int child : children[i]) {
      const Span& c = spans_[static_cast<std::size_t>(child)];
      if (c.end_ns >= 0) covered.emplace_back(c.start_ns, c.end_ns);
    }
    const std::int64_t duration = span.end_ns - span.start_ns;
    LayerTotals& totals = out[layer];
    totals.self_s +=
        static_cast<double>(duration - union_length(std::move(covered))) *
        1e-9;
    ++totals.count;
  }
  return out;
}

double SpanRecorder::layer_coverage(std::int64_t from_ns,
                                    std::int64_t to_ns) const {
  if (to_ns <= from_ns) return 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || layer_of(span.name).empty()) continue;
    const std::int64_t start = std::max(span.start_ns, from_ns);
    const std::int64_t end = std::min(span.end_ns, to_ns);
    if (end > start) intervals.emplace_back(start, end);
  }
  return static_cast<double>(union_length(std::move(intervals))) /
         static_cast<double>(to_ns - from_ns);
}

std::vector<double> SpanRecorder::durations(const char* name) const {
  std::vector<double> out;
  const std::string_view wanted(name);
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && wanted == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

std::string SpanRecorder::to_trace_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char line[256];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"span\":%zu,\"parent\":%d}}",
                  first ? "" : ",\n", span.name,
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<long long>(span.id), i, span.parent);
    out += line;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
