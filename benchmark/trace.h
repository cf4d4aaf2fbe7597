#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace moodbench {

uint64_t NowNs();

/// One timed interval. Spans of one request share `request`; `parent` is the
/// index of the enclosing span, or -1 for the request's root span (whose name
/// is the operation kind: lookup, report, write or query).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
  /// Caches the request was served from (session pass only): "plan", "result",
  /// "mv" joined by '+', or empty.
  std::string tags;
};

/// In-memory span recorder for one single-threaded traced pass. Spans are
/// appended in start order and written out only when the benchmark ends.
class Tracer {
 public:
  Tracer(const char* pass, size_t capacity) : pass_(pass) { spans_.reserve(capacity); }

  /// Opens a span; returns its index, which End() and child spans take.
  int32_t Begin(const char* name, uint32_t request, int32_t parent = -1);
  void End(int32_t span);
  void Tag(int32_t span, std::string tags) { spans_[span].tags = std::move(tags); }
  /// Number of spans so far: the index the next Begin() returns.
  size_t size() const { return spans_.size(); }

  /// Self times in microseconds (duration minus the time its direct children
  /// cover) of every span called `name`: one entry per request that paid it.
  std::vector<double> SelfUs(const std::string& name) const;
  /// Root-span duration in microseconds per request id (index = request id).
  std::vector<double> RootUs() const;
  /// Sum of the durations of every span called `name`, in microseconds.
  double TotalUs(const std::string& name) const;

  /// Appends `pass request span parent name start_ns end_ns tags` rows.
  void AppendTsv(std::string* out) const;

 private:
  const char* pass_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope; inert when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t request, int32_t parent)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace moodbench
