#include "benchmark/trace.h"

#include <chrono>

namespace moodbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

int32_t Tracer::Begin(const char* name, uint32_t request, int32_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) { spans_[span].end_ns = NowNs(); }

std::vector<double> Tracer::SelfUs(const std::string& name) const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); i++) {
    if (name != spans_[i].name) continue;
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    out.push_back(static_cast<double>(dur - child_ns[i]) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::RootUs() const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.parent >= 0) continue;
    if (out.size() <= s.request) out.resize(s.request + 1, 0);
    out[s.request] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return out;
}

double Tracer::TotalUs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return total;
}

void Tracer::AppendTsv(std::string* out) const {
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    *out += std::string(pass_) + '\t' + std::to_string(s.request) + '\t' +
            std::to_string(i) + '\t' + std::to_string(s.parent) + '\t' + s.name +
            '\t' + std::to_string(s.start_ns) + '\t' + std::to_string(s.end_ns) +
            '\t' + s.tags + '\n';
  }
}

}  // namespace moodbench
