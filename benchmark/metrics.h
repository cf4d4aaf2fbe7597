#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"

namespace moodbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Nearest-rank quantile (0 < q <= 1) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
/// `num / den`, or 0 when nothing was attempted (den == 0).
double Ratio(double num, double den);

/// The process's peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// A fixed-size uniform sample (Algorithm R) of labelled latencies. Its memory
/// is allocated and touched up front, so the benchmark's own footprint does
/// not grow with the throughput it measures (peak_rss_mb stays the engine's).
class Reservoir {
 public:
  struct Entry {
    uint16_t label = 0;
    double us = 0;
  };

  Reservoir(size_t capacity, uint64_t seed) : slots_(capacity), rng_(seed) {}
  void Add(uint16_t label, double us) {
    seen_++;
    if (size_ < slots_.size()) {
      slots_[size_++] = {label, us};
    } else if (const uint64_t j = rng_.Uniform(seen_); j < slots_.size()) {
      slots_[j] = {label, us};
    }
  }
  const Entry* begin() const { return slots_.data(); }
  const Entry* end() const { return slots_.data() + size_; }

 private:
  std::vector<Entry> slots_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  mood::Random rng_;
};

/// Engine counter movement between two registry snapshots.
class CounterDelta {
 public:
  CounterDelta(mood::MetricsSnapshot before, mood::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double operator()(const std::string& name) const {
    return after_.ValueOf(name) - before_.ValueOf(name);
  }

 private:
  mood::MetricsSnapshot before_;
  mood::MetricsSnapshot after_;
};

/// A number as JSON: every significant digit, never NaN or infinity.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);
/// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace moodbench
