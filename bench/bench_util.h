#pragma once

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "obs/metrics.h"

namespace mood::bench {

/// Scratch database directory for a bench binary; removed on destruction.
class BenchDb {
 public:
  explicit BenchDb(const std::string& name) {
    dir_ = std::filesystem::temp_directory_path() / ("mood_bench_" + name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~BenchDb() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& file) const { return (dir_ / file).string(); }

 private:
  std::filesystem::path dir_;
};

/// Minimal fixed-width table printer for regenerating the paper's tables.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); c++) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); c++) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto line = [&] {
      std::string out = "+";
      for (size_t c = 0; c < width.size(); c++) {
        out += std::string(width[c] + 2, '-') + "+";
      }
      std::printf("%s\n", out.c_str());
    };
    auto print_row = [&](const std::vector<std::string>& row) {
      std::string out = "|";
      for (size_t c = 0; c < width.size(); c++) {
        std::string cell = c < row.size() ? row[c] : "";
        out += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
      }
      std::printf("%s\n", out.c_str());
    };
    line();
    print_row(headers_);
    line();
    for (const auto& row : rows_) print_row(row);
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtSci(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// True when `--json` (or `--json=<path>`) was passed to the bench binary.
inline bool WantJson(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0 ||
        std::strncmp(argv[i], "--json=", 7) == 0) {
      return true;
    }
  }
  return false;
}

/// Path from `--json=<path>` if given, else "" (meaning: print to stdout).
inline std::string JsonPath(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return "";
}

/// Machine-readable benchmark report (the --json mode): named metric groups in
/// insertion order, serialized as one JSON object so CI can track the perf
/// trajectory across PRs (see BENCH_baseline.json).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void Metric(const std::string& section, const std::string& name, double value) {
    for (auto& [sec, metrics] : sections_) {
      if (sec == section) {
        metrics.emplace_back(name, value);
        return;
      }
    }
    sections_.push_back({section, {{name, value}}});
  }

  std::string ToString() const {
    std::string out = "{\"bench\":\"" + Escape(bench_) + "\",\"metrics\":{";
    for (size_t s = 0; s < sections_.size(); s++) {
      if (s > 0) out += ",";
      out += "\"" + Escape(sections_[s].first) + "\":{";
      const auto& metrics = sections_[s].second;
      for (size_t m = 0; m < metrics.size(); m++) {
        if (m > 0) out += ",";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", metrics[m].second);
        out += "\"" + Escape(metrics[m].first) + "\":" + buf;
      }
      out += "}";
    }
    out += "}}";
    return out;
  }

  /// Writes to `path` ("" = stdout, as the final line of output).
  void Emit(const std::string& path) const {
    if (path.empty()) {
      std::printf("%s\n", ToString().c_str());
      return;
    }
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL cannot write %s\n", path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", ToString().c_str());
    std::fclose(f);
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      sections_;
};

/// Folds a MetricsRegistry snapshot into `report` as an "engine_metrics"
/// section, so --json artifacts carry the engine's counters (buffer-pool
/// hit rates, record reads, cache hits, ...) alongside the timings
/// and BENCH_baseline.json can track both.
inline void AddMetricsSnapshot(JsonReport* report, MetricsRegistry* metrics) {
  if (report == nullptr || metrics == nullptr) return;
  for (const auto& [name, value] : metrics->Snapshot().values) {
    report->Metric("engine_metrics", name, value);
  }
}

/// Records pass/fail of shape assertions; returns a process exit code.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) failures_++;
  }
  int ExitCode() const { return failures_ == 0 ? 0 : 1; }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

/// Dies on a bad status (bench binaries prefer loud failures).
inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}
template <typename T>
T CheckV(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

}  // namespace mood::bench
