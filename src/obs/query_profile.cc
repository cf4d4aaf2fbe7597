#include "obs/query_profile.h"

#include <cstdio>

namespace mood {

QueryProfile* QueryProfile::AddChild(std::string child_label) {
  children.push_back(std::make_unique<QueryProfile>());
  children.back()->label = std::move(child_label);
  return children.back().get();
}

uint64_t QueryProfile::ChildWallNs() const {
  uint64_t total = 0;
  for (const auto& c : children) total += c->wall_ns;
  return total;
}

std::string QueryProfile::Render(const RenderOptions& options) const {
  std::string out(static_cast<size_t>(options.indent) * 2, ' ');
  out += label;
  char buf[160];
  if (has_estimates) {
    std::snprintf(buf, sizeof(buf), "  (est rows=%.2f cost=%.3f)", est_rows, est_cost);
    out += buf;
  }
  // `batches` is omitted where no RowBatch was produced (Finish stages and
  // empty operator outputs).
  if (batches > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  (actual rows=%llu in=%llu morsels=%llu batches=%llu)",
                  static_cast<unsigned long long>(rows_out),
                  static_cast<unsigned long long>(rows_in),
                  static_cast<unsigned long long>(morsels),
                  static_cast<unsigned long long>(batches));
  } else {
    std::snprintf(buf, sizeof(buf), "  (actual rows=%llu in=%llu morsels=%llu)",
                  static_cast<unsigned long long>(rows_out),
                  static_cast<unsigned long long>(rows_in),
                  static_cast<unsigned long long>(morsels));
  }
  out += buf;
  if (has_estimates && est_rows > 0 && rows_out > 0) {
    double actual = static_cast<double>(rows_out);
    double q = est_rows > actual ? est_rows / actual : actual / est_rows;
    std::snprintf(buf, sizeof(buf), "  [q=%.2f]", q);
    out += buf;
  }
  if (options.timing) {
    std::snprintf(buf, sizeof(buf), "  [time=%.3fms]",
                  static_cast<double>(wall_ns) / 1e6);
    out += buf;
  }
  if (options.buffer) {
    std::snprintf(buf, sizeof(buf),
                  "  [pool hits=%llu misses=%llu evictions=%llu prefetches=%llu]",
                  static_cast<unsigned long long>(pool.hits),
                  static_cast<unsigned long long>(pool.misses),
                  static_cast<unsigned long long>(pool.evictions),
                  static_cast<unsigned long long>(pool.prefetches));
    out += buf;
  }
  out += '\n';
  RenderOptions child_options = options;
  child_options.indent++;
  for (const auto& c : children) out += c->Render(child_options);
  return out;
}

namespace {
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}
}  // namespace

std::string QueryProfile::ToJson(const RenderOptions& options) const {
  std::string out = "{\"label\":";
  AppendJsonString(&out, label);
  char buf[96];
  if (has_estimates) {
    std::snprintf(buf, sizeof(buf), ",\"est_rows\":%.2f,\"est_cost\":%.3f", est_rows,
                  est_cost);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ",\"rows_out\":%llu,\"rows_in\":%llu,\"morsels\":%llu",
                static_cast<unsigned long long>(rows_out),
                static_cast<unsigned long long>(rows_in),
                static_cast<unsigned long long>(morsels));
  out += buf;
  if (batches > 0) {
    std::snprintf(buf, sizeof(buf), ",\"batches\":%llu",
                  static_cast<unsigned long long>(batches));
    out += buf;
  }
  if (options.timing) {
    std::snprintf(buf, sizeof(buf), ",\"time_ms\":%.3f",
                  static_cast<double>(wall_ns) / 1e6);
    out += buf;
  }
  if (options.buffer) {
    std::snprintf(buf, sizeof(buf),
                  ",\"pool\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
                  "\"prefetches\":%llu}",
                  static_cast<unsigned long long>(pool.hits),
                  static_cast<unsigned long long>(pool.misses),
                  static_cast<unsigned long long>(pool.evictions),
                  static_cast<unsigned long long>(pool.prefetches));
    out += buf;
  }
  if (!children.empty()) {
    out += ",\"children\":[";
    for (size_t i = 0; i < children.size(); i++) {
      if (i > 0) out += ',';
      out += children[i]->ToJson(options);
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace mood
