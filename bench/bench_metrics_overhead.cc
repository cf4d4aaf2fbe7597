// Prices the observability layer's overhead contract (DESIGN.md §8):
//  - instrument hot-path cost: MetricCounter::Add and MetricHistogram::Record
//    throughput, single-threaded and contended;
//  - Snapshot() cost over the full engine registry;
//  - per-query cost of profiling: the same query with QueryOptions defaults
//    (profiling off — the executor's check is one pointer test per operator)
//    vs collect_profile=true (per-operator timing + buffer-pool deltas).
// Timing rows are informative; the hard checks are result parity, profile
// shape, and the bufferpool hits+misses == fetches invariant.

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "obs/query_profile.h"

using namespace mood;
using namespace mood::bench;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// Median wall-clock ms of `reps` calls to `fn`.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; i++) {
    auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(MillisSince(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = WantJson(argc, argv);
  JsonReport report_json("bench_metrics_overhead");
  Checks checks;

  // --- Instrument microbenchmarks (registry-owned atomics).
  Banner("Instrument hot-path cost");
  {
    MetricsRegistry reg;
    MetricCounter* c = reg.Counter("bench.counter");
    MetricHistogram* h = reg.Histogram("bench.hist");
    constexpr uint64_t kOps = 4'000'000;
    double add_ms = MedianMs(5, [&] {
      for (uint64_t i = 0; i < kOps; i++) c->Add(1);
    });
    double rec_ms = MedianMs(5, [&] {
      for (uint64_t i = 0; i < kOps; i++) h->Record(i & 0xffff);
    });
    // Contended: 4 threads hammering the same counter.
    double contended_ms = MedianMs(3, [&] {
      std::vector<std::thread> workers;
      for (int t = 0; t < 4; t++) {
        workers.emplace_back([&] {
          for (uint64_t i = 0; i < kOps / 4; i++) c->Add(1);
        });
      }
      for (auto& w : workers) w.join();
    });
    double snap_us = MedianMs(20, [&] { reg.Snapshot(); }) * 1000;
    Table t({"operation", "mops/s"});
    t.AddRow({"counter Add, 1 thread", Fmt(kOps / add_ms / 1000, 1)});
    t.AddRow({"histogram Record, 1 thread", Fmt(kOps / rec_ms / 1000, 1)});
    t.AddRow({"counter Add, 4 threads shared", Fmt(kOps / contended_ms / 1000, 1)});
    t.Print();
    std::printf("registry Snapshot(): %.1f us\n", snap_us);
    report_json.Metric("instruments", "counter_add_mops", kOps / add_ms / 1000);
    report_json.Metric("instruments", "hist_record_mops", kOps / rec_ms / 1000);
    report_json.Metric("instruments", "counter_add_contended_mops",
                       kOps / contended_ms / 1000);
    report_json.Metric("instruments", "snapshot_us", snap_us);
    checks.Expect(c->value() > 0 && h->count() == 5 * kOps,
                  "instrument updates observed");
  }

  // --- Per-query profiling overhead.
  BenchDb scratch("metrics_overhead");
  Database db;
  Check(db.Open(scratch.Path("mood")), "open");
  Check(paperdb::CreatePaperSchema(&db), "schema");
  Check(paperdb::PopulatePaperData(&db, 400).status(), "populate");
  Check(db.CollectAllStatistics(), "collect");

  struct Query {
    const char* key;
    std::string sql;
  };
  std::vector<Query> queries = {
      {"example81", paperdb::kExample81Query},
      {"example82", paperdb::kExample82Query},
      {"section31", paperdb::kSection31Query},
  };

  Banner("Query latency: profiling off vs on (median of 15)");
  Table t({"query", "off ms", "on ms", "overhead"});
  for (const auto& q : queries) {
    // Both sides execute every call: with the result cache on, "off" would be
    // served from the cache while "on" (profiled runs skip it) executes, and
    // feedback writeback from "on" would invalidate the cached plan.
    QueryOptions off;
    off.use_cache = false;
    off.feedback = false;
    QueryOptions on = off;
    on.collect_profile = true;

    auto base = CheckV(db.Query(q.sql, off), q.key);  // warm caches
    auto profiled = CheckV(db.Execute(q.sql, on), q.key);
    checks.Expect(profiled.query.ToString() == base.ToString(),
                  std::string(q.key) + ": profiled rows identical");
    std::shared_ptr<QueryProfile> profile = profiled.profile;
    double off_ms = MedianMs(15, [&] { CheckV(db.Query(q.sql, off), q.key); });
    double on_ms =
        MedianMs(15, [&] { CheckV(db.Execute(q.sql, on), q.key); });
    double overhead_pct = (on_ms - off_ms) / std::max(off_ms, 1e-6) * 100;
    t.AddRow({q.key, Fmt(off_ms, 3), Fmt(on_ms, 3), Fmt(overhead_pct, 1) + "%"});
    report_json.Metric("profiling_off_ms", q.key, off_ms);
    report_json.Metric("profiling_on_ms", q.key, on_ms);
    report_json.Metric("profiling_overhead_pct", q.key, overhead_pct);
    checks.Expect(profile != nullptr && !profile->children.empty(),
                  std::string(q.key) + ": profile tree attached");
  }
  t.Print();
  std::printf(
      "the off column is the contract: with collect_profile unset the executor\n"
      "pays one null-pointer test per operator, so plain Query() latency must\n"
      "track pre-observability baselines (BENCH_baseline.json bench_query_e2e).\n");

  // --- Engine invariants after the workload.
  MetricsSnapshot snap = db.metrics()->Snapshot();
  checks.Expect(snap.ValueOf("bufferpool.fetches", -1) ==
                    snap.ValueOf("bufferpool.hits", 0) +
                        snap.ValueOf("bufferpool.misses", 0),
                "bufferpool fetches == hits + misses");
  checks.Expect(snap.ValueOf("exec.queries", 0) > 0, "exec.queries counted");
  checks.Expect(snap.ValueOf("exec.query_us.count", 0) > 0,
                "query latency histogram populated");

  if (json) {
    AddMetricsSnapshot(&report_json, db.metrics());
    report_json.Emit(JsonPath(argc, argv));
  }
  return checks.ExitCode();
}
