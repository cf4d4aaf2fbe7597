// moodbench: end-to-end benchmark of the MOOD server with per-layer traces.
//
//   moodbench --workload=W --seed=N --dir=DIR [--seconds=S] [--trace]
//             [--out=FILE] [--spans=FILE]
//   moodbench --smoke --dir=DIR
//
// One workload per process, so setup_s and peak_rss_mb belong to it. The
// database and server run in this process; load is a closed loop of two
// MoodClient connections, one generator thread each. Every response is
// checked (see oracle.h); a wrong result makes the run incorrect and the exit
// code non-zero. Without --trace the end-to-end metrics are printed, with it
// the per-layer ones, one `workload metric value unit` line each.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "benchmark/metrics.h"
#include "benchmark/oracle.h"
#include "benchmark/trace.h"
#include "benchmark/workload.h"
#include "exec/plan_cache.h"
#include "net/wire.h"
#include "sql/parser.h"

namespace moodbench {
namespace {

using mood::MoodValue;
using mood::Result;
using mood::Status;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; run.py checks the two agree.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},      {"latency_p50_us", "us"}, {"latency_p95_us", "us"},
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
};
constexpr MetricDef kPerLayer[] = {
    {"net.overhead_us", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.frames_per_op", "count"},
    {"core.session_us", "us"},
    {"sql.parse_us", "us"},
    {"sql.normalize_us", "us"},
    {"optimizer.optimize_us", "us"},
    {"exec.execute_us", "us"},
    {"exec.batches_per_op", "count"},
    {"exec.expr_fallback_per_op", "count"},
    {"cache.plan.hit_ratio", "ratio"},
    {"cache.result.hit_ratio", "ratio"},
    {"cache.result.invalidations_per_op", "count"},
    {"cache.plan.evictions_per_op", "count"},
    {"objects.deref_hit_ratio", "ratio"},
    {"storage.record_reads_per_op", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_misses_per_op", "count"},
    {"storage.disk_reads_per_op", "count"},
    {"storage.disk_writes_per_op", "count"},
    {"storage.scan_pages_per_op", "count"},
    {"txn.begin_pct", "%"},
    {"txn.dml_pct", "%"},
    {"txn.commit_pct", "%"},
    {"txn.wal_fsyncs_per_commit", "count"},
    {"txn.wal_group_batch_mean", "count"},
    {"txn.lock_waits_per_commit", "count"},
    {"txn.snapshot_injected_per_op", "count"},
    {"mv.report_pct", "%"},
    {"mv.hit_ratio", "ratio"},
    {"mv.maintenance_rows_per_write", "count"},
    {"mv.full_refreshes", "count"},
    {"trace.overhead_pct", "%"},
};

constexpr int kClients = 2;

struct Options {
  Workload workload = Workload::kLookupHot;
  uint64_t seed = 1;
  uint64_t scale = 0;  ///< 0 = the workload's default
  double seconds = 30;
  double warmup = 3;
  bool trace = false;
  size_t trace_requests = 0;  ///< 0 = the workload's default
  std::string out;
  std::string spans;
  /// Each run creates its own fresh directory inside this one and removes
  /// only that.
  std::string dir;
};

/// Everything one run found wrong; empty means correct.
class Errors {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (list_.size() < 10) list_.push_back(what);
    count_++;
  }
  bool empty() const { return count_ == 0; }
  const std::vector<std::string>& list() const { return list_; }

 private:
  std::mutex mu_;
  std::vector<std::string> list_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up

struct Setup {
  std::unique_ptr<Instance> instance;
  std::vector<std::unique_ptr<WireTarget>> clients;
};

/// Database, server, connections and (lookup_hot) a touch of every key: what
/// must happen before the first timed request.
Result<Setup> SetUp(const Options& o, const std::string& dir) {
  Setup s;
  MOOD_ASSIGN_OR_RETURN(s.instance, Instance::Create(o.workload, o.scale, o.seed, dir));
  for (int i = 0; i < kClients; i++) {
    s.clients.push_back(std::make_unique<WireTarget>());
    MOOD_RETURN_IF_ERROR(s.clients.back()->Connect(s.instance->port()));
  }
  if (o.workload == Workload::kLookupHot) {
    MOOD_RETURN_IF_ERROR(Prime(*s.clients[0], o.scale));
  }
  return s;
}

// ---------------------------------------------------------------------------
// The timed window: a closed loop of kClients connections.

struct Sample {
  Request request;
  std::vector<std::string> rows;
};

/// Latencies are kept per label: the operation kind and, for ad-hoc queries,
/// the template.
uint16_t LabelOf(const Request& r) {
  return static_cast<uint16_t>(static_cast<int>(r.kind) * 8 + r.tmpl + 1);
}

std::string LabelName(uint16_t label) {
  std::string name = OpName(static_cast<OpKind>(label / 8));
  if (label % 8 != 0) name += ".t" + std::to_string(label % 8 - 1);
  return name;
}

struct ClientResult {
  explicit ClientResult(uint64_t seed) : latency(kReservoirSize, seed) {}

  static constexpr size_t kReservoirSize = 1 << 17;
  Reservoir latency;                      ///< successes in the window
  std::map<OpKind, uint64_t> succeeded;   ///< in the window
  uint64_t attempted = 0;                 ///< in the window
  uint64_t failed = 0;                    ///< in the window
  std::vector<Sample> samples;            ///< ad-hoc, re-checked later
};

struct LoadResult {
  std::vector<ClientResult> clients;
  std::vector<Ledger> ledgers;
  double window_s = 0;
  std::unique_ptr<CounterDelta> counters;
};

void ClientLoop(const Options& o, int client, WireTarget* target, uint16_t port,
                const Reference& ref, Ledger* ledger, uint64_t start_ns,
                uint64_t end_ns, ClientResult* out, Errors* errors) {
  RequestStream stream(o.workload, o.scale, o.seed, client);
  mood::Random sampler(o.seed * 31 + static_cast<uint64_t>(client) + 7);
  Rows rows;
  bool commit_unknown = false;
  std::string why;
  for (;;) {
    const uint64_t t0 = NowNs();
    if (t0 >= end_ns) return;
    const Request r = stream.Next();
    const Status st = RunRequest(*target, r, &rows, &commit_unknown);
    const uint64_t t1 = NowNs();
    const bool in_window = t1 >= start_ns && t1 < end_ns;
    bool ok = st.ok();
    if (ok) {
      if (r.kind == OpKind::kWrite) ledger->Acked(r);
      if (!CheckResponse(o.workload, ref, ledger, r, rows, &why)) {
        errors->Add("wrong result: " + why);
        ok = false;
      } else if (r.kind == OpKind::kQuery && sampler.Uniform(20) == 0) {
        out->samples.push_back({r, Canonical(rows)});
      }
    } else if (r.kind == OpKind::kWrite && commit_unknown) {
      ledger->Unknown(r);
    }
    if (in_window) {
      out->attempted++;
      if (ok) {
        out->succeeded[r.kind]++;
        out->latency.Add(LabelOf(r), static_cast<double>(t1 - t0) / 1e3);
      } else {
        out->failed++;
      }
    }
    if (!st.ok()) {
      // A failed operation: reconnect and re-prepare, then carry on.
      std::fprintf(stderr, "client %d: %s failed: %s\n", client, OpName(r.kind),
                   st.ToString().c_str());
      while (NowNs() < end_ns && !target->Connect(port).ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
}

LoadResult RunLoad(const Options& o, Setup& setup, const Reference& ref,
                   Errors* errors) {
  LoadResult load;
  for (int i = 0; i < kClients; i++) {
    load.clients.emplace_back(o.seed * 131 + static_cast<uint64_t>(i));
    load.ledgers.emplace_back(ref, i);
  }
  mood::MetricsRegistry* registry = setup.instance->db().metrics();
  const uint64_t start_ns = NowNs() + static_cast<uint64_t>(o.warmup * 1e9);
  const uint64_t end_ns = start_ns + static_cast<uint64_t>(o.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; i++) {
    threads.emplace_back(ClientLoop, std::cref(o), i, setup.clients[i].get(),
                         setup.instance->port(), std::cref(ref), &load.ledgers[i],
                         start_ns, end_ns, &load.clients[i], errors);
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start_ns)));
  mood::MetricsSnapshot before = registry->Snapshot();
  const uint64_t window_start = NowNs();
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(end_ns)));
  mood::MetricsSnapshot after = registry->Snapshot();
  load.window_s = static_cast<double>(NowNs() - window_start) / 1e9;
  load.counters = std::make_unique<CounterDelta>(std::move(before), std::move(after));
  for (auto& t : threads) t.join();
  return load;
}

/// The checks that run after the window: the rw_mix durable state (before and
/// after a reopen) and report, and the ad-hoc sample.
void CheckAfterRun(const Options& o, Setup& setup, const Reference& ref,
                   const LoadResult& load, Errors* errors) {
  std::string why;
  if (o.workload == Workload::kRwMix) {
    mood::Database* db = &setup.instance->db();
    if (!CheckStoredState(db, load.ledgers, &why)) errors->Add("stored state: " + why);
    if (!CheckReport(db, /*require_view=*/true, &why)) errors->Add(why);
    setup.clients.clear();
    Status st = setup.instance->Reopen();
    if (!st.ok()) {
      errors->Add("reopen: " + st.ToString());
      return;
    }
    if (!CheckStoredState(db, load.ledgers, &why)) {
      errors->Add("stored state after reopen: " + why);
    }
    if (!CheckReport(db, /*require_view=*/false, &why)) {
      errors->Add("after reopen: " + why);
    }
  }
  if (o.workload == Workload::kAdhocPaths) {
    for (const ClientResult& c : load.clients) {
      for (const Sample& s : c.samples) {
        if (ref.Expected(s.request) != s.rows) {
          errors->Add("wrong result: query " + s.request.sql + " returned " +
                      std::to_string(s.rows.size()) + " rows, expected " +
                      std::to_string(ref.Expected(s.request).size()));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Traced passes: single-client replays of the first requests, each from a
// fresh set-up.

enum class Pass { kWireUntraced, kWire, kSession, kStages };

/// One SELECT through the layers one by one, uncached by construction: parse,
/// normalize, optimize, execute, then the result's wire encoding and decoding.
Status RunStages(mood::Database* db, const Request& r, Rows* rows, Tracer* tracer,
                 uint32_t id) {
  ScopedSpan root(tracer, OpName(r.kind), id, -1);
  const std::string sql = r.kind == OpKind::kLookup ? kLookupSql : r.sql;
  std::vector<MoodValue> params;
  if (r.kind == OpKind::kLookup) params.push_back(MoodValue::Integer(r.key));
  Result<mood::Statement> stmt = Status::Internal("not parsed");
  {
    ScopedSpan span(tracer, "sql.parse", id, root.index());
    stmt = mood::Parser::Parse(sql);
  }
  if (!stmt.ok()) return stmt.status();
  {
    ScopedSpan span(tracer, "sql.normalize", id, root.index());
    if (mood::NormalizeSql(sql).empty()) return Status::ParseError("normalize failed");
  }
  const auto* select = std::get_if<mood::SelectStmt>(&stmt.value());
  if (select == nullptr) return Status::InvalidArgument("not a SELECT: " + sql);
  Result<mood::QueryOptimizer::Optimized> plan = Status::Internal("not optimized");
  {
    ScopedSpan span(tracer, "optimizer.optimize", id, root.index());
    plan = db->optimizer()->Optimize(*select);
  }
  if (!plan.ok()) return plan.status();
  Result<mood::QueryResult> result = Status::Internal("not executed");
  {
    ScopedSpan span(tracer, "exec.execute", id, root.index());
    mood::ExecOptions exec;
    exec.params = &params;
    result = db->executor()->ExecuteSelect(*plan, exec);
  }
  if (!result.ok()) return result.status();
  std::string wire;
  {
    // The kResultSet frame the server would send for this result.
    ScopedSpan span(tracer, "net.encode", id, root.index());
    std::string payload;
    mood::PutFixed16(&payload, static_cast<uint16_t>(result->columns.size()));
    for (const std::string& col : result->columns) {
      mood::PutLengthPrefixedSlice(&payload, col);
    }
    mood::PutFixed64(&payload, result->rows.size());
    mood::PutFixed32(&payload, 0);
    mood::PutFixed32(&payload, static_cast<uint32_t>(result->rows.size()));
    for (const auto& row : result->rows) mood::net::AppendRow(&payload, row);
    mood::net::AppendFrame(&wire, mood::net::FrameType::kResultSet, payload);
  }
  {
    ScopedSpan span(tracer, "net.decode", id, root.index());
    mood::net::Frame frame;
    Status err;
    if (!mood::net::ExtractFrame(&wire, &frame, mood::net::kDefaultMaxFrameBytes, &err)) {
      return err.ok() ? Status::Corruption("incomplete frame") : err;
    }
    mood::Slice in(frame.payload);
    uint16_t ncols = 0;
    uint32_t cursor = 0;
    uint32_t nrows = 0;
    uint64_t total = 0;
    std::string col;
    MOOD_RETURN_IF_ERROR(mood::net::GetU16(&in, &ncols));
    for (uint16_t i = 0; i < ncols; i++) MOOD_RETURN_IF_ERROR(mood::net::GetStr(&in, &col));
    MOOD_RETURN_IF_ERROR(mood::net::GetU64(&in, &total));
    MOOD_RETURN_IF_ERROR(mood::net::GetU32(&in, &cursor));
    MOOD_RETURN_IF_ERROR(mood::net::GetU32(&in, &nrows));
    rows->resize(nrows);
    for (auto& row : *rows) MOOD_RETURN_IF_ERROR(mood::net::DecodeRow(&in, ncols, &row));
  }
  return Status::OK();
}

/// Runs `n` requests of client 0's stream on a fresh set-up. `tracer` records
/// spans; `latency_us` (untraced pass) gets each request's time.
Status RunPass(const Options& o, Pass pass, size_t n, const std::string& dir,
               Tracer* tracer, std::vector<double>* latency_us, Errors* errors) {
  MOOD_ASSIGN_OR_RETURN(auto instance,
                        Instance::Create(o.workload, o.scale, o.seed, dir));
  mood::Database* db = &instance->db();
  WireTarget wire;
  SessionTarget session;
  Target* target = &session;
  if (pass == Pass::kWire || pass == Pass::kWireUntraced) {
    MOOD_RETURN_IF_ERROR(wire.Connect(instance->port()));
    target = &wire;
  } else {
    MOOD_RETURN_IF_ERROR(session.Open(db));
  }
  if (o.workload == Workload::kLookupHot && pass != Pass::kStages) {
    MOOD_RETURN_IF_ERROR(Prime(*target, o.scale));
  }
  MOOD_ASSIGN_OR_RETURN(Reference ref, Reference::Read(db));
  Ledger ledger(ref, 0);
  RequestStream stream(o.workload, o.scale, o.seed, 0);
  mood::MetricsRegistry* reg = db->metrics();
  mood::MetricCounter* hits[] = {reg->Counter("cache.plan.hits"),
                                 reg->Counter("cache.result.hits"),
                                 reg->Counter("mv.hits")};
  static constexpr const char* kHitTags[] = {"plan", "result", "mv"};
  Rows rows;
  bool commit_unknown = false;
  std::string why;
  for (uint32_t i = 0; i < n; i++) {
    const Request r = stream.Next();
    uint64_t before[3];
    for (int k = 0; k < 3; k++) before[k] = hits[k]->value();
    const int32_t root = tracer != nullptr ? static_cast<int32_t>(tracer->size()) : -1;
    const uint64_t t0 = NowNs();
    const Status st = pass == Pass::kStages && r.kind != OpKind::kWrite
                          ? RunStages(db, r, &rows, tracer, i)
                          : RunRequest(*target, r, &rows, &commit_unknown, tracer, i);
    const uint64_t t1 = NowNs();
    if (!st.ok()) {
      return Status::Internal(std::string(OpName(r.kind)) + " failed in a traced pass: " +
                              st.ToString());
    }
    if (latency_us != nullptr) latency_us->push_back(static_cast<double>(t1 - t0) / 1e3);
    if (pass == Pass::kSession) {
      std::string tags;
      for (int k = 0; k < 3; k++) {
        if (hits[k]->value() == before[k]) continue;
        tags += (tags.empty() ? "" : "+") + std::string(kHitTags[k]);
      }
      tracer->Tag(root, std::move(tags));
    }
    if (r.kind == OpKind::kWrite) ledger.Acked(r);
    if (!CheckResponse(o.workload, ref, &ledger, r, rows, &why)) {
      errors->Add("wrong result in a traced pass: " + why);
    } else if (r.kind == OpKind::kQuery && ref.Expected(r) != Canonical(rows)) {
      errors->Add("wrong result in a traced pass: " + r.sql);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

struct RunOutput {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> detail;  ///< per operation kind, for people
};

double Pct(double part, double whole) { return 100.0 * Ratio(part, whole); }

void CounterMetrics(const LoadResult& load, RunOutput* out) {
  const CounterDelta& d = *load.counters;
  double ops = 0;
  double commits = 0;
  double reports = 0;
  for (const ClientResult& c : load.clients) {
    for (const auto& [kind, n] : c.succeeded) {
      ops += static_cast<double>(n);
      if (kind == OpKind::kWrite) commits += static_cast<double>(n);
      if (kind == OpKind::kReport) reports += static_cast<double>(n);
    }
  }
  auto hit_ratio = [&](const std::string& hits, const std::string& misses) {
    return Ratio(d(hits), d(hits) + d(misses));
  };
  auto& v = out->values;
  v["net.frames_per_op"] = Ratio(d("net.frames"), ops);
  v["exec.batches_per_op"] = Ratio(d("exec.batch.batches"), ops);
  v["exec.expr_fallback_per_op"] = Ratio(d("exec.expr.fallback"), ops);
  v["cache.plan.hit_ratio"] = hit_ratio("cache.plan.hits", "cache.plan.misses");
  v["cache.result.hit_ratio"] = hit_ratio("cache.result.hits", "cache.result.misses");
  v["cache.result.invalidations_per_op"] = Ratio(d("cache.result.invalidations"), ops);
  v["cache.plan.evictions_per_op"] = Ratio(d("cache.plan.evictions"), ops);
  v["objects.deref_hit_ratio"] =
      hit_ratio("objects.deref_cache.hits", "objects.deref_cache.misses");
  v["storage.record_reads_per_op"] = Ratio(d("storage.record_reads"), ops);
  v["storage.pool_hit_ratio"] = hit_ratio("bufferpool.hits", "bufferpool.misses");
  v["storage.pool_misses_per_op"] = Ratio(d("bufferpool.misses"), ops);
  v["storage.disk_reads_per_op"] = Ratio(d("storage.disk_reads"), ops);
  v["storage.disk_writes_per_op"] = Ratio(d("storage.disk_writes"), ops);
  v["storage.scan_pages_per_op"] = Ratio(d("storage.scan_pages"), ops);
  v["txn.wal_fsyncs_per_commit"] = Ratio(d("wal.fsyncs"), commits);
  v["txn.wal_group_batch_mean"] =
      Ratio(d("wal.group_commit_batch.sum"), d("wal.group_commit_batch.count"));
  v["txn.lock_waits_per_commit"] = Ratio(d("lockman.wait_blocks"), commits);
  v["txn.snapshot_injected_per_op"] = Ratio(d("txn.snapshot.injected"), ops);
  v["mv.hit_ratio"] = Ratio(d("mv.hits"), reports);
  v["mv.maintenance_rows_per_write"] = Ratio(d("mv.maintenance_rows"), commits);
  v["mv.full_refreshes"] = d("mv.full_refreshes");
}

Status TraceMetrics(const Options& o, const std::string& dir, RunOutput* out,
                    Errors* errors) {
  size_t n = o.trace_requests;
  if (n == 0) n = o.workload == Workload::kAdhocPaths ? 100 : 2000;
  // Room for every span up front, so recording never reallocates mid-pass.
  Tracer wire("wire", 8 * n), session("session", 8 * n), stages("stages", 8 * n);
  std::vector<double> untraced;
  MOOD_RETURN_IF_ERROR(
      RunPass(o, Pass::kWireUntraced, n, dir + "/untraced", nullptr, &untraced, errors));
  MOOD_RETURN_IF_ERROR(RunPass(o, Pass::kWire, n, dir + "/wire", &wire, nullptr, errors));
  MOOD_RETURN_IF_ERROR(
      RunPass(o, Pass::kSession, n, dir + "/session", &session, nullptr, errors));
  MOOD_RETURN_IF_ERROR(
      RunPass(o, Pass::kStages, n, dir + "/stages", &stages, nullptr, errors));

  const std::vector<double> wire_us = wire.RootUs();
  const std::vector<double> session_us = session.RootUs();
  std::vector<double> overhead;
  double session_total = 0;
  for (size_t i = 0; i < wire_us.size() && i < session_us.size(); i++) {
    overhead.push_back(wire_us[i] - session_us[i]);
  }
  for (double us : session_us) session_total += us;
  auto& v = out->values;
  v["net.overhead_us"] = Median(overhead);
  v["core.session_us"] = Median(session_us);
  for (const char* stage : {"sql.parse", "sql.normalize", "optimizer.optimize",
                            "exec.execute", "net.encode", "net.decode"}) {
    v[std::string(stage) + "_us"] = Median(stages.SelfUs(stage));
  }
  v["txn.begin_pct"] = Pct(session.TotalUs("txn.begin"), session_total);
  v["txn.dml_pct"] = Pct(session.TotalUs("txn.dml"), session_total);
  v["txn.commit_pct"] = Pct(session.TotalUs("txn.commit"), session_total);
  v["mv.report_pct"] = Pct(session.TotalUs("report"), session_total);
  const double untraced_p50 = Median(untraced);
  v["trace.overhead_pct"] = Pct(Median(wire_us) - untraced_p50, untraced_p50);

  if (!o.spans.empty()) {
    std::string tsv = "pass\trequest\tspan\tparent\tname\tstart_ns\tend_ns\ttags\n";
    wire.AppendTsv(&tsv);
    session.AppendTsv(&tsv);
    stages.AppendTsv(&tsv);
    std::ofstream(o.spans) << tsv;
  }
  return Status::OK();
}

// setup_s is the median of complete set-ups timed in two batches, one before
// the window and one after it. The host's speed changes in phases of up to a
// few seconds, so set-ups at both ends of the run sample more of them than one
// batch would. A batch has at least kMinSetups; cheap set-ups repeat until it
// has spent about kSetupBudgetS. A traced run sets up once.
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetS = 4;

/// One batch of timed set-ups in `dir`, appended to `setup_s`. Returns the
/// last set-up, still running.
Result<Setup> TimeSetups(const Options& o, const std::string& dir, bool once,
                         std::vector<double>* setup_s) {
  Setup setup;
  const int min_setups = once ? 1 : kMinSetups;
  const double budget_s = once ? 0 : kSetupBudgetS;
  double spent_s = 0;
  for (int i = 0; i < min_setups || spent_s < budget_s; i++) {
    setup = Setup();  // the previous set-up is torn down first
    const uint64_t t0 = NowNs();
    MOOD_ASSIGN_OR_RETURN(setup, SetUp(o, dir + "/setup" + std::to_string(i)));
    setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    spent_s += setup_s->back();
  }
  return setup;
}

/// One workload end to end, with its databases in `dir`. Returns the run's
/// metrics; `errors` collects everything found wrong.
Result<RunOutput> RunWorkload(const Options& o, const std::string& dir, Errors* errors) {
  RunOutput out;
  std::vector<double> setup_s;
  MOOD_ASSIGN_OR_RETURN(Setup setup, TimeSetups(o, dir + "/before", o.trace, &setup_s));
  MOOD_ASSIGN_OR_RETURN(Reference ref, Reference::Read(&setup.instance->db()));
  LoadResult load = RunLoad(o, setup, ref, errors);
  CheckAfterRun(o, setup, ref, load, errors);
  setup = Setup();
  if (!o.trace) {
    MOOD_RETURN_IF_ERROR(TimeSetups(o, dir + "/after", false, &setup_s).status());
  }

  std::vector<double> all;
  std::map<uint16_t, std::vector<double>> by_label;
  uint64_t succeeded = 0;
  for (const ClientResult& c : load.clients) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    for (const auto& [kind, n] : c.succeeded) succeeded += n;
    for (const Reservoir::Entry& e : c.latency) {
      all.push_back(e.us);
      by_label[e.label].push_back(e.us);
    }
  }
  for (const auto& [label, lat] : by_label) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s sampled=%zu p50_us=%.1f p95_us=%.1f p99_us=%.1f",
                  LabelName(label).c_str(), lat.size(), Median(lat),
                  Quantile(lat, 0.95), Quantile(lat, 0.99));
    out.detail.push_back(line);
  }
  out.values["ops_per_s"] = static_cast<double>(succeeded) / load.window_s;
  out.values["latency_p50_us"] = Median(all);
  out.values["latency_p95_us"] = Quantile(all, 0.95);
  out.values["setup_s"] = Median(setup_s);
  if (o.trace) {
    CounterMetrics(load, &out);
    MOOD_RETURN_IF_ERROR(TraceMetrics(o, dir + "/trace", &out, errors));
  }
  out.values["peak_rss_mb"] = PeakRssMb();
  return out;
}

/// The metrics the run reports, in declaration order; a missing one is an
/// error (the smoke test relies on this).
Result<std::vector<Metric>> Select(const RunOutput& out, bool trace) {
  std::vector<Metric> metrics;
  auto take = [&](const auto& defs) -> Status {
    for (const MetricDef& def : defs) {
      auto it = out.values.find(def.name);
      if (it == out.values.end()) return Status::NotFound(std::string("metric ") + def.name);
      metrics.push_back({def.name, it->second, def.unit});
    }
    return Status::OK();
  };
  MOOD_RETURN_IF_ERROR(trace ? take(kPerLayer) : take(kEndToEnd));
  return metrics;
}

/// RunWorkload in a new, empty directory inside `parent`, which is removed
/// afterwards; nothing else under `parent` is touched.
Result<RunOutput> RunInNewDir(const Options& o, const std::string& parent,
                              Errors* errors) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string dir = parent + "/moodbench-XXXXXX";
  if (ec || mkdtemp(dir.data()) == nullptr) {
    return Status::IOError("cannot create a directory in " + parent);
  }
  Result<RunOutput> out = RunWorkload(o, dir, errors);
  std::filesystem::remove_all(dir, ec);
  return out;
}

int Run(const Options& o) {
  Errors errors;
  Result<RunOutput> out = RunInNewDir(o, o.dir, &errors);
  if (!out.ok()) {
    std::fprintf(stderr, "moodbench: %s\n", out.status().ToString().c_str());
    return 2;
  }
  Result<std::vector<Metric>> metrics = Select(*out, o.trace);
  if (!metrics.ok()) {
    std::fprintf(stderr, "moodbench: %s\n", metrics.status().ToString().c_str());
    return 2;
  }
  const char* name = WorkloadName(o.workload);
  for (const std::string& line : out->detail) std::printf("# %s %s\n", name, line.c_str());
  for (const std::string& e : errors.list()) std::printf("# ERROR %s\n", e.c_str());
  for (const Metric& m : *metrics) {
    std::printf("%s %s %.6g %s\n", name, m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s correct=%s attempted=%llu failed=%llu\n", name,
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out->attempted),
              static_cast<unsigned long long>(out->failed));
  if (!o.out.empty()) {
    std::ofstream f(o.out);
    f << "{\"workload\": " << JsonString(name) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << JsonNumber(o.seconds)
      << ", \"trace\": " << (o.trace ? "true" : "false")
      << ", \"correct\": " << (errors.empty() ? "true" : "false")
      << ", \"attempted\": " << out->attempted << ", \"failed\": " << out->failed
      << ", \"metrics\": " << MetricsJson(*metrics) << "}\n";
    if (!f) {
      std::fprintf(stderr, "moodbench: cannot write %s\n", o.out.c_str());
      return 2;
    }
  }
  return errors.empty() ? 0 : 1;
}

/// Every workload for 2 s on PopulatePaperData(300) with a 50-request traced
/// pass: every metric must be reported and every oracle must pass.
int Smoke(const std::string& parent) {
  int rc = 0;
  for (Workload w : kAllWorkloads) {
    Options o;
    o.workload = w;
    o.scale = 300;
    o.seconds = 2;
    o.warmup = 0.5;
    o.trace = true;
    o.trace_requests = 50;
    Errors errors;
    Result<RunOutput> out = RunInNewDir(o, parent, &errors);
    std::string problem;
    if (!out.ok()) {
      problem = out.status().ToString();
    } else if (auto e2e = Select(*out, false); !e2e.ok()) {
      problem = e2e.status().ToString();
    } else if (auto layers = Select(*out, true); !layers.ok()) {
      problem = layers.status().ToString();
    } else if (!errors.empty()) {
      problem = errors.list().front();
    } else if (out->attempted == 0) {
      problem = "no operation attempted";
    }
    std::printf("%s %s%s\n", WorkloadName(w), problem.empty() ? "ok" : "FAILED: ",
                problem.c_str());
    if (!problem.empty()) rc = 1;
  }
  return rc;
}

bool ParseArgs(int argc, char** argv, Options* o, bool* smoke) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        if (!ParseWorkload(val, &o->workload)) return false;
      } else if (key == "--seed") {
        o->seed = std::stoull(val);
      } else if (key == "--seconds") {
        o->seconds = std::stod(val);
      } else if (key == "--trace") {
        o->trace = true;
      } else if (key == "--out") {
        o->out = val;
      } else if (key == "--spans") {
        o->spans = val;
      } else if (key == "--dir") {
        o->dir = val;
      } else if (key == "--smoke") {
        *smoke = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return o->seconds > 0 && !o->dir.empty();
}

}  // namespace
}  // namespace moodbench

int main(int argc, char** argv) {
  moodbench::Options o;
  bool smoke = false;
  if (!moodbench::ParseArgs(argc, argv, &o, &smoke)) {
    std::fprintf(stderr,
                 "usage: moodbench --workload=lookup_hot|rw_mix|adhoc_paths --seed=N "
                 "--dir=DIR [--seconds=S] [--trace] [--out=FILE] [--spans=FILE]\n"
                 "       moodbench --smoke --dir=DIR\n");
    return 2;
  }
  if (smoke) return moodbench::Smoke(o.dir);
  if (o.scale == 0) o.scale = moodbench::DefaultScale(o.workload);
  return moodbench::Run(o);
}
