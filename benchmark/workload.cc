#include "benchmark/workload.h"

#include <algorithm>
#include <filesystem>

#include "core/paper_example.h"

namespace moodbench {

using mood::MoodValue;
using mood::Result;
using mood::Status;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLookupHot:
      return "lookup_hot";
    case Workload::kRwMix:
      return "rw_mix";
    case Workload::kAdhocPaths:
      return "adhoc_paths";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t DefaultScale(Workload w) { return w == Workload::kAdhocPaths ? 20000 : 2000; }

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kReport:
      return "report";
    case OpKind::kWrite:
      return "write";
    case OpKind::kQuery:
      return "query";
  }
  return "?";
}

std::string UpdateSql(int32_t id, int32_t weight) {
  return "UPDATE Vehicle v SET weight = " + std::to_string(weight) +
         " WHERE v.id = " + std::to_string(id);
}

std::string NewLogSql(int32_t id, int32_t weight) {
  return "NEW ServiceLog <" + std::to_string(id) + ", " + std::to_string(weight) + ">";
}

// ---------------------------------------------------------------------------
// Request streams

RequestStream::RequestStream(Workload w, uint64_t scale, uint64_t seed, int client)
    : workload_(w),
      scale_(scale),
      client_(client),
      rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(client) + 1) {}

Request RequestStream::Next() {
  Request r;
  const uint64_t keys = KeyCount(scale_);
  switch (workload_) {
    case Workload::kLookupHot:
      r.key = KeyId(rng_.Uniform(keys));
      return r;
    case Workload::kRwMix: {
      const uint64_t pick = rng_.Uniform(100);
      if (pick < 75) {
        r.key = KeyId(rng_.Uniform(keys));
      } else if (pick < 80) {
        r.kind = OpKind::kReport;
        r.sql = kReportSql;
      } else {
        r.kind = OpKind::kWrite;
        // Keys j with j % 2 == client, i.e. ids with id/3 == client mod 2.
        const uint64_t own = (keys + 1 - static_cast<uint64_t>(client_)) / 2;
        r.key = KeyId(2 * rng_.Uniform(own) + static_cast<uint64_t>(client_));
        r.weight = static_cast<int32_t>(rng_.Range(kMinWeight, kMaxWeight - 1));
      }
      return r;
    }
    case Workload::kAdhocPaths:
      return NextQuery();
  }
  return r;
}

// The four templates take equal shares, in a fixed cycle that each client
// enters at its own offset.
Request RequestStream::NextQuery() {
  constexpr size_t kTemplates = 4;
  Request r;
  r.kind = OpKind::kQuery;
  r.tmpl = static_cast<int>((cycle_++ + static_cast<size_t>(client_)) % kTemplates);
  const int64_t engines = static_cast<int64_t>(std::max<uint64_t>(1, scale_ / 2));
  // Vehicles reference the first scale (= 10% of the) companies.
  const int64_t companies = static_cast<int64_t>(std::max<uint64_t>(2, scale_));
  // One literal of every template carries the client's parity, so the two
  // clients never issue the same text.
  auto with_parity = [&](int64_t v) { return v - (v & 1) + client_; };
  for (;;) {
    const int64_t cylinders = 2 + 2 * rng_.Range(0, 15);
    switch (r.tmpl) {
      case 0:  // Example 8.1
        r.name = "company" + std::to_string(with_parity(rng_.Range(2, companies - 1)));
        r.a = cylinders;
        r.sql = "SELECT v FROM Vehicle v WHERE v.company.name = '" + r.name +
                "' AND v.drivetrain.engine.cylinders = " + std::to_string(r.a);
        break;
      case 1:  // Example 8.2 with a weight bound
        r.a = cylinders;
        r.b = with_parity(rng_.Range(800, 2799));
        r.sql = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = " +
                std::to_string(r.a) + " AND v.weight > " + std::to_string(r.b);
        break;
      case 2:  // Section 3.1 join with cylinder and size bounds
        r.a = cylinders;
        r.b = with_parity(1000 + rng_.Range(0, engines));
        r.sql =
            "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v "
            "WHERE c.drivetrain.transmission = 'AUTOMATIC' AND c.drivetrain.engine = v "
            "AND v.cylinders > " +
            std::to_string(r.a) + " AND v.size < " + std::to_string(r.b);
        break;
      default:  // unindexed path range
        r.a = with_parity(1000 + rng_.Range(0, engines));
        r.b = r.a + 2 + rng_.Range(0, std::max<int64_t>(1, engines / 10));
        r.sql = "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.size > " +
                std::to_string(r.a) +
                " AND v.drivetrain.engine.size < " + std::to_string(r.b);
        break;
    }
    if (issued_.insert(r.sql).second) return r;
  }
}

// ---------------------------------------------------------------------------
// Instances

Result<std::unique_ptr<Instance>> Instance::Create(Workload w, uint64_t scale,
                                                   uint64_t seed, std::string dir) {
  std::unique_ptr<Instance> inst(new Instance());
  inst->dir_ = std::move(dir);
  std::error_code ec;
  std::filesystem::create_directories(inst->dir_, ec);
  if (ec) return Status::IOError("cannot create " + inst->dir_ + ": " + ec.message());
  // The same engine configuration for every workload: 2 intra-query worker
  // threads and group commit (every acknowledged commit is fsynced, concurrent
  // committers share an fsync); pool, plan cache and result cache at defaults.
  inst->options_.exec_threads = 2;
  inst->options_.wal_fsync = mood::WalFsync::kGroup;
  mood::Database& db = inst->db_;
  MOOD_RETURN_IF_ERROR(db.Open(inst->dir_ + "/mood", inst->options_));
  MOOD_RETURN_IF_ERROR(mood::paperdb::CreatePaperSchema(&db));
  MOOD_RETURN_IF_ERROR(mood::paperdb::PopulatePaperData(&db, scale, seed).status());
  std::vector<std::string> ddl = {"CREATE INDEX veh_id ON Vehicle(id) USING BTREE"};
  if (w == Workload::kAdhocPaths) {
    ddl.push_back("CREATE INDEX eng_cyl ON VehicleEngine(cylinders) USING BTREE");
    ddl.push_back("ANALYZE");
  }
  if (w == Workload::kRwMix) {
    ddl.push_back("CREATE CLASS ServiceLog TUPLE (vid Integer, w Integer)");
    ddl.push_back(std::string("CREATE MATERIALIZED VIEW heavy AS ") + kReportSql);
  }
  for (const std::string& sql : ddl) MOOD_RETURN_IF_ERROR(db.Execute(sql).status());
  mood::net::ServerOptions server;
  server.worker_threads = 2;
  // The idle reaper is off: its `now - last_active_ms` check can wrap when a
  // worker stores a later timestamp after the reaper read the clock, closing
  // busy sessions, and no operation of a workload may fail (see README.md,
  // known defects).
  server.idle_timeout_ms = 0;
  MOOD_RETURN_IF_ERROR(inst->server_.Start(&db, server));
  return inst;
}

Instance::~Instance() {
  server_.Stop();
  (void)db_.Close();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Status Instance::Reopen() {
  server_.Stop();
  MOOD_RETURN_IF_ERROR(db_.Close());
  return db_.Open(dir_ + "/mood", options_);
}

// ---------------------------------------------------------------------------
// Targets

Status WireTarget::Connect(uint16_t port) {
  client_.Close();
  MOOD_RETURN_IF_ERROR(client_.Connect("127.0.0.1", port));
  MOOD_ASSIGN_OR_RETURN(lookup_, client_.Prepare(kLookupSql));
  return Status::OK();
}

Status WireTarget::Lookup(int32_t id, Rows* rows) {
  MOOD_ASSIGN_OR_RETURN(mood::net::WireResult res,
                        client_.ExecutePrepared(lookup_, {MoodValue::Integer(id)}));
  *rows = std::move(res.rows);
  return Status::OK();
}

Status WireTarget::Execute(const std::string& sql, Rows* rows) {
  MOOD_ASSIGN_OR_RETURN(mood::net::WireResult res, client_.Execute(sql));
  *rows = std::move(res.rows);
  return Status::OK();
}

Status SessionTarget::Open(mood::Database* db) {
  session_ = db->CreateSession();
  MOOD_ASSIGN_OR_RETURN(lookup_, session_->Prepare(kLookupSql));
  return Status::OK();
}

Status SessionTarget::Lookup(int32_t id, Rows* rows) {
  MOOD_ASSIGN_OR_RETURN(mood::ExecResult res,
                        session_->ExecutePrepared(lookup_, {MoodValue::Integer(id)}));
  *rows = std::move(res.query.rows);
  return Status::OK();
}

Status SessionTarget::Execute(const std::string& sql, Rows* rows) {
  MOOD_ASSIGN_OR_RETURN(mood::ExecResult res, session_->Execute(sql));
  *rows = std::move(res.query.rows);
  return Status::OK();
}

Status SessionTarget::Begin() {
  MOOD_ASSIGN_OR_RETURN(txn_, session_->Begin());
  return Status::OK();
}

Status SessionTarget::Commit() { return txn_.Commit(); }

Status SessionTarget::Abort() { return txn_.active() ? txn_.Abort() : Status::OK(); }

// ---------------------------------------------------------------------------

Status RunRequest(Target& target, const Request& r, Rows* rows, bool* commit_unknown,
                  Tracer* tracer, uint32_t request_id) {
  ScopedSpan root(tracer, OpName(r.kind), request_id, -1);
  *commit_unknown = false;
  rows->clear();
  if (r.kind == OpKind::kLookup) return target.Lookup(r.key, rows);
  if (r.kind != OpKind::kWrite) return target.Execute(r.sql, rows);
  Status st;
  {
    ScopedSpan span(tracer, "txn.begin", request_id, root.index());
    st = target.Begin();
  }
  if (!st.ok()) return st;
  {
    ScopedSpan span(tracer, "txn.dml", request_id, root.index());
    st = target.Execute(UpdateSql(r.key, r.weight), rows);
  }
  if (st.ok()) {
    ScopedSpan span(tracer, "txn.dml", request_id, root.index());
    st = target.Execute(NewLogSql(r.key, r.weight), rows);
  }
  if (!st.ok()) {
    (void)target.Abort();
    return st;
  }
  *commit_unknown = true;
  {
    ScopedSpan span(tracer, "txn.commit", request_id, root.index());
    st = target.Commit();
  }
  *commit_unknown = !st.ok();
  return st;
}

Status Prime(Target& target, uint64_t scale) {
  Rows rows;
  for (uint64_t j = 0; j < KeyCount(scale); j++) {
    MOOD_RETURN_IF_ERROR(target.Lookup(KeyId(j), &rows));
  }
  return Status::OK();
}

}  // namespace moodbench
