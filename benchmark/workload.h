#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "benchmark/trace.h"
#include "common/random.h"
#include "core/database.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"

namespace moodbench {

using Rows = std::vector<std::vector<mood::MoodValue>>;

enum class Workload { kLookupHot, kRwMix, kAdhocPaths };
inline constexpr Workload kAllWorkloads[] = {Workload::kLookupHot, Workload::kRwMix,
                                             Workload::kAdhocPaths};
const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);
/// PopulatePaperData scale: `small` data (2000, ~300 pages, fits the 1024-page
/// pool) or `paper` data (20000, ~2990 pages, 2.9x the pool).
uint64_t DefaultScale(Workload w);

enum class OpKind : uint8_t { kLookup, kReport, kWrite, kQuery };
const char* OpName(OpKind kind);

inline constexpr const char* kLookupSql =
    "SELECT v.id, v.weight, v.company.name FROM Vehicle v WHERE v.id = ?";
inline constexpr int32_t kHeavyWeight = 2600;
inline constexpr const char* kReportSql =
    "SELECT v.id, v.weight FROM Vehicle v WHERE v.weight > 2600";
/// rw_mix writes draw weights from [kMinWeight, kMaxWeight), so rows move both
/// into and out of the `heavy` view; populated weights lie in [800, 2800).
inline constexpr int32_t kMinWeight = 800;
inline constexpr int32_t kMaxWeight = 3600;

/// Number of objects in the `Vehicle` extent itself (ids 0, 3, 6, ...); the
/// other two thirds of the ids belong to its subclasses.
inline uint64_t KeyCount(uint64_t scale) { return (scale + 2) / 3; }
inline int32_t KeyId(uint64_t j) { return static_cast<int32_t>(3 * j); }
/// The rw_mix connection that writes `id`: connection i owns id/3 == i mod 2,
/// so writers never race on a key and each knows its keys' expected values.
inline int OwnerOf(int32_t id) { return (id / 3) % 2; }

std::string UpdateSql(int32_t id, int32_t weight);
std::string NewLogSql(int32_t id, int32_t weight);

struct Request {
  OpKind kind = OpKind::kLookup;
  int32_t key = 0;     ///< lookup and write: vehicle id
  int32_t weight = 0;  ///< write: new weight
  int tmpl = -1;       ///< query: template index
  std::string name;    ///< query: company-name literal (template 0)
  int64_t a = 0;       ///< query: first numeric literal
  int64_t b = 0;       ///< query: second numeric literal
  std::string sql;     ///< report and query: statement text
};

/// The request sequence of one client, a function of (workload, scale, seed,
/// client) alone: the engine only ever sees the generated SQL and parameters.
class RequestStream {
 public:
  RequestStream(Workload w, uint64_t scale, uint64_t seed, int client);
  Request Next();

 private:
  Request NextQuery();

  Workload workload_;
  uint64_t scale_;
  int client_;
  mood::Random rng_;
  size_t cycle_ = 0;  ///< adhoc_paths: queries issued so far
  /// Ad-hoc texts already issued: none repeats within a run, so every query
  /// pays parse, optimize and compile.
  std::unordered_set<std::string> issued_;
};

/// One set-up database with the wire server running on it. Destruction stops
/// the server, closes the database and removes its directory.
class Instance {
 public:
  /// Builds the workload's database in the empty directory `dir` and starts
  /// the server.
  static mood::Result<std::unique_ptr<Instance>> Create(Workload w, uint64_t scale,
                                                        uint64_t seed, std::string dir);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  mood::Database& db() { return db_; }
  uint16_t port() const { return server_.port(); }
  /// Stops the server, closes the database and opens it again (recovery
  /// included): the durability half of the rw_mix oracle.
  mood::Status Reopen();

 private:
  Instance() = default;

  std::string dir_;
  mood::DatabaseOptions options_;
  mood::Database db_;
  mood::net::MoodServer server_;
};

/// Where requests go: a wire connection or an in-process Session.
class Target {
 public:
  virtual ~Target() = default;
  /// The prepared kLookupSql with `id` bound.
  virtual mood::Status Lookup(int32_t id, Rows* rows) = 0;
  virtual mood::Status Execute(const std::string& sql, Rows* rows) = 0;
  virtual mood::Status Begin() = 0;
  virtual mood::Status Commit() = 0;
  virtual mood::Status Abort() = 0;
};

class WireTarget : public Target {
 public:
  /// Connects (closing any previous connection) and prepares the lookup.
  mood::Status Connect(uint16_t port);
  mood::Status Lookup(int32_t id, Rows* rows) override;
  mood::Status Execute(const std::string& sql, Rows* rows) override;
  mood::Status Begin() override { return client_.Begin(); }
  mood::Status Commit() override { return client_.Commit(); }
  mood::Status Abort() override { return client_.Abort(); }

 private:
  mood::net::MoodClient client_;
  mood::net::WirePrepared lookup_;
};

class SessionTarget : public Target {
 public:
  /// Opens a session on `db` and prepares the lookup.
  mood::Status Open(mood::Database* db);
  mood::Status Lookup(int32_t id, Rows* rows) override;
  mood::Status Execute(const std::string& sql, Rows* rows) override;
  mood::Status Begin() override;
  mood::Status Commit() override;
  mood::Status Abort() override;

 private:
  std::unique_ptr<mood::Session> session_;
  mood::PreparedStatement lookup_;
  mood::TxnHandle txn_;
};

/// Runs one request. A write is Begin, UPDATE, NEW, Commit, each a child span
/// of the request's root span when `tracer` is set; on a failure before the
/// Commit the transaction is aborted. `*commit_unknown` is set when a Commit
/// was sent but not acknowledged: the write may or may not have committed.
mood::Status RunRequest(Target& target, const Request& r, Rows* rows,
                        bool* commit_unknown, Tracer* tracer = nullptr,
                        uint32_t request_id = 0);

/// Runs the prepared lookup once per key, so later lookups hit the result cache.
mood::Status Prime(Target& target, uint64_t scale);

}  // namespace moodbench
