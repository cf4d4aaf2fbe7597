#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchmark/workload.h"

namespace moodbench {

/// Reference data read through ObjectManager::ScanExtent and Fetch alone, so
/// it is independent of the parser, optimizer, executor and caches whose
/// results it checks.
class Reference {
 public:
  static mood::Result<Reference> Read(mood::Database* db);

  struct Vehicle {
    mood::Oid oid;
    int32_t id = 0;
    int32_t weight = 0;
    std::string company;  ///< v.company.name
    int32_t cylinders = 0;  ///< v.drivetrain.engine.cylinders
    int32_t size = 0;       ///< v.drivetrain.engine.size
  };
  /// An object of the `Vehicle` extent itself by id; null when absent.
  const Vehicle* Find(int32_t id) const;
  const std::vector<Vehicle>& vehicles() const { return vehicles_; }

  /// The rows an ad-hoc query request must return, in Canonical form.
  std::vector<std::string> Expected(const Request& r) const;

 private:
  /// One object of EVERY Automobile - JapaneseAuto.
  struct Automobile {
    mood::Oid oid;
    bool automatic = false;  ///< c.drivetrain.transmission = 'AUTOMATIC'
    int32_t cylinders = 0;   ///< c.drivetrain.engine.cylinders
    int32_t size = 0;        ///< c.drivetrain.engine.size
  };

  std::vector<Vehicle> vehicles_;
  std::unordered_map<int32_t, size_t> by_id_;
  std::vector<Automobile> automobiles_;
};

/// Rows as a sorted list of their binary encodings: two results are equal as
/// multisets exactly when their Canonical forms are equal.
std::vector<std::string> Canonical(const Rows& rows);

/// What one rw_mix connection knows about the keys it alone writes: each
/// key's last acknowledged weight, plus the weights of commits whose outcome
/// it never learned (sent, but the reply was lost).
class Ledger {
 public:
  Ledger(const Reference& ref, int client);

  void Acked(const Request& write);
  void Unknown(const Request& write);
  bool Owns(int32_t id) const { return acked_.count(id) != 0; }
  /// True when `weight` is a state key `id` may be in.
  bool Allows(int32_t id, int32_t weight) const;
  /// True when the key's weight is exactly known (no unknown commit since
  /// its last acknowledged one).
  bool Exact(int32_t id, int32_t* weight) const;
  const std::unordered_map<int32_t, int32_t>& acked() const { return acked_; }
  uint64_t logs_acked() const { return logs_acked_; }
  uint64_t logs_unknown() const { return logs_unknown_; }

 private:
  /// Per owned key: weights of commits sent since its last acknowledged one
  /// whose outcome is unknown.
  std::unordered_map<int32_t, std::vector<int32_t>> unknown_;
  std::unordered_map<int32_t, int32_t> acked_;  ///< per owned key
  uint64_t logs_acked_ = 0;
  uint64_t logs_unknown_ = 0;
};

/// Checks one successful response inline. Ad-hoc queries are checked later
/// on a sample (Reference::Expected), so they always pass here.
bool CheckResponse(Workload w, const Reference& ref, const Ledger* own,
                   const Request& r, const Rows& rows, std::string* why);

/// After an rw_mix run: every stored weight is one the owning connection's
/// ledger allows, and the ServiceLog extent holds every acknowledged NEW
/// (plus at most the unknown ones). Reads through ObjectManager only.
bool CheckStoredState(mood::Database* db, const std::vector<Ledger>& ledgers,
                      std::string* why);

/// The `heavy` report run through a session equals the rows computed from the
/// stored weights; with `require_view`, it must also have been served by the
/// materialized view (mv.hits moved).
bool CheckReport(mood::Database* db, bool require_view, std::string* why);

}  // namespace moodbench
