#include "exec/plan_cache.h"

#include <set>

#include "sql/lexer.h"

namespace mood {

std::string NormalizeSql(const std::string& sql) {
  auto tokens = Lexer::Tokenize(sql);
  if (!tokens.ok()) return "";
  std::string out;
  size_t start = 0;
  // Strip the EXPLAIN prefix so EXPLAIN <select> keys like its bare SELECT.
  while (start < tokens.value().size() &&
         tokens.value()[start].type == TokenType::kKeyword &&
         (tokens.value()[start].text == "EXPLAIN" ||
          tokens.value()[start].text == "ANALYZE" ||
          tokens.value()[start].text == "VERBOSE")) {
    start++;
  }
  for (size_t i = start; i < tokens.value().size(); i++) {
    const Token& t = tokens.value()[i];
    if (t.type == TokenType::kEof) break;
    // A trailing ';' (possibly repeated) is not part of the statement.
    if (t.type == TokenType::kSemicolon) {
      bool only_semis = true;
      for (size_t j = i + 1; j < tokens.value().size(); j++) {
        if (tokens.value()[j].type != TokenType::kSemicolon &&
            tokens.value()[j].type != TokenType::kEof) {
          only_semis = false;
          break;
        }
      }
      if (only_semis) break;
    }
    if (!out.empty()) out += ' ';
    if (t.type == TokenType::kStringLiteral) {
      out += '\'';
      for (char c : t.text) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += '\'';
    } else {
      out += t.text;
    }
  }
  return out;
}

std::string ParamTypeSignature(const std::vector<MoodValue>& params) {
  std::string out;
  for (const MoodValue& v : params) {
    if (!out.empty()) out += ',';
    out += ValueKindName(v.kind());
  }
  return out;
}

std::string ParamValueKey(const std::vector<MoodValue>& params) {
  std::string out;
  std::string enc;
  for (const MoodValue& v : params) {
    enc.clear();
    v.EncodeTo(&enc);
    out += std::to_string(enc.size());
    out += ':';
    out += enc;
  }
  return out;
}

// --- PlanCache -----------------------------------------------------------------

void PlanCache::Configure(size_t max_entries, uint64_t churn_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  churn_delta_ = churn_delta;
  lru_.SetCapacity(max_entries);
}

CachedPlanPtr PlanCache::Lookup(const std::string& key, uint64_t cur_schema_epoch,
                                uint64_t cur_plans_version,
                                const WriteEpochFn& epoch_of) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t invalid_before = lru_.invalidations();
  const CachedPlanPtr* plan = lru_.Find(key, [&](const CachedPlanPtr& p) {
    return p->plans_version == cur_plans_version &&
           StampHolds(p->schema_epoch, cur_schema_epoch, p->extents, epoch_of,
                      churn_delta_);
  });
  counters_.Probe(plan != nullptr, lru_.invalidations() != invalid_before);
  return plan != nullptr ? *plan : nullptr;
}

void PlanCache::Insert(const std::string& key, CachedPlanPtr plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.Evicted(lru_.Put(key, std::move(plan)));
}

bool PlanCache::ContainsSql(const std::string& normalized_sql) const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.ContainsPrefix(normalized_sql + '\x1f');
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.capacity();
}

// --- ResultCache ---------------------------------------------------------------

namespace {
size_t ApproxValueBytes(const MoodValue& v) {
  size_t bytes = sizeof(MoodValue);
  switch (v.kind()) {
    case ValueKind::kString:
      bytes += v.AsString().size();
      break;
    case ValueKind::kTuple:
    case ValueKind::kSet:
    case ValueKind::kList:
      for (const MoodValue& e : v.elements()) bytes += ApproxValueBytes(e);
      break;
    default:
      break;
  }
  return bytes;
}
}  // namespace

size_t ApproxResultBytes(const QueryResult& result) {
  size_t bytes = sizeof(QueryResult);
  for (const auto& c : result.columns) bytes += c.size() + sizeof(std::string);
  for (const auto& row : result.rows) {
    bytes += sizeof(row);
    for (const MoodValue& v : row) bytes += ApproxValueBytes(v);
  }
  return bytes;
}

void ResultCache::Configure(size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.SetCapacity(max_bytes);
}

bool ResultCache::Lookup(const std::string& key, uint64_t cur_schema_epoch,
                         const WriteEpochFn& epoch_of, QueryResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t invalid_before = lru_.invalidations();
  const Entry* e = lru_.Find(key, [&](const Entry& entry) {
    return StampHolds(entry.schema_epoch, cur_schema_epoch, entry.extents, epoch_of,
                      /*max_churn=*/0);
  });
  counters_.Probe(e != nullptr, lru_.invalidations() != invalid_before);
  if (e == nullptr) return false;
  *out = e->result;
  return true;
}

void ResultCache::Insert(const std::string& key, const QueryResult& result,
                         uint64_t schema_epoch,
                         const std::vector<TouchedExtent>& extents,
                         const WriteEpochFn& epoch_of) {
  // Staleness-never: a writer that committed while this query ran moved some
  // extent's epoch past the captured value — the result may mix before/after
  // states, so it must not be admitted. (A writer landing after this check is
  // harmless: Lookup re-validates against then-current epochs and misses.)
  // The schema cannot move under the caller's shared gate; the re-check is
  // about the extents.
  if (!StampHolds(schema_epoch, schema_epoch, extents, epoch_of, /*max_churn=*/0)) {
    return;
  }
  const size_t bytes = ApproxResultBytes(result) + key.size();
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > lru_.capacity()) return;  // never admitted: skip copying the rows
  counters_.Evicted(lru_.Put(key, Entry{result, schema_epoch, extents}, bytes));
}

size_t ResultCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.capacity();
}

// --- Touched extents -----------------------------------------------------------

Status CollectTouchedExtents(Catalog* catalog, ObjectManager* objects,
                             const BoundQuery& bound,
                             std::vector<TouchedExtent>* extents,
                             bool* method_free) {
  *method_free = true;
  std::set<std::string> classes;
  auto add_subtree = [&](const std::string& cls) -> Status {
    // References can point at subclass instances and EVERY scans cover them,
    // so a class always pulls in its whole subtree (conservative superset —
    // the only risk of over-approximating is an extra invalidation).
    MOOD_ASSIGN_OR_RETURN(auto subtree, catalog->SubtreeClasses(cls));
    for (auto& c : subtree) classes.insert(std::move(c));
    return Status::OK();
  };
  for (const auto& [var, fe] : bound.range_vars) {
    (void)var;
    MOOD_RETURN_IF_ERROR(add_subtree(fe.class_name));
  }

  Binder binder(catalog);
  std::function<Status(const ExprPtr&)> walk = [&](const ExprPtr& e) -> Status {
    if (e == nullptr) return Status::OK();
    switch (e->kind) {
      case ExprKind::kLiteral:
      case ExprKind::kParameter:
        return Status::OK();
      case ExprKind::kUnary:
        return walk(e->operand);
      case ExprKind::kBinary:
        MOOD_RETURN_IF_ERROR(walk(e->lhs));
        return walk(e->rhs);
      case ExprKind::kPath: {
        auto bp = binder.ResolvePath(bound, *e);
        if (!bp.ok()) {
          // The query bound once already; if the path no longer resolves,
          // stay safe by refusing result caching rather than failing.
          *method_free = false;
        } else {
          for (const auto& cls : bp.value().classes) {
            MOOD_RETURN_IF_ERROR(add_subtree(cls));
          }
          for (bool m : bp.value().step_is_method) {
            if (m) *method_free = false;
          }
        }
        for (const auto& step : e->steps) {
          for (const auto& a : step.args) MOOD_RETURN_IF_ERROR(walk(a));
        }
        return Status::OK();
      }
    }
    return Status::OK();
  };
  const SelectStmt& stmt = bound.stmt;
  for (const auto& e : stmt.projection) MOOD_RETURN_IF_ERROR(walk(e));
  MOOD_RETURN_IF_ERROR(walk(stmt.where));
  for (const auto& e : stmt.group_by) MOOD_RETURN_IF_ERROR(walk(e));
  MOOD_RETURN_IF_ERROR(walk(stmt.having));
  for (const auto& k : stmt.order_by) MOOD_RETURN_IF_ERROR(walk(k.expr));

  extents->clear();
  std::set<uint16_t> files;
  for (const auto& cls : classes) {
    auto t = catalog->Lookup(cls);
    if (!t.ok() || !t.value()->is_class) continue;
    if (t.value()->extent_file == kInvalidFileId) continue;
    files.insert(static_cast<uint16_t>(t.value()->extent_file));
  }
  for (uint16_t f : files) {
    extents->push_back(TouchedExtent{f, objects->WriteEpochOf(f)});
  }
  return Status::OK();
}

}  // namespace mood
