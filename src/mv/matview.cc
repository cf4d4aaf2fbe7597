#include "mv/matview.h"

#include <algorithm>
#include <functional>

#include "exec/plan_cache.h"
#include "obs/metrics.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace mood {

namespace {

/// A delta set larger than this collapses into one full refresh: re-deriving
/// that many roots one by one would cost more than re-running the view, and it
/// bounds the dirty-set memory of a write-heavy period with no reads.
constexpr size_t kMaxDeltaObjects = 4096;

}  // namespace

Status MvManager::Create(const std::string& name, const std::string& select_sql,
                         const SelectStmt& stmt) {
  if (ParamCount(stmt) > 0) {
    return Status::NotSupported(
        "materialized view definitions cannot use ? parameters");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("materialized view '" + name + "' already exists");
  }
  auto v = std::make_unique<MatView>();
  v->name = name;
  v->select_sql = select_sql;
  v->normalized_sql = NormalizeSql(select_sql);
  if (v->normalized_sql.empty()) {
    return Status::InvalidArgument("view definition failed to normalize");
  }
  if (by_sql_.count(v->normalized_sql) > 0) {
    return Status::AlreadyExists(
        "another materialized view matches the same normalized query");
  }
  v->stmt = stmt;
  MOOD_RETURN_IF_ERROR(Setup(v.get()));
  MOOD_RETURN_IF_ERROR(RebuildLocked(v.get()));
  if (rebuilds_ != nullptr) rebuilds_->Add();
  by_sql_[v->normalized_sql] = v.get();
  views_[name] = std::move(v);
  ReindexDeps();
  return Status::OK();
}

Status MvManager::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no materialized view '" + name + "'");
  }
  by_sql_.erase(it->second->normalized_sql);
  views_.erase(it);
  ReindexDeps();
  return Status::OK();
}

Status MvManager::Load(const std::vector<MatViewDef>& defs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const MatViewDef& d : defs) {
    MOOD_ASSIGN_OR_RETURN(Statement st, Parser::Parse(d.select_sql));
    auto* sel = std::get_if<SelectStmt>(&st);
    if (sel == nullptr) {
      return Status::Corruption("materialized view '" + d.name +
                                "' definition is not a SELECT");
    }
    auto v = std::make_unique<MatView>();
    v->name = d.name;
    v->select_sql = d.select_sql;
    v->normalized_sql = NormalizeSql(d.select_sql);
    v->stmt = std::move(*sel);
    v->needs_setup = true;  // bind + materialize lazily on first serve
    by_sql_[v->normalized_sql] = v.get();
    views_[d.name] = std::move(v);
  }
  // Dependency routing stays empty until a view's first setup; any write that
  // lands before then is covered by the initial full rebuild.
  return Status::OK();
}

void MvManager::OnWrite(uint16_t file, Oid oid) {
  if (dep_count_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_dep_.find(file);
  if (it == by_dep_.end()) return;
  for (MatView* v : it->second) {
    if (v->delta_maintainable && v->root_files.count(file) > 0) {
      v->dirty_roots.insert(oid.Pack());
      if (v->dirty_roots.size() >= kMaxDeltaObjects) {
        v->dirty_roots.clear();
        v->full_dirty = true;
      }
    } else {
      // A hop extent changed (or the view is full-refresh anyway): per-object
      // re-derivation cannot localize the affected roots.
      v->full_dirty = true;
    }
  }
}

Status MvManager::Setup(MatView* v) {
  v->schema_epoch = catalog_->schema_epoch();
  MOOD_ASSIGN_OR_RETURN(v->optimized,
                        optimizer_->Optimize(v->stmt, /*use_feedback=*/false));
  bool method_free = false;
  std::vector<TouchedExtent> extents;
  MOOD_RETURN_IF_ERROR(CollectTouchedExtents(catalog_, objects_, v->optimized.bound,
                                             &extents, &method_free));
  if (!method_free) {
    return Status::NotSupported("materialized view '" + v->name +
                                "' calls methods; dependency tracking is unsound");
  }
  v->dep_files.clear();
  for (const TouchedExtent& te : extents) v->dep_files.push_back(te.file);
  v->root_files.clear();
  v->root_var = v->stmt.from.empty() ? "" : v->stmt.from[0].var;
  if (v->stmt.from.size() == 1) {
    const FromEntry& fe = v->stmt.from[0];
    MOOD_ASSIGN_OR_RETURN(std::vector<std::string> classes,
                          objects_->ScanClasses(fe.class_name, fe.every, fe.excludes));
    for (const std::string& cls : classes) {
      auto t = catalog_->Lookup(cls);
      if (t.ok() && t.value()->is_class && t.value()->extent_file != kInvalidFileId) {
        v->root_files.insert(static_cast<uint16_t>(t.value()->extent_file));
      }
    }
  }
  AnalyzeMaintainability(v);
  v->delta_plan = nullptr;
  if (v->delta_maintainable) {
    PlanPtr leaf = PlanNode::Bind(v->stmt.from[0]);
    v->delta_plan = v->stmt.where != nullptr
                        ? PlanNode::Filter(std::move(leaf), {v->stmt.where})
                        : std::move(leaf);
  }
  v->needs_setup = false;
  v->broken = false;
  return Status::OK();
}

void MvManager::AnalyzeMaintainability(MatView* v) {
  v->delta_maintainable = false;
  v->refusal.clear();
  const SelectStmt& stmt = v->stmt;
  // The per-root bucket model needs output rows that (a) derive from exactly
  // one root object each and (b) group by root in root-scan order. Each
  // refusal below breaks one of those properties; the view still works via
  // flagged full refresh.
  if (stmt.from.size() != 1) {
    v->refusal = "multiple range variables";
    return;
  }
  if (!stmt.group_by.empty() || stmt.having != nullptr) {
    v->refusal = "GROUP BY/HAVING aggregates across roots";
    return;
  }
  if (!stmt.order_by.empty()) {
    v->refusal = "ORDER BY reorders across roots";
    return;
  }
  if (stmt.distinct) {
    v->refusal = "DISTINCT deduplicates across roots";
    return;
  }
  // Plan shape: the root variable must come from exactly one extent-scan leaf
  // on the left-driving spine — that is the leaf delta restriction replaces.
  std::string refusal;
  int root_binds = 0;
  std::function<void(const PlanNode*, bool)> walk = [&](const PlanNode* n,
                                                        bool under_right) {
    if (n == nullptr || !refusal.empty()) return;
    switch (n->op) {
      case PlanOp::kBindClass:
        if (n->from.var == v->root_var) {
          root_binds++;
          if (under_right) refusal = "root variable is not left-driving";
        }
        return;
      case PlanOp::kIndexSelect:
        if (n->from.var == v->root_var) {
          // An index probe reflects the whole extent; restricting it to delta
          // OIDs would need per-probe compensation.
          refusal = "root variable bound by index selection";
        }
        return;
      case PlanOp::kFilter:
        walk(n->child.get(), under_right);
        return;
      case PlanOp::kPointerJoin:
      case PlanOp::kNestedLoopJoin:
        walk(n->left.get(), under_right);
        walk(n->right.get(), true);
        return;
      case PlanOp::kUnion:
        // DNF OR-terms union with cross-term dedup: output rows interleave
        // across roots in first-term-first order, not root-scan order.
        refusal = "OR predicate (UNION plan)";
        return;
    }
  };
  walk(v->optimized.plan.get(), false);
  if (refusal.empty() && root_binds != 1) {
    refusal = "root variable bound by " + std::to_string(root_binds) + " leaves";
  }
  // Self-referencing paths: a hop through the root's own extent means a root
  // write can change *other* roots' output rows, which per-root re-derivation
  // would miss.
  if (refusal.empty()) {
    Binder binder(catalog_);
    std::function<void(const ExprPtr&)> check = [&](const ExprPtr& e) {
      if (e == nullptr || !refusal.empty()) return;
      switch (e->kind) {
        case ExprKind::kLiteral:
        case ExprKind::kParameter:
          return;
        case ExprKind::kUnary:
          check(e->operand);
          return;
        case ExprKind::kBinary:
          check(e->lhs);
          check(e->rhs);
          return;
        case ExprKind::kPath: {
          auto bp = binder.ResolvePath(v->optimized.bound, *e);
          if (bp.ok()) {
            if (bp.value().fans_out) {
              // A set-valued hop makes output multiplicity per root depend on
              // the join, which the per-root maintenance plan cannot mirror.
              refusal = "set-valued path fans out";
              return;
            }
            const auto& classes = bp.value().classes;
            for (size_t i = 1; i < classes.size() && refusal.empty(); i++) {
              auto subtree = catalog_->SubtreeClasses(classes[i]);
              if (!subtree.ok()) continue;
              for (const std::string& cls : subtree.value()) {
                auto t = catalog_->Lookup(cls);
                if (t.ok() && t.value()->is_class &&
                    t.value()->extent_file != kInvalidFileId &&
                    v->root_files.count(
                        static_cast<uint16_t>(t.value()->extent_file)) > 0) {
                  refusal = "self-referencing path through the root extent";
                  break;
                }
              }
            }
          }
          for (const PathStep& step : e->steps) {
            for (const ExprPtr& a : step.args) check(a);
          }
          return;
        }
      }
    };
    for (const ExprPtr& e : stmt.projection) check(e);
    check(stmt.where);
  }
  if (!refusal.empty()) {
    v->refusal = std::move(refusal);
    return;
  }
  v->delta_maintainable = true;
}

Status MvManager::ExecuteIntoBuckets(MatView* v, const std::vector<Oid>* delta) {
  ExecOptions eo;
  eo.threads = 1;  // deltas are small; skip morsel dispatch overhead
  if (delta != nullptr) {
    eo.bind_var = &v->root_var;
    eo.bind_oids = delta;
  }
  // Deltas run the per-root maintenance plan (restricted bind + WHERE filter,
  // no hop-extent scans); the initial/full build runs the optimizer's plan.
  MOOD_ASSIGN_OR_RETURN(
      BatchSet rows,
      executor_->ExecutePlan(delta != nullptr ? v->delta_plan : v->optimized.plan,
                             eo));
  int ri = rows.VarIndex(v->root_var);
  if (ri < 0) return Status::Internal("root variable missing from view row set");
  std::vector<uint64_t> roots;
  for (Oid root : rows.LiveColumn(static_cast<size_t>(ri))) roots.push_back(root.Pack());
  MOOD_ASSIGN_OR_RETURN(QueryResult qr,
                        executor_->FinishSelect(v->stmt, std::move(rows)));
  // No GROUP BY / DISTINCT / ORDER BY (delta-maintainable precondition), so
  // the projection maps plan rows to output rows 1:1 in order.
  if (qr.rows.size() != roots.size()) {
    return Status::Internal("view projection did not map rows 1:1");
  }
  if (delta == nullptr) v->rows_by_root.clear();
  for (size_t i = 0; i < qr.rows.size(); i++) {
    v->rows_by_root[roots[i]].push_back(std::move(qr.rows[i]));
  }
  v->columns = std::move(qr.columns);
  if (delta != nullptr && maintenance_rows_ != nullptr) {
    maintenance_rows_->Add(roots.size());
  }
  return Status::OK();
}

Status MvManager::RebuildLocked(MatView* v) {
  v->dirty_roots.clear();
  v->full_dirty = false;
  if (v->delta_maintainable) return ExecuteIntoBuckets(v, nullptr);
  ExecOptions eo;
  eo.threads = 1;
  MOOD_ASSIGN_OR_RETURN(BatchSet rows, executor_->ExecutePlan(v->optimized.plan, eo));
  MOOD_ASSIGN_OR_RETURN(v->flat, executor_->FinishSelect(v->stmt, std::move(rows)));
  v->columns = v->flat.columns;
  return Status::OK();
}

Status MvManager::MaintainDeltaLocked(MatView* v) {
  std::vector<Oid> live;
  live.reserve(v->dirty_roots.size());
  for (uint64_t packed : v->dirty_roots) {
    v->rows_by_root.erase(packed);
    Oid oid = Oid::Unpack(packed);
    auto f = objects_->Fetch(oid);
    if (f.ok()) {
      live.push_back(oid);
    } else if (f.status().code() != StatusCode::kNotFound) {
      return f.status();
    }
    // NotFound: the root was deleted (or its insert aborted) — its bucket is
    // gone, which is exactly the maintained state.
  }
  v->dirty_roots.clear();
  if (live.empty()) return Status::OK();
  return ExecuteIntoBuckets(v, &live);
}

Result<MvManager::Outcome> MvManager::TryServe(
    const std::string& normalized_sql,
    const std::function<bool(const std::vector<uint16_t>&)>& fresh,
    QueryResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_sql_.find(normalized_sql);
  if (it == by_sql_.end()) return Outcome::kNoView;
  MatView* v = it->second;
  const uint64_t epoch = catalog_->schema_epoch();
  if (v->needs_setup || v->schema_epoch != epoch) {
    // DDL moved the schema (or the view was just loaded): re-bind, re-plan,
    // and rematerialize before serving anything — never serve stale rows
    // across a schema change.
    Status s = Setup(v);
    if (s.ok()) {
      ReindexDeps();
      s = RebuildLocked(v);
      if (s.ok() && rebuilds_ != nullptr) rebuilds_->Add();
    }
    if (!s.ok()) {
      // Unusable at this epoch (e.g. a base class was dropped). Stay broken
      // until the schema moves again; matching queries execute normally and
      // surface their own errors.
      v->broken = true;
      v->needs_setup = true;
      v->schema_epoch = epoch;
      return Outcome::kDeclined;
    }
  }
  if (v->broken) return Outcome::kDeclined;
  if (!fresh(v->dep_files)) return Outcome::kDeclined;
  if (v->full_dirty) {
    Status s = RebuildLocked(v);
    if (!s.ok()) {
      v->full_dirty = true;  // self-heal: retry the rebuild on the next serve
      return Outcome::kDeclined;
    }
    if (full_refreshes_ != nullptr) full_refreshes_->Add();
  } else if (!v->dirty_roots.empty()) {
    Status s = MaintainDeltaLocked(v);
    if (!s.ok()) {
      v->full_dirty = true;
      return Outcome::kDeclined;
    }
  }
  out->columns = v->columns;
  out->rows.clear();
  if (v->delta_maintainable) {
    // Root-scan order groups output rows exactly as normal execution does
    // (the plan is root-driving), so concatenating buckets in extent-scan
    // order reproduces the byte-identical result.
    const FromEntry& fe = v->stmt.from[0];
    Status scan = objects_->ScanExtentOids(
        fe.class_name, fe.every, fe.excludes, SnapshotView{}, [&](Oid oid) {
          auto bit = v->rows_by_root.find(oid.Pack());
          if (bit != v->rows_by_root.end()) {
            for (const auto& row : bit->second) out->rows.push_back(row);
          }
          return Status::OK();
        });
    if (!scan.ok()) {
      v->full_dirty = true;
      return Outcome::kDeclined;
    }
  } else {
    *out = v->flat;
  }
  if (hits_ != nullptr) hits_->Add();
  return Outcome::kServed;
}

bool MvManager::WouldServe(const std::string& normalized_sql) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_sql_.find(normalized_sql);
  return it != by_sql_.end() && !it->second->broken;
}

std::vector<MvManager::ViewInfo> MvManager::Views() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ViewInfo> out;
  out.reserve(views_.size());
  for (const auto& [name, v] : views_) {
    out.push_back(ViewInfo{name, v->select_sql, v->delta_maintainable, v->refusal});
  }
  return out;
}

size_t MvManager::view_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

void MvManager::ReindexDeps() {
  by_dep_.clear();
  for (const auto& [name, v] : views_) {
    for (uint16_t f : v->dep_files) by_dep_[f].push_back(v.get());
  }
  dep_count_.store(by_dep_.size(), std::memory_order_release);
}

}  // namespace mood
