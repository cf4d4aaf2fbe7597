#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "exec/parallel.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "txn/version_store.h"

namespace mood {

namespace {

/// Range-variable declarations reachable from a plan subtree (kBindClass /
/// kIndexSelect leaves). Used when a caller hands us a bare plan without the
/// BoundQuery that produced it.
void CollectRangeVars(const PlanNode& node, std::map<std::string, FromEntry>* out) {
  switch (node.op) {
    case PlanOp::kBindClass:
    case PlanOp::kIndexSelect:
      out->emplace(node.from.var, node.from);
      return;
    default:
      break;
  }
  if (node.child != nullptr) CollectRangeVars(*node.child, out);
  if (node.left != nullptr) CollectRangeVars(*node.left, out);
  if (node.right != nullptr) CollectRangeVars(*node.right, out);
  for (const auto& c : node.children) CollectRangeVars(*c, out);
}

/// Index-probe comparison over encoded keys: MakeIndexKey is order-preserving
/// (the B+-tree relies on it), so the byte comparison here reproduces exactly
/// the lo/hi bounds IndSel derives for the same BinaryOp.
bool ProbeKeyMatches(const std::string& k, BinaryOp op, const std::string& key) {
  switch (op) {
    case BinaryOp::kEq: return k == key;
    case BinaryOp::kGt: return k > key;
    case BinaryOp::kGe: return k >= key;
    case BinaryOp::kLt: return k < key;
    case BinaryOp::kLe: return k <= key;
    default: return false;  // IndSel rejects other operators at plan time
  }
}

/// Scoped profiling span: null node = profiling off, every hook degenerates to
/// one pointer test. Timing is taken only when the node exists.
struct StageSpan {
  QueryProfile* node = nullptr;
  uint64_t start = 0;

  static StageSpan Begin(QueryProfile* parent, const char* label, size_t rows_in) {
    StageSpan s;
    if (parent != nullptr) {
      s.node = parent->AddChild(label);
      s.node->rows_in = rows_in;
      s.start = ProfileNowNs();
    }
    return s;
  }
  void End(size_t rows_out) {
    if (node != nullptr) {
      node->rows_out = rows_out;
      node->wall_ns = ProfileNowNs() - start;
    }
  }
};

/// DISTINCT stage of Finish (operates on final values).
/// Hashed dedup on the same EncodeTo key encoding GROUP BY uses (the encoding
/// is type-tagged, so distinct kinds never collide); first occurrence wins,
/// preserving the pre-dedup row order.
void ApplyDistinct(QueryResult* result, QueryProfile* prof) {
  StageSpan span = StageSpan::Begin(prof, "DISTINCT", result->rows.size());
  std::vector<std::vector<MoodValue>> dedup;
  std::unordered_set<std::string> seen;
  seen.reserve(result->rows.size());
  std::string key;
  for (auto& row : result->rows) {
    key.clear();
    for (const MoodValue& v : row) v.EncodeTo(&key);
    if (seen.insert(key).second) dedup.push_back(std::move(row));
  }
  result->rows = std::move(dedup);
  span.End(result->rows.size());
}

}  // namespace

std::string QueryResult::ToString(size_t limit) const {
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < columns.size(); c++) widths[c] = columns[c].size();
  size_t n = rows.size();
  if (limit > 0 && limit < n) n = limit;
  for (size_t r = 0; r < n; r++) {
    std::vector<std::string> line;
    for (size_t c = 0; c < rows[r].size(); c++) {
      std::string cell = rows[r][c].ToString();
      if (c < widths.size()) widths[c] = std::max(widths[c], cell.size());
      line.push_back(std::move(cell));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto pad = [&](const std::string& s, size_t w) {
    out += s;
    out.append(w > s.size() ? w - s.size() : 0, ' ');
    out += "  ";
  };
  for (size_t c = 0; c < columns.size(); c++) pad(columns[c], widths[c]);
  out += "\n";
  for (size_t c = 0; c < columns.size(); c++) {
    out += std::string(widths[c], '-');
    out += "  ";
  }
  out += "\n";
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); c++) pad(line[c], c < widths.size() ? widths[c] : 0);
    out += "\n";
  }
  if (limit > 0 && rows.size() > limit) {
    out += "... (" + std::to_string(rows.size() - limit) + " more rows)\n";
  }
  return out;
}

ExprCompileEnv Executor::CompileEnvOf(
    const std::vector<std::string>& vars,
    const std::map<std::string, FromEntry>* range_vars) const {
  ExprCompileEnv env;
  for (size_t i = 0; i < vars.size(); i++) {
    ExprCompileEnv::VarInfo vi;
    vi.slot = static_cast<uint32_t>(i);
    if (range_vars != nullptr) {
      auto it = range_vars->find(vars[i]);
      if (it != range_vars->end()) vi.class_name = it->second.class_name;
    }
    env.vars.emplace(vars[i], vi);
  }
  return env;
}

ExprProgramPtr Executor::CompileExpr(const ExprPtr& expr,
                                     const std::vector<std::string>& vars,
                                     const Ctx& ctx) const {
  if (expr == nullptr) return nullptr;
  // A cached plan carries a memo of its compiled programs (keyed by Expr
  // identity), so steady-state executions skip lowering entirely.
  if (ctx.program_memo != nullptr) {
    if (ExprProgramPtr memoized = ctx.program_memo->Lookup(expr.get())) return memoized;
  }
  ExprProgramPtr prog =
      ExprCompiler(evaluator_).Compile(expr, CompileEnvOf(vars, ctx.range_vars));
  if (expr_compiled_ != nullptr) expr_compiled_->Add(1);
  if (expr_folded_ != nullptr && prog->const_folded() > 0) {
    expr_folded_->Add(prog->const_folded());
  }
  if (ctx.program_memo != nullptr) ctx.program_memo->Insert(expr.get(), prog);
  return prog;
}

Result<bool> Executor::SnapshotScanHasVersions(const FromEntry& from,
                                               const SnapshotView& snap) const {
  if (!snap.active()) return false;
  MOOD_ASSIGN_OR_RETURN(
      std::vector<std::string> classes,
      objects_->ScanClasses(from.class_name, from.every, from.excludes));
  for (const std::string& cls : classes) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, objects_->catalog()->Lookup(cls));
    if (type->extent_file != kInvalidFileId &&
        snap.versions->FileHasVersions(type->extent_file)) {
      return true;
    }
  }
  return false;
}

Result<std::vector<Oid>> Executor::RunIndexProbes(const PlanNode& node, Ctx& ctx) const {
  if (ctx.profile != nullptr) ctx.profile->morsels = node.probes.size();
  // Parameterized probes resolve their key from the execution's bindings (a
  // cached plan is reused across values of the same type signature).
  std::vector<const MoodValue*> keys(node.probes.size());
  for (size_t p = 0; p < node.probes.size(); p++) {
    const IndexProbe& probe = node.probes[p];
    keys[p] = &probe.constant;
    if (probe.param >= 0) {
      if (ctx.params == nullptr ||
          static_cast<size_t>(probe.param) >= ctx.params->size()) {
        return Status::InvalidArgument(
            "parameter ?" + std::to_string(probe.param + 1) + " not bound");
      }
      keys[p] = &(*ctx.params)[static_cast<size_t>(probe.param)];
    }
  }
  // An index covers one class's extent, so a range over several extents
  // (EVERY, `-`) probes each class's index on the same attribute; the
  // optimizer plans such a probe only when every one of them exists.
  MOOD_ASSIGN_OR_RETURN(std::vector<std::string> classes,
                        objects_->ScanClasses(node.from.class_name, node.from.every,
                                              node.from.excludes));
  // Probes run in parallel (each is an independent index lookup); the
  // intersection then folds them in probe order, preserving the first probe's
  // oid order exactly as the serial loop does.
  std::vector<std::vector<Oid>> selected(node.probes.size());
  MOOD_RETURN_IF_ERROR(ParallelFor(ctx.threads, node.probes.size(), [&](size_t p) {
    const IndexProbe& probe = node.probes[p];
    for (const std::string& cls : classes) {
      std::optional<IndexDesc> index = probe.index;
      if (cls != probe.index.class_name) {
        index = objects_->catalog()->FindIndex(cls, probe.index.attribute,
                                               probe.index.kind);
        if (!index.has_value()) {
          return Status::NotFound("class '" + cls + "' has no " +
                                  std::string(IndexKindName(probe.index.kind)) +
                                  " index on '" +
                                  probe.index.attribute + "'");
        }
      }
      MOOD_ASSIGN_OR_RETURN(Collection sel,
                            algebra_->IndSel(cls, *index, probe.cmp, *keys[p]));
      selected[p].insert(selected[p].end(), sel.oids().begin(), sel.oids().end());
    }
    return Status::OK();
  }));
  std::vector<Oid> current;
  for (size_t p = 0; p < selected.size(); p++) {
    if (p == 0) {
      current = std::move(selected[p]);
    } else {
      std::unordered_set<uint64_t> keep;
      for (Oid o : selected[p]) keep.insert(o.Pack());
      std::vector<Oid> next;
      for (Oid o : current) {
        if (keep.count(o.Pack())) next.push_back(o);
      }
      current = std::move(next);
    }
  }
  if (!ctx.snapshot.active()) return current;

  // Indexes reflect the latest state, not the snapshot. An object's index
  // entries can disagree with what the snapshot sees only if the object was
  // written since some pinned snapshot, and every such object has a version
  // chain. So the index answers for all other objects, and each chained
  // object of the scanned files is re-tested against the probes at its
  // snapshot-visible value (read through the snapshot-bound cache): one
  // deleted after the pin comes back, one created after it reads NotFound
  // and stays out. This is sound because the statement holds the commit
  // gate shared, so no writer moves the heap, the indexes or the chains
  // between the probe above and this pass.
  std::vector<Oid> chained;
  for (const std::string& cls : classes) {
    MOOD_ASSIGN_OR_RETURN(const MoodsType* type, objects_->catalog()->Lookup(cls));
    const uint16_t file = static_cast<uint16_t>(type->extent_file);
    if (!ctx.snapshot.versions->FileHasVersions(file)) continue;
    std::vector<Oid> oids = ctx.snapshot.versions->TrackedOids(file);
    chained.insert(chained.end(), oids.begin(), oids.end());
  }
  if (chained.empty()) return current;
  std::unordered_set<uint64_t> drop;
  for (Oid o : chained) drop.insert(o.Pack());
  current.erase(std::remove_if(current.begin(), current.end(),
                               [&](Oid o) { return drop.count(o.Pack()) > 0; }),
                current.end());
  std::vector<std::string> encoded;
  encoded.reserve(keys.size());
  for (const MoodValue* key : keys) encoded.push_back(MakeIndexKey(*key));
  for (Oid oid : chained) {
    bool keep = true;
    for (size_t p = 0; p < node.probes.size() && keep; p++) {
      const IndexProbe& probe = node.probes[p];
      Result<MoodValue> v = objects_->GetAttribute(oid, probe.index.attribute, ctx.cache);
      if (!v.ok()) {
        if (!v.status().IsNotFound()) return v.status();
        keep = false;
      } else {
        keep = ProbeKeyMatches(MakeIndexKey(v.value()), probe.cmp, encoded[p]);
      }
    }
    if (keep) current.push_back(oid);
  }
  ctx.snapshot.versions->NoteProbeCompensation(chained.size());
  return current;
}

// ---------------------------------------------------------------------------
// Operators: each exchanges column-major RowBatches with selection vectors,
// expressions evaluate through ExprProgram::EvalBatch, and whole batches are
// the morsel unit. Every batch geometry and thread count produces the rows
// (and the error status) of batch_size = 1 at one thread; batch_exec_test
// asserts that and also diffs against a naive plan-free evaluator.
// ---------------------------------------------------------------------------

Result<BatchSet> Executor::ExecBind(const PlanNode& node, Ctx& ctx) const {
  BatchSet bs;
  bs.vars = {node.from.var};
  // MV delta maintenance: the restricted variable binds exactly the delta
  // OIDs (caller-provided order) instead of scanning the extent.
  if (ctx.bind_var != nullptr && *ctx.bind_var == node.from.var) {
    BatchAppender out(&bs, 1, ctx.batch);
    for (Oid oid : *ctx.bind_oids) out.Push(&oid, 1);
    return bs;
  }
  // One chain walk in extent order, at every thread count: the bind decodes
  // nothing (the next operator reads an object when an expression needs it),
  // so a page costs less than handing it to a worker. Downstream operators
  // parallelize over the bind's batches.
  BatchAppender out(&bs, 1, ctx.batch);
  MOOD_RETURN_IF_ERROR(objects_->ScanExtentOids(node.from.class_name, node.from.every,
                                                node.from.excludes, ctx.snapshot,
                                                [&](Oid oid) {
                                                  out.Push(&oid, 1);
                                                  return Status::OK();
                                                }));
  if (ctx.profile != nullptr) {
    MOOD_ASSIGN_OR_RETURN(std::vector<std::string> classes,
                          objects_->ScanClasses(node.from.class_name, node.from.every,
                                                node.from.excludes));
    size_t pages = 0;
    for (const std::string& cls : classes) {
      MOOD_ASSIGN_OR_RETURN(uint32_t n, objects_->ExtentPages(cls));
      pages += n;
    }
    ctx.profile->morsels = pages;
  }
  return bs;
}

Result<BatchSet> Executor::ExecIndexSelect(const PlanNode& node, Ctx& ctx) const {
  BatchSet bs;
  bs.vars = {node.from.var};
  MOOD_ASSIGN_OR_RETURN(std::vector<Oid> current, RunIndexProbes(node, ctx));
  BatchAppender out(&bs, 1, ctx.batch);
  for (Oid o : current) out.Push(&o, 1);
  return bs;
}

Status Executor::FilterBatch(const std::vector<ExprProgramPtr>& programs,
                             RowBatch* batch, Ctx& ctx) const {
  if (batch->ActiveRows() == 0) return Status::OK();
  ExprProgram::BatchScratch scratch;
  scratch.params = ctx.params;
  // Serial-equivalent error choice: the serial loop is row-outer, so the
  // surfaced error is the smallest row index that errors at its own first
  // failing predicate — a later predicate pass can still find a *smaller*
  // erroring row among the earlier survivors. Rows at or past the recorded
  // error row leave the selection (the serial loop never reached them).
  const uint32_t no_err = static_cast<uint32_t>(-1);
  uint32_t err_row = no_err;
  Status err;
  std::vector<uint32_t> survivors;
  for (const ExprProgramPtr& program : programs) {
    const size_t n = batch->ActiveRows();
    if (n == 0) break;
    survivors.clear();
    program->EvalPredicateBatch(*batch, ctx.cache, &scratch);
    for (size_t k = 0; k < n; k++) {
      uint32_t row = batch->RowAt(k);
      if (row >= err_row) break;
      if (scratch.flags[k] == ExprProgram::kRowError) {
        err_row = row;
        err = scratch.errors[k];
      } else if (scratch.keep[k] != 0) {
        survivors.push_back(row);
      }
    }
    batch->sel.assign(survivors.begin(), survivors.end());
    batch->sel_active = true;
  }
  if (err_row != no_err) return err;
  return Status::OK();
}

Result<BatchSet> Executor::ExecFilter(const PlanNode& node, Ctx& ctx) const {
  MOOD_ASSIGN_OR_RETURN(BatchSet child, Exec(node.child, ctx));
  std::vector<ExprProgramPtr> programs(node.predicates.size());
  for (size_t p = 0; p < node.predicates.size(); p++) {
    programs[p] = CompileExpr(node.predicates[p], child.vars, ctx);
  }
  // Whole batches are the morsel unit; each worker narrows its batch's
  // selection vector in place, so the morsel-order "merge" is the identity.
  if (ctx.profile != nullptr) ctx.profile->morsels = child.batches.size();
  MOOD_RETURN_IF_ERROR(ParallelFor(ctx.threads, child.batches.size(), [&](size_t m) {
    return FilterBatch(programs, &child.batches[m], ctx);
  }));
  return child;
}

Result<BatchSet> Executor::ExecPointerJoin(const PlanNode& node, Ctx& ctx) const {
  MOOD_ASSIGN_OR_RETURN(BatchSet left, Exec(node.left, ctx));
  MOOD_ASSIGN_OR_RETURN(BatchSet right, Exec(node.right, ctx));
  int ref_idx = left.VarIndex(node.ref_var);
  int tgt_idx = right.VarIndex(node.target_var);
  if (ref_idx < 0 || tgt_idx < 0) {
    return Status::Internal("pointer join variables not bound by children");
  }
  BatchSet bs;
  bs.vars = left.vars;
  bs.vars.insert(bs.vars.end(), right.vars.begin(), right.vars.end());
  const size_t lcols = left.vars.size();
  const size_t ncols = bs.vars.size();

  // The build side is addressed globally through a flat live index, so batch
  // raggedness never shows in the probe results.
  std::vector<std::pair<uint32_t, uint32_t>> ridx = right.LiveIndex();
  std::unordered_map<uint64_t, std::vector<size_t>> right_by_oid;
  for (size_t i = 0; i < ridx.size(); i++) {
    Oid tgt = right.batches[ridx[i].first].col(static_cast<size_t>(tgt_idx))[ridx[i].second];
    right_by_oid[tgt.Pack()].push_back(i);
  }
  auto gather_right = [&](size_t r, Oid* row) {
    const RowBatch& rb = right.batches[ridx[r].first];
    for (size_t c = 0; c < rb.nslots; c++) row[lcols + c] = rb.col(c)[ridx[r].second];
  };

  bool use_bji = node.method == JoinMethod::kIndexed && node.ref_path.size() == 1;
  if (use_bji && ctx.snapshot.active() && node.left != nullptr) {
    // The BJI maps the *latest* reference values. Under a snapshot with live
    // version chains on the left extent the refs may have changed since the
    // pin, so fall through to the chase path, which reads references through
    // the snapshot-aware deref cache.
    MOOD_ASSIGN_OR_RETURN(bool stale,
                          SnapshotScanHasVersions(node.left->from, ctx.snapshot));
    if (stale) use_bji = false;
  }
  if (use_bji) {
    auto desc = objects_->catalog()->FindIndex(
        node.left ? node.left->from.class_name : "", node.ref_path[0],
        IndexKind::kBinaryJoin);
    // Fall through to chasing when the index is missing (plans stay executable
    // even if an index was dropped after optimization).
    if (desc.has_value()) {
      std::vector<std::pair<uint32_t, uint32_t>> lidx = left.LiveIndex();
      std::unordered_map<uint64_t, std::vector<size_t>> left_by_ref;
      for (size_t i = 0; i < lidx.size(); i++) {
        Oid ref =
            left.batches[lidx[i].first].col(static_cast<size_t>(ref_idx))[lidx[i].second];
        left_by_ref[ref.Pack()].push_back(i);
      }
      BatchAppender out(&bs, ncols, ctx.batch);
      std::vector<Oid> rowbuf(ncols);
      std::set<std::pair<size_t, size_t>> emitted;
      std::vector<Oid> targets = right.LiveColumn(static_cast<size_t>(tgt_idx));
      MOOD_RETURN_IF_ERROR(algebra_->ProbeJoinIndex(*desc, targets, [&](Oid src, size_t r) {
        auto it = left_by_ref.find(src.Pack());
        if (it == left_by_ref.end()) return Status::OK();
        for (size_t l : it->second) {
          if (!emitted.insert({l, r}).second) continue;
          left.batches[lidx[l].first].GatherRow(lidx[l].second, rowbuf.data());
          gather_right(r, rowbuf.data());
          out.Push(rowbuf.data(), ncols);
        }
        return Status::OK();
      }));
      return bs;
    }
  }

  // Forward / backward / hash-partition: all three run the object manager's
  // one reference chase and probe the inner side; the strategies differ in the
  // disk access pattern the cost model prices (Section 6). The chase side fans out
  // one task per left batch. Output batches are ragged at task boundaries —
  // deterministic, because the input batch decomposition is.
  if (ctx.profile != nullptr) ctx.profile->morsels = left.batches.size();
  std::vector<BatchSet> partial(left.batches.size());
  MOOD_RETURN_IF_ERROR(ParallelFor(ctx.threads, left.batches.size(), [&](size_t m) {
    const RowBatch& lb = left.batches[m];
    BatchAppender out(&partial[m], ncols, ctx.batch);
    std::vector<Oid> rowbuf(ncols);
    auto probe = [&](Oid reached) {
      auto it = right_by_oid.find(reached.Pack());
      if (it != right_by_oid.end()) {
        for (size_t r : it->second) {
          gather_right(r, rowbuf.data());
          out.Push(rowbuf.data(), ncols);
        }
      }
      return Status::OK();
    };
    for (size_t k = 0; k < lb.ActiveRows(); k++) {
      lb.GatherRow(lb.RowAt(k), rowbuf.data());
      Oid from = rowbuf[static_cast<size_t>(ref_idx)];
      MOOD_RETURN_IF_ERROR(objects_->ChaseRefs(from, node.ref_path, ctx.cache, probe));
    }
    return Status::OK();
  }));
  for (auto& part : partial) {
    for (auto& b : part.batches) bs.batches.push_back(std::move(b));
  }
  return bs;
}

Result<BatchSet> Executor::ExecNestedLoop(const PlanNode& node, Ctx& ctx) const {
  MOOD_ASSIGN_OR_RETURN(BatchSet left, Exec(node.left, ctx));
  MOOD_ASSIGN_OR_RETURN(BatchSet right, Exec(node.right, ctx));
  BatchSet bs;
  bs.vars = left.vars;
  bs.vars.insert(bs.vars.end(), right.vars.begin(), right.vars.end());
  const size_t lcols = left.vars.size();
  const size_t ncols = bs.vars.size();
  std::vector<ExprProgramPtr> progs;
  if (node.join_pred != nullptr) progs.push_back(CompileExpr(node.join_pred, bs.vars, ctx));
  std::vector<std::pair<uint32_t, uint32_t>> ridx = right.LiveIndex();
  if (ctx.profile != nullptr) ctx.profile->morsels = left.batches.size();
  std::vector<BatchSet> partial(left.batches.size());
  MOOD_RETURN_IF_ERROR(ParallelFor(ctx.threads, left.batches.size(), [&](size_t m) {
    const RowBatch& lb = left.batches[m];
    BatchAppender out(&partial[m], ncols, ctx.batch);
    // Candidate (lrow, rrow) pairs accumulate into a transient combined batch;
    // each flush evaluates the join predicate batch-at-a-time and copies the
    // survivors out. Pairs are generated in the serial (lrow, rrow) order, so
    // batch boundaries never affect the results or the surfaced error.
    RowBatch pair(ncols, ctx.batch);
    std::vector<Oid> rowbuf(ncols);
    std::vector<Oid> outbuf(ncols);
    auto flush = [&]() -> Status {
      if (pair.nrows == 0) return Status::OK();
      if (!progs.empty()) MOOD_RETURN_IF_ERROR(FilterBatch(progs, &pair, ctx));
      for (size_t k = 0; k < pair.ActiveRows(); k++) {
        pair.GatherRow(pair.RowAt(k), outbuf.data());
        out.Push(outbuf.data(), ncols);
      }
      pair.Clear();
      return Status::OK();
    };
    for (size_t k = 0; k < lb.ActiveRows(); k++) {
      lb.GatherRow(lb.RowAt(k), rowbuf.data());
      for (const auto& [rb, rrow] : ridx) {
        const RowBatch& rbatch = right.batches[rb];
        for (size_t c = 0; c < rbatch.nslots; c++) {
          rowbuf[lcols + c] = rbatch.col(c)[rrow];
        }
        pair.PushRow(rowbuf.data(), ncols);
        if (pair.Full()) MOOD_RETURN_IF_ERROR(flush());
      }
    }
    return flush();
  }));
  for (auto& part : partial) {
    for (auto& b : part.batches) bs.batches.push_back(std::move(b));
  }
  return bs;
}

Result<BatchSet> Executor::ExecUnion(const PlanNode& node, Ctx& ctx) const {
  if (node.children.empty()) return BatchSet{};
  MOOD_ASSIGN_OR_RETURN(BatchSet first, Exec(node.children[0], ctx));
  // Align every child on the first child's variable order and deduplicate
  // (DNF AND-terms overlap, so the UNION needs set semantics).
  std::set<std::vector<uint64_t>> seen;
  BatchSet bs;
  bs.vars = first.vars;
  BatchAppender out(&bs, bs.vars.size(), ctx.batch);
  std::vector<Oid> aligned(bs.vars.size());
  std::vector<uint64_t> key(bs.vars.size());
  auto add = [&](const BatchSet& child) -> Status {
    std::vector<int> mapping(bs.vars.size());
    for (size_t i = 0; i < bs.vars.size(); i++) {
      mapping[i] = child.VarIndex(bs.vars[i]);
      if (mapping[i] < 0) {
        return Status::Internal("UNION children bind different range variables");
      }
    }
    for (const RowBatch& b : child.batches) {
      for (size_t k = 0; k < b.ActiveRows(); k++) {
        uint32_t row = b.RowAt(k);
        for (size_t i = 0; i < bs.vars.size(); i++) {
          aligned[i] = b.col(static_cast<size_t>(mapping[i]))[row];
          key[i] = aligned[i].Pack();
        }
        if (seen.insert(key).second) out.Push(aligned.data(), aligned.size());
      }
    }
    return Status::OK();
  };
  MOOD_RETURN_IF_ERROR(add(first));
  for (size_t c = 1; c < node.children.size(); c++) {
    MOOD_ASSIGN_OR_RETURN(BatchSet child, Exec(node.children[c], ctx));
    MOOD_RETURN_IF_ERROR(add(child));
  }
  return bs;
}

Result<BatchSet> Executor::Dispatch(const PlanNode& node, Ctx& ctx) const {
  switch (node.op) {
    case PlanOp::kBindClass: return ExecBind(node, ctx);
    case PlanOp::kIndexSelect: return ExecIndexSelect(node, ctx);
    case PlanOp::kFilter: return ExecFilter(node, ctx);
    case PlanOp::kPointerJoin: return ExecPointerJoin(node, ctx);
    case PlanOp::kNestedLoopJoin: return ExecNestedLoop(node, ctx);
    case PlanOp::kUnion: return ExecUnion(node, ctx);
  }
  return Status::Internal("unknown plan operator");
}

Result<BatchSet> Executor::Exec(const PlanPtr& plan, Ctx& ctx) const {
  if (ctx.profile == nullptr) {
    Result<BatchSet> result = Dispatch(*plan, ctx);
    if (result.ok()) {
      if (batch_batches_ != nullptr) batch_batches_->Add(result.value().batches.size());
      if (batch_rows_ != nullptr) batch_rows_->Add(result.value().ActiveRows());
    }
    return result;
  }
  QueryProfile* node = ctx.profile->AddChild(plan->Describe());
  node->est_rows = plan->est_rows;
  node->est_cost = plan->est_cost;
  node->has_estimates = true;
  BufferPoolStats before;
  if (ctx.pool != nullptr) before = ctx.pool->stats();
  uint64_t start = ProfileNowNs();
  Ctx sub = ctx;
  sub.profile = node;
  Result<BatchSet> result = Dispatch(*plan, sub);
  node->wall_ns = ProfileNowNs() - start;  // inclusive of children
  if (ctx.pool != nullptr) {
    BufferPoolStats after = ctx.pool->stats();
    node->pool.hits = after.hits - before.hits;
    node->pool.misses = after.misses - before.misses;
    node->pool.evictions = after.evictions - before.evictions;
    node->pool.prefetches = after.prefetches - before.prefetches;
  }
  if (result.ok()) {
    node->rows_out = result.value().ActiveRows();
    node->batches = result.value().batches.size();
    uint64_t in = 0;
    for (const auto& c : node->children) in += c->rows_out;
    node->rows_in = in;
    if (batch_batches_ != nullptr) batch_batches_->Add(result.value().batches.size());
    if (batch_rows_ != nullptr) batch_rows_->Add(result.value().ActiveRows());
  }
  return result;
}

Executor::Ctx Executor::MakeCtx(const ExecOptions& options) const {
  Ctx ctx;
  ctx.threads = options.threads == 0 ? threads_ : options.threads;
  ctx.batch = ClampBatchSize(options.batch_size == ExecOptions::kInheritBatch
                                 ? batch_size_
                                 : options.batch_size);
  ctx.profile = options.profile;
  ctx.params = options.params;
  ctx.program_memo = options.program_memo;
  ctx.snapshot = options.snapshot;
  ctx.bind_var = options.bind_var;
  ctx.bind_oids = options.bind_oids;
  if (options.profile != nullptr && objects_->storage() != nullptr) {
    ctx.pool = objects_->storage()->buffer_pool();
  }
  return ctx;
}

Result<BatchSet> Executor::ExecutePlan(const PlanPtr& plan) const {
  return ExecutePlan(plan, ExecOptions{});
}

Result<BatchSet> Executor::ExecutePlan(const PlanPtr& plan,
                                       const ExecOptions& options) const {
  Ctx ctx = MakeCtx(options);
  // Bare-plan entry point: recover the range-variable declarations from the
  // plan's leaves so attribute steps compile to ordinals.
  std::map<std::string, FromEntry> range_vars;
  CollectRangeVars(*plan, &range_vars);
  ctx.range_vars = &range_vars;
  DerefCache cache;
  cache.SetSnapshot(ctx.snapshot);
  ctx.cache = &cache;
  Result<BatchSet> result = Exec(plan, ctx);
  objects_->AccumulateDerefStats(cache.hits(), cache.misses());
  return result;
}

Result<QueryResult> Executor::FinishSelect(const SelectStmt& stmt, BatchSet rows) const {
  DerefCache cache;
  Ctx ctx;
  ctx.threads = threads_;
  ctx.batch = batch_size_;
  ctx.cache = &cache;
  std::map<std::string, FromEntry> range_vars;
  for (const FromEntry& fe : stmt.from) range_vars.emplace(fe.var, fe);
  ctx.range_vars = &range_vars;
  Result<QueryResult> result = Finish(stmt, std::move(rows), ctx);
  objects_->AccumulateDerefStats(cache.hits(), cache.misses());
  return result;
}

void Executor::EvalColumn(const ExprProgram& prog, const BatchSet& bs, size_t limit,
                          Ctx& ctx, ExprProgram::BatchScratch* scratch,
                          std::vector<MoodValue>* out, size_t* err_row,
                          Status* err) const {
  // Evaluate one clause expression over every live row (in flat row order),
  // stopping at `limit` — rows the serial evaluation would never have reached
  // because an earlier expression already errored there.
  out->resize(bs.ActiveRows());
  *err_row = static_cast<size_t>(-1);
  size_t base = 0;
  for (const RowBatch& b : bs.batches) {
    const size_t nb = b.ActiveRows();
    if (base >= limit) break;
    prog.EvalBatch(b, ctx.cache, scratch);
    for (size_t k = 0; k < nb; k++) {
      size_t g = base + k;
      if (g >= limit) break;
      if (scratch->flags[k] == ExprProgram::kRowError) {
        *err_row = g;
        *err = scratch->errors[k];
        return;
      }
      (*out)[g] = std::move(scratch->values[k]);
    }
    base += nb;
  }
}

Status Executor::EvalColumns(const std::vector<ExprProgramPtr>& progs,
                             const BatchSet& bs, Ctx& ctx,
                             std::vector<std::vector<MoodValue>>* cols) const {
  // The serial loop is row-outer / expression-inner, so the surfaced error is
  // the minimum (row, expression index) pair. Column-wise evaluation recovers
  // it: each column records its first erroring row; a later column only wins
  // with a strictly smaller row (ties go to the earlier expression), and
  // `limit` keeps later columns from touching rows past the best error.
  cols->assign(progs.size(), {});
  ExprProgram::BatchScratch scratch;
  scratch.params = ctx.params;
  size_t best_row = static_cast<size_t>(-1);
  Status best;
  for (size_t i = 0; i < progs.size(); i++) {
    size_t err_row;
    Status err;
    EvalColumn(*progs[i], bs, best_row, ctx, &scratch, &(*cols)[i], &err_row, &err);
    if (err_row < best_row) {
      best_row = err_row;
      best = err;
    }
  }
  if (best_row != static_cast<size_t>(-1)) return best;
  return Status::OK();
}

Result<QueryResult> Executor::Finish(const SelectStmt& stmt, BatchSet rows,
                                     Ctx& ctx) const {
  QueryProfile* prof = ctx.profile;
  // Compile the clause expressions once against the row layout.
  std::vector<ExprProgramPtr> group_progs(stmt.group_by.size());
  for (size_t g = 0; g < stmt.group_by.size(); g++) {
    group_progs[g] = CompileExpr(stmt.group_by[g], rows.vars, ctx);
  }
  ExprProgramPtr having_prog = CompileExpr(stmt.having, rows.vars, ctx);
  std::vector<ExprProgramPtr> order_progs(stmt.order_by.size());
  for (size_t o = 0; o < stmt.order_by.size(); o++) {
    order_progs[o] = CompileExpr(stmt.order_by[o].expr, rows.vars, ctx);
  }
  std::vector<ExprProgramPtr> proj_progs(stmt.projection.size());
  for (size_t p = 0; p < stmt.projection.size(); p++) {
    proj_progs[p] = CompileExpr(stmt.projection[p], rows.vars, ctx);
  }

  // Rebuild `rows` keeping only the flat live indices in `order`.
  auto repack = [&](const std::vector<size_t>& order) {
    std::vector<std::pair<uint32_t, uint32_t>> lidx = rows.LiveIndex();
    BatchSet next;
    next.vars = rows.vars;
    BatchAppender out(&next, rows.vars.size(), ctx.batch);
    std::vector<Oid> rowbuf(rows.vars.size());
    for (size_t i : order) {
      const RowBatch& b = rows.batches[lidx[i].first];
      b.GatherRow(lidx[i].second, rowbuf.data());
      out.Push(rowbuf.data(), rowbuf.size());
    }
    rows = std::move(next);
  };

  // GROUP BY: keep one representative row per group key (MOODSQL has no
  // aggregate functions; grouping exposes one row per partition, matching the
  // algebra's Partition operator).
  if (!stmt.group_by.empty()) {
    StageSpan span = StageSpan::Begin(prof, "GROUP BY", rows.ActiveRows());
    std::vector<std::vector<MoodValue>> keys;
    MOOD_RETURN_IF_ERROR(EvalColumns(group_progs, rows, ctx, &keys));
    std::map<std::string, size_t> groups;
    const size_t n = rows.ActiveRows();
    for (size_t i = 0; i < n; i++) {
      std::string key;
      for (size_t g = 0; g < stmt.group_by.size(); g++) keys[g][i].EncodeTo(&key);
      groups.emplace(std::move(key), i);
    }
    std::vector<size_t> order;
    order.reserve(groups.size());
    for (const auto& [key, i] : groups) order.push_back(i);
    repack(order);
    span.End(rows.ActiveRows());
    if (stmt.having != nullptr) {
      StageSpan hspan = StageSpan::Begin(prof, "HAVING", rows.ActiveRows());
      std::vector<ExprProgramPtr> progs = {having_prog};
      for (RowBatch& b : rows.batches) {
        MOOD_RETURN_IF_ERROR(FilterBatch(progs, &b, ctx));
      }
      hspan.End(rows.ActiveRows());
    }
  }

  // ORDER BY before projection (keys may not be projected).
  if (!stmt.order_by.empty()) {
    StageSpan span = StageSpan::Begin(prof, "ORDER BY", rows.ActiveRows());
    std::vector<std::vector<MoodValue>> keys;
    MOOD_RETURN_IF_ERROR(EvalColumns(order_progs, rows, ctx, &keys));
    std::vector<size_t> order(rows.ActiveRows());
    for (size_t i = 0; i < order.size(); i++) order[i] = i;
    Status cmp_error;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t i = 0; i < stmt.order_by.size(); i++) {
        auto c = keys[i][a].Compare(keys[i][b]);
        if (!c.ok()) {
          if (cmp_error.ok()) cmp_error = c.status();
          return false;
        }
        if (c.value() != 0) {
          return stmt.order_by[i].ascending ? c.value() < 0 : c.value() > 0;
        }
      }
      return false;
    });
    MOOD_RETURN_IF_ERROR(cmp_error);
    repack(order);
    span.End(rows.ActiveRows());
  }

  StageSpan pspan = StageSpan::Begin(prof, "PROJECT", rows.ActiveRows());
  QueryResult result;
  for (const auto& p : stmt.projection) result.columns.push_back(p->ToString());
  std::vector<std::vector<MoodValue>> cols;
  MOOD_RETURN_IF_ERROR(EvalColumns(proj_progs, rows, ctx, &cols));
  const size_t n = rows.ActiveRows();
  result.rows.reserve(n);
  for (size_t i = 0; i < n; i++) {
    std::vector<MoodValue> out;
    out.reserve(stmt.projection.size());
    for (size_t p = 0; p < stmt.projection.size(); p++) {
      out.push_back(std::move(cols[p][i]));
    }
    result.rows.push_back(std::move(out));
  }
  pspan.End(result.rows.size());

  if (stmt.distinct) ApplyDistinct(&result, prof);
  return result;
}

Result<QueryResult> Executor::ExecuteSelect(
    const QueryOptimizer::Optimized& optimized) const {
  return ExecuteSelect(optimized, ExecOptions{});
}

Result<QueryResult> Executor::ExecuteSelect(const QueryOptimizer::Optimized& optimized,
                                            const ExecOptions& options) const {
  Ctx ctx = MakeCtx(options);
  // Compile against the plan's own leaves, not just the query's FROM list:
  // path-expansion plans introduce synthetic range variables (_t1, _t2, ...)
  // whose filters are exactly the hot predicates worth compiling.
  std::map<std::string, FromEntry> range_vars = optimized.bound.range_vars;
  if (optimized.plan != nullptr) CollectRangeVars(*optimized.plan, &range_vars);
  ctx.range_vars = &range_vars;
  // One Deref cache per query: objects dereferenced while executing the plan
  // stay warm for the projection/ORDER BY passes in Finish. Its hit/miss tally
  // folds into the engine-wide objects.deref_cache.* metrics when it dies.
  DerefCache cache;
  cache.SetSnapshot(ctx.snapshot);
  ctx.cache = &cache;
  Result<BatchSet> bs = Exec(optimized.plan, ctx);
  if (!bs.ok()) {
    objects_->AccumulateDerefStats(cache.hits(), cache.misses());
    return bs.status();
  }
  Result<QueryResult> result = Finish(optimized.bound.stmt, std::move(bs).value(), ctx);
  objects_->AccumulateDerefStats(cache.hits(), cache.misses());
  return result;
}

}  // namespace mood
