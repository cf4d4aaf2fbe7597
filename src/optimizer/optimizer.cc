#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>

#include "stats/approx.h"

namespace mood {

namespace {

/// Collects the range variables referenced by an expression.
void CollectRangeVars(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return;
    case ExprKind::kPath:
      out->insert(e->range_var);
      for (const auto& s : e->steps) {
        for (const auto& arg : s.args) CollectRangeVars(arg, out);
      }
      return;
    case ExprKind::kUnary:
      CollectRangeVars(e->operand, out);
      return;
    case ExprKind::kBinary:
      CollectRangeVars(e->lhs, out);
      CollectRangeVars(e->rhs, out);
      return;
  }
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

bool HasMethodStep(const BoundPath& path) {
  for (bool m : path.step_is_method) {
    if (m) return true;
  }
  return false;
}

/// Normalized feedback signature for an immediate selection. Class-qualified
/// and range-var-free, so the synthetic `_tN` terminal predicate of an
/// expanded path chain aliases the same entry as a user-written predicate on
/// that class.
std::string ImmSig(const std::string& cls, const std::string& attr, BinaryOp op,
                   const MoodValue& constant) {
  return cls + "." + attr + " " + std::string(BinaryOpName(op)) + " " +
         constant.ToString();
}

/// Normalized signature for a path-expression predicate, rooted at the class
/// rather than the range variable.
std::string PathSig(const BoundPath& path, BinaryOp op, const MoodValue& constant) {
  std::string sig = path.classes[0];
  for (const auto& s : path.steps) sig += "." + s.name;
  sig += ": " + std::string(BinaryOpName(op)) + " " + constant.ToString();
  return sig;
}

/// Signature for a single-variable Other predicate: the class plus the
/// predicate text with the range variable stripped.
std::string OtherSig(const std::string& cls, const std::string& var,
                     const ExprPtr& pred) {
  std::string text = pred->ToString();
  const std::string needle = var + ".";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    text.erase(pos, needle.size());
  }
  return cls + ": " + text;
}

}  // namespace

QueryOptimizer::QueryOptimizer(Catalog* catalog, ObjectManager* objects,
                               StatisticsManager* stats, OptimizerOptions options)
    : catalog_(catalog),
      objects_(objects),
      stats_(stats),
      options_(options),
      estimator_(stats),
      binder_(catalog),
      active_disk_(options_.disk) {}

std::vector<size_t> QueryOptimizer::OrderByRank(const std::vector<double>& cost,
                                                const std::vector<double>& selectivity) {
  std::vector<size_t> order(cost.size());
  std::iota(order.begin(), order.end(), 0);
  auto rank = [&](size_t i) {
    double denom = 1.0 - selectivity[i];
    if (denom <= 1e-12) return 1e308;
    return cost[i] / denom;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return rank(a) < rank(b); });
  return order;
}

double QueryOptimizer::OrderingObjective(const std::vector<double>& cost,
                                         const std::vector<double>& selectivity,
                                         const std::vector<size_t>& perm) {
  double f = 0;
  double running = 1.0;
  for (size_t idx : perm) {
    f += running * cost[idx];
    running *= selectivity[idx];
  }
  return f;
}

Result<ClassStats> QueryOptimizer::ClassStatsOrLive(const std::string& cls) const {
  auto s = stats_->Class(cls);
  if (s.ok()) return s;
  // Fall back to live extent metadata.
  ClassStats live;
  MOOD_ASSIGN_OR_RETURN(live.cardinality, objects_->ExtentCount(cls, false));
  MOOD_ASSIGN_OR_RETURN(live.nbpages, objects_->ExtentPages(cls));
  MOOD_ASSIGN_OR_RETURN(auto attrs, catalog_->AllAttributes(cls));
  size_t sz = 0;
  for (const auto& a : attrs) sz += a.type->EstimateSize();
  live.size = static_cast<uint32_t>(sz);
  return live;
}

Result<double> QueryOptimizer::AtomicSelectivityOrDefault(
    const std::string& cls, const std::string& attr, BinaryOp op,
    const MoodValue& constant) const {
  auto s = estimator_.AtomicSelectivity(cls, attr, op, constant);
  if (s.ok()) return s;
  // No statistics: textbook defaults.
  if (op == BinaryOp::kEq) return 0.1;
  if (op == BinaryOp::kNe) return 0.9;
  return options_.default_selectivity;
}

Result<QueryOptimizer::Classified> QueryOptimizer::Classify(const BoundQuery& query,
                                                            const AndTerm& term) const {
  Classified out;
  for (const ExprPtr& pred : term) {
    // Default: the Other dictionary.
    auto push_other = [&](const ExprPtr& p) {
      std::set<std::string> vars;
      CollectRangeVars(p, &vars);
      OtherSelEntry e;
      e.pred = p;
      e.selectivity = options_.default_selectivity;
      if (vars.size() == 1) {
        e.range_var = *vars.begin();
        auto it = query.range_vars.find(e.range_var);
        if (it != query.range_vars.end()) {
          e.feedback_sig = OtherSig(it->second.class_name, e.range_var, p);
          double measured = 0;
          if (use_feedback_ && stats_->LookupFeedback(e.feedback_sig,
                                                      it->second.class_name,
                                                      &measured)) {
            e.selectivity = measured;
            e.sel_source = SelSource::kFeedback;
          }
        }
      }
      out.other.push_back(std::move(e));
    };

    if (pred->kind != ExprKind::kBinary || !IsComparison(pred->op)) {
      push_other(pred);
      continue;
    }

    ExprPtr lhs = pred->lhs;
    ExprPtr rhs = pred->rhs;
    BinaryOp op = pred->op;
    auto is_const_operand = [](const ExprPtr& e) {
      return e->kind == ExprKind::kLiteral || e->kind == ExprKind::kParameter;
    };
    if (is_const_operand(lhs) && rhs->kind == ExprKind::kPath) {
      std::swap(lhs, rhs);
      op = FlipComparison(op);
    }

    if (lhs->kind == ExprKind::kPath && is_const_operand(rhs)) {
      auto bound = binder_.ResolvePath(query, *lhs);
      if (!bound.ok()) return bound.status();
      const BoundPath& path = bound.value();
      if (!path.IsTerminalAtomic() || path.steps.empty()) {
        push_other(pred);
        continue;
      }
      if (path.steps.size() == 1) {
        // Immediate selection: atomic attribute or parameterless method.
        ImmSelEntry e;
        e.range_var = path.range_var;
        e.pred = pred;
        e.attribute = path.steps[0].name;
        e.is_method = path.step_is_method[0];
        e.op = op;
        if (rhs->kind == ExprKind::kParameter) {
          e.param = static_cast<int>(rhs->param_index);
        } else {
          e.constant = rhs->literal;
        }
        out.imm.push_back(std::move(e));
        continue;
      }
      if (HasMethodStep(path)) {
        push_other(pred);
        continue;
      }
      PathSelEntry e;
      e.range_var = path.range_var;
      e.pred = pred;
      e.path = path;
      e.op = op;
      if (rhs->kind == ExprKind::kParameter) {
        e.param = static_cast<int>(rhs->param_index);
      } else {
        e.constant = rhs->literal;
      }
      out.paths.push_back(std::move(e));
      continue;
    }

    if (lhs->kind == ExprKind::kPath && rhs->kind == ExprKind::kPath) {
      auto bl = binder_.ResolvePath(query, *lhs);
      auto br = binder_.ResolvePath(query, *rhs);
      if (!bl.ok()) return bl.status();
      if (!br.ok()) return br.status();
      const BoundPath& pl = bl.value();
      const BoundPath& pr = br.value();
      if (pl.range_var == pr.range_var) {
        push_other(pred);
        continue;
      }
      // Pointer form: one side denotes the object itself, the other terminates
      // in a reference — the implicit join C.A = D.self.
      auto pointer_form = [&](const BoundPath& ref, const BoundPath& self) {
        return op == BinaryOp::kEq && self.is_self && ref.IsTerminalRef() &&
               !HasMethodStep(ref) && !ref.fans_out &&
               catalog_->IsSubclassOf(self.classes[0], ref.TerminalClass());
      };
      JoinPredEntry e;
      e.pred = pred;
      if (pointer_form(pl, pr)) {
        e.ref_var = pl.range_var;
        e.ref_path = pl;
        e.target_var = pr.range_var;
        e.pointer_form = true;
      } else if (pointer_form(pr, pl)) {
        e.ref_var = pr.range_var;
        e.ref_path = pr;
        e.target_var = pl.range_var;
        e.pointer_form = true;
      } else {
        e.ref_var = pl.range_var;
        e.target_var = pr.range_var;
        e.pointer_form = false;
      }
      out.joins.push_back(std::move(e));
      continue;
    }
    push_other(pred);
  }
  return out;
}

Result<QueryOptimizer::VarPlan> QueryOptimizer::BuildVarLeaf(
    const BoundQuery& query, const std::string& var, std::vector<ImmSelEntry*> imm,
    std::vector<OtherSelEntry*> other) const {
  const FromEntry& from = query.range_vars.at(var);
  MOOD_ASSIGN_OR_RETURN(ClassStats cls, ClassStatsOrLive(from.class_name));
  const double seq = SeqCost(cls.nbpages, active_disk_);
  MOOD_ASSIGN_OR_RETURN(
      std::vector<std::string> scan_classes,
      objects_->ScanClasses(from.class_name, from.every, from.excludes));

  // Fill in selectivities and access costs (Table 11 columns).
  for (ImmSelEntry* e : imm) {
    e->sequential_access_cost = seq;
    e->access_type = "sequential";
    if (e->is_method) {
      e->selectivity = options_.default_selectivity;
      continue;
    }
    if (e->param >= 0) {
      // Parameterized comparison: the value is unknown until execution, so the
      // estimate must be value-independent (the plan may be cached and reused
      // for any value of the same type). After ANALYZE, (in)equality follows
      // uniformity, 1/dist(attr), which holds for every binding; otherwise
      // textbook defaults. No feedback signature, because a measured
      // selectivity for one binding would mispredict the next.
      e->selectivity = e->op == BinaryOp::kEq   ? 0.1
                       : e->op == BinaryOp::kNe ? 0.9
                                                : options_.default_selectivity;
      auto attr = stats_->Attribute(from.class_name, e->attribute);
      if (attr.ok() && attr.value().dist > 0 &&
          (e->op == BinaryOp::kEq || e->op == BinaryOp::kNe)) {
        const double eq = 1.0 / static_cast<double>(attr.value().dist);
        e->selectivity = e->op == BinaryOp::kEq ? eq : 1.0 - eq;
      }
    } else {
      e->feedback_sig = ImmSig(from.class_name, e->attribute, e->op, e->constant);
      double measured = 0;
      if (use_feedback_ &&
          stats_->LookupFeedback(e->feedback_sig, from.class_name, &measured)) {
        e->selectivity = measured;
        e->sel_source = SelSource::kFeedback;
      } else {
        SelSource src = SelSource::kDefault;
        auto sel = estimator_.AtomicSelectivity(from.class_name, e->attribute,
                                                e->op, e->constant, &src);
        if (sel.ok()) {
          e->selectivity = sel.value();
          e->sel_source = src;
        } else {
          // No statistics: textbook defaults.
          e->selectivity = e->op == BinaryOp::kEq   ? 0.1
                           : e->op == BinaryOp::kNe ? 0.9
                                                    : options_.default_selectivity;
        }
      }
    }
    // Usable index? One index covers one extent, so a range over several
    // (EVERY, `-`) may probe only when each scanned class has its own.
    auto covering = [&](IndexKind kind) -> std::optional<IndexDesc> {
      for (const std::string& c : scan_classes) {
        if (!catalog_->FindIndex(c, e->attribute, kind).has_value()) return std::nullopt;
      }
      return catalog_->FindIndex(from.class_name, e->attribute, kind);
    };
    const double probes_per_key = static_cast<double>(scan_classes.size());
    auto btree = covering(IndexKind::kBTree);
    auto hash = covering(IndexKind::kHash);
    if (btree.has_value()) {
      auto tree = objects_->OpenBTree(*btree);
      if (tree.ok()) {
        BPlusTreeStats ts = tree.value()->stats();
        BTreeCostParams bt;
        bt.order = std::max<uint32_t>(ts.order, 2);
        bt.levels = std::max<uint32_t>(ts.levels, 1);
        bt.leaves = std::max<uint64_t>(ts.leaves, 1);
        bt.keysize = ts.keysize;
        bt.unique = ts.unique;
        e->indexed_access_cost = probes_per_key *
                                 (e->op == BinaryOp::kEq
                                      ? IndCost(1, bt, active_disk_)
                                      : RngxCost(e->selectivity, bt, active_disk_));
        e->index = btree;
      }
    } else if (hash.has_value() && e->op == BinaryOp::kEq) {
      // Bucket page + object page.
      e->indexed_access_cost = probes_per_key * RndCost(2, active_disk_);
      e->index = hash;
    }
    if (e->param >= 0 && e->op == BinaryOp::kEq && e->index.has_value() &&
        e->index->unique) {
      // A unique key names at most one object per probed extent, whatever
      // its value.
      e->selectivity = std::min(
          1.0, probes_per_key / std::max(1.0, static_cast<double>(cls.cardinality)));
    }
  }

  // Section 8.1: pick the number of indexes to use — the maximum k with
  //   sum_{i<=k} cost_i + RNDCOST(|C| * prod_{i<=k} f_i) < SEQCOST(nbpages(C)).
  std::vector<ImmSelEntry*> indexed;
  for (ImmSelEntry* e : imm) {
    if (e->indexed_access_cost >= 0 && e->index.has_value()) indexed.push_back(e);
  }
  std::sort(indexed.begin(), indexed.end(), [](const ImmSelEntry* a, const ImmSelEntry* b) {
    return a->indexed_access_cost < b->indexed_access_cost;
  });
  size_t chosen = 0;
  {
    double cost_sum = 0;
    double sel_prod = 1.0;
    for (size_t k = 0; k < indexed.size(); k++) {
      cost_sum += indexed[k]->indexed_access_cost;
      sel_prod *= indexed[k]->selectivity;
      double total = cost_sum +
                     RndCost(static_cast<double>(cls.cardinality) * sel_prod, active_disk_);
      if (total < seq) chosen = k + 1;
    }
  }

  PlanPtr leaf;
  double leaf_cost = seq;
  if (chosen > 0) {
    std::vector<IndexProbe> probes;
    double cost_sum = 0;
    double sel_prod = 1.0;
    for (size_t k = 0; k < chosen; k++) {
      indexed[k]->access_type = "indexed";
      probes.push_back(IndexProbe{*indexed[k]->index, indexed[k]->op,
                                  indexed[k]->constant, indexed[k]->param});
      cost_sum += indexed[k]->indexed_access_cost;
      sel_prod *= indexed[k]->selectivity;
    }
    leaf = PlanNode::IndexSel(from, std::move(probes));
    leaf_cost = cost_sum +
                RndCost(static_cast<double>(cls.cardinality) * sel_prod, active_disk_);
    if (chosen == 1 && !indexed[0]->feedback_sig.empty()) {
      // Single probe: its output count over |C| IS the predicate's
      // selectivity, so the profiled run can write it back.
      leaf->feedback_sig = indexed[0]->feedback_sig;
      leaf->feedback_base_rows = static_cast<double>(cls.cardinality);
    }
  } else {
    leaf = PlanNode::Bind(from);
  }
  if (auto type = catalog_->Lookup(from.class_name); type.ok()) {
    leaf->feedback_file = static_cast<uint16_t>(type.value()->extent_file);
    if (leaf->op == PlanOp::kBindClass) leaf->feedback_pages = cls.nbpages;
  }

  // Residual predicates: everything not enforced by the chosen probes, applied
  // in ascending selectivity order (short-circuit heuristic of Section 8.1).
  struct Residual {
    ExprPtr pred;
    double selectivity;
    std::string sig;
  };
  std::vector<Residual> residual;
  for (ImmSelEntry* e : imm) {
    bool used = false;
    for (size_t k = 0; k < chosen; k++) {
      if (indexed[k] == e) {
        used = true;
        break;
      }
    }
    if (!used) residual.push_back(Residual{e->pred, e->selectivity, e->feedback_sig});
  }
  for (OtherSelEntry* e : other) {
    residual.push_back(Residual{e->pred, e->selectivity, e->feedback_sig});
  }
  std::stable_sort(residual.begin(), residual.end(),
                   [](const Residual& a, const Residual& b) {
                     return a.selectivity < b.selectivity;
                   });

  VarPlan vp;
  double sel_all = 1.0;
  for (ImmSelEntry* e : imm) sel_all *= e->selectivity;
  for (OtherSelEntry* e : other) sel_all *= e->selectivity;
  vp.k = static_cast<double>(cls.cardinality) * sel_all;
  vp.accessed = chosen > 0 || !residual.empty();
  if (residual.empty()) {
    vp.plan = leaf;
  } else {
    std::vector<ExprPtr> preds;
    for (const auto& r : residual) preds.push_back(r.pred);
    vp.plan = PlanNode::Filter(leaf, std::move(preds));
    if (residual.size() == 1 && !residual[0].sig.empty()) {
      // One predicate: rows_out / rows_in of this filter is its selectivity.
      vp.plan->feedback_sig = residual[0].sig;
    }
  }
  vp.plan->est_cost = leaf_cost;
  vp.plan->est_rows = vp.k;
  return vp;
}

Result<QueryOptimizer::HopCost> QueryOptimizer::BestJoinStrategy(
    const std::string& c_class, const std::string& attr, const std::string& d_class,
    double k_c, double k_d, bool c_accessed, bool d_accessed) const {
  MOOD_ASSIGN_OR_RETURN(ClassStats cs, ClassStatsOrLive(c_class));
  MOOD_ASSIGN_OR_RETURN(ClassStats ds, ClassStatsOrLive(d_class));
  ImplicitJoinInput in;
  in.k_c = k_c;
  in.k_d = k_d;
  in.card_c = static_cast<double>(cs.cardinality);
  in.card_d = static_cast<double>(ds.cardinality);
  in.nbpages_c = cs.nbpages;
  in.nbpages_d = ds.nbpages;
  in.c_accessed_previously = c_accessed;
  in.d_accessed_previously = d_accessed;
  auto ref = stats_->Reference(c_class, attr);
  if (ref.ok()) {
    in.fan = ref.value().fan;
    in.totref = static_cast<double>(ref.value().totref);
  } else {
    in.fan = 1.0;
    in.totref = std::min(in.card_c, in.card_d);
  }

  // The paper's join formulas price disk only — right for 1994, where CPU
  // vanished next to 25ms pages. Under a measured calibration the page/deref
  // costs are microseconds and per-row CPU (hashing, probing, matching)
  // becomes a first-order term, so surcharge each strategy by the rows it
  // actually touches. Backward traversal already carries the paper's own
  // k_c*fan*k_d*cpu term, so it is left alone; paper mode (cpu_surcharge=0)
  // reproduces every worked example bit-exactly.
  const double cpu_surcharge = calibrated_ ? active_disk_.cpu_cost : 0.0;
  HopCost best;
  best.jc = ForwardTraversalCost(in, active_disk_) +
            (in.k_c * in.fan + in.k_d) * cpu_surcharge;
  best.method = JoinMethod::kForwardTraversal;
  double btc = BackwardTraversalCost(in, active_disk_);
  if (btc < best.jc) {
    best.jc = btc;
    best.method = JoinMethod::kBackwardTraversal;
  }
  double hhc = HashPartitionJoinCost(in, active_disk_) +
               (in.k_c + in.k_d) * cpu_surcharge;
  if (hhc < best.jc) {
    best.jc = hhc;
    best.method = JoinMethod::kHashPartition;
  }
  auto bji = catalog_->FindIndex(c_class, attr, IndexKind::kBinaryJoin);
  if (bji.has_value()) {
    auto idx = objects_->OpenJoinIndex(*bji);
    if (idx.ok()) {
      BPlusTreeStats ts = idx.value()->forward_tree().stats();
      BTreeCostParams bt;
      bt.order = std::max<uint32_t>(ts.order, 2);
      bt.levels = std::max<uint32_t>(ts.levels, 1);
      bt.leaves = std::max<uint64_t>(ts.leaves, 1);
      double bjc = BinaryJoinIndexCost(std::min(k_c, k_d), bt, active_disk_) +
                   std::min(k_c, k_d) * cpu_surcharge;
      if (bjc < best.jc) {
        best.jc = bjc;
        best.method = JoinMethod::kIndexed;
      }
    }
  }
  double card_d = std::max(in.card_d, 1.0);
  best.js = std::min(0.99, in.fan * k_d / card_d);
  return best;
}

Result<QueryOptimizer::VarPlan> QueryOptimizer::ExpandPathSelection(
    const BoundQuery& query, VarPlan current, const PathSelEntry& entry) const {
  const BoundPath& path = entry.path;
  const size_t hops = path.classes.size() - 1;  // reference hops
  if (hops == 0) return Status::Internal("path selection without reference hops");

  struct ChainNode {
    PlanPtr plan;
    size_t left_class;   // index into path.classes
    size_t right_class;
    double k_left;
    double k_right;
    bool accessed;
  };
  std::vector<std::string> class_vars(path.classes.size());
  class_vars[0] = entry.range_var;

  std::vector<ChainNode> nodes;
  nodes.push_back(ChainNode{current.plan, 0, 0, current.k, current.k, current.accessed});
  for (size_t i = 1; i < path.classes.size(); i++) {
    const std::string& cls = path.classes[i];
    class_vars[i] = "_t" + std::to_string(++temp_var_counter_);
    FromEntry fe;
    fe.class_name = cls;
    fe.var = class_vars[i];
    MOOD_ASSIGN_OR_RETURN(ClassStats cs, ClassStatsOrLive(cls));
    ChainNode node;
    node.left_class = node.right_class = i;
    node.k_left = node.k_right = static_cast<double>(cs.cardinality);
    node.accessed = false;
    if (i + 1 == path.classes.size()) {
      // Terminal class: apply the atomic selection A_m theta c here, reusing the
      // Section 8.1 machinery (index choice + residual ordering).
      const std::string& am = path.steps.back().name;
      ExprPtr term_pred = Expr::Binary(
          entry.op, Expr::Path(class_vars[i], {PathStep{am, false, {}}}),
          entry.param >= 0 ? Expr::Parameter(static_cast<uint32_t>(entry.param))
                           : Expr::Literal(entry.constant));
      ImmSelEntry imm;
      imm.range_var = class_vars[i];
      imm.pred = term_pred;
      imm.attribute = am;
      imm.op = entry.op;
      imm.constant = entry.constant;
      imm.param = entry.param;
      // Temporary bound query view providing the synthetic range variable.
      BoundQuery sub = query;
      sub.range_vars[class_vars[i]] = fe;
      MOOD_ASSIGN_OR_RETURN(VarPlan term,
                            BuildVarLeaf(sub, class_vars[i], {&imm}, {}));
      node.plan = term.plan;
      node.k_left = node.k_right = term.k;
      node.accessed = true;
    } else {
      node.plan = PlanNode::Bind(fe);
      if (auto type = catalog_->Lookup(cls); type.ok()) {
        node.plan->feedback_file = static_cast<uint16_t>(type.value()->extent_file);
        node.plan->feedback_pages = cs.nbpages;
      }
    }
    nodes.push_back(std::move(node));
  }

  // Algorithm 8.2: greedily merge the adjacent pair minimizing jc / (1 - js).
  while (nodes.size() > 1) {
    double best_rank = 1e308;
    size_t best_i = 0;
    HopCost best_cost;
    for (size_t i = 0; i + 1 < nodes.size(); i++) {
      size_t hop = nodes[i].right_class;  // ref from classes[hop] to classes[hop+1]
      MOOD_ASSIGN_OR_RETURN(
          HopCost hc,
          BestJoinStrategy(path.classes[hop], path.steps[hop].name,
                           path.classes[hop + 1], nodes[i].k_right,
                           nodes[i + 1].k_left, nodes[i].accessed,
                           nodes[i + 1].accessed));
      if (hc.Rank() < best_rank) {
        best_rank = hc.Rank();
        best_i = i;
        best_cost = hc;
      }
    }
    ChainNode& a = nodes[best_i];
    ChainNode& b = nodes[best_i + 1];
    size_t hop = a.right_class;
    MOOD_ASSIGN_OR_RETURN(ClassStats ds, ClassStatsOrLive(path.classes[hop + 1]));
    double fan = 1.0, totref = std::max(1.0, static_cast<double>(ds.cardinality));
    double totlinks = totref;
    {
      auto ref = stats_->Reference(path.classes[hop], path.steps[hop].name);
      if (ref.ok()) {
        fan = ref.value().fan;
        totref = static_cast<double>(ref.value().totref);
        MOOD_ASSIGN_OR_RETURN(ClassStats cs, ClassStatsOrLive(path.classes[hop]));
        totlinks = fan * static_cast<double>(cs.cardinality);
      }
    }
    double card_d = std::max(1.0, static_cast<double>(ds.cardinality));
    ChainNode merged;
    merged.plan =
        PlanNode::PointerJoin(a.plan, b.plan, best_cost.method, class_vars[hop],
                              {path.steps[hop].name}, class_vars[hop + 1]);
    merged.left_class = a.left_class;
    merged.right_class = b.right_class;
    merged.k_left = a.k_left * std::min(1.0, fan * b.k_left / card_d);
    double reached = CApprox(totlinks, totref, a.k_right * fan);
    merged.k_right = b.k_right * std::min(1.0, reached / card_d);
    merged.accessed = true;
    merged.plan->est_cost = a.plan->est_cost + b.plan->est_cost + best_cost.jc;
    merged.plan->est_rows = merged.k_left;
    nodes[best_i] = merged;
    nodes.erase(nodes.begin() + best_i + 1);
  }

  VarPlan out;
  out.plan = nodes[0].plan;
  out.k = nodes[0].k_left;
  out.accessed = true;
  if (!entry.feedback_sig.empty()) {
    // Observed selectivity of the whole path predicate = top join's output
    // over the root extent's cardinality.
    MOOD_ASSIGN_OR_RETURN(ClassStats root_cs, ClassStatsOrLive(path.classes[0]));
    out.plan->feedback_sig = entry.feedback_sig;
    out.plan->feedback_base_rows = static_cast<double>(root_cs.cardinality);
  }

  // Residual-filter alternative: instead of expanding the chain of implicit
  // joins, evaluate the path expression per root candidate (hops dereferences
  // + one comparison each). Under the paper's 1994 disk this never wins — a
  // dereference costs a 25.1ms random access — but under a measured
  // calibration it prices honestly and beats chain expansion whenever the
  // root candidate set is small or the chain must bind large extents
  // (example81's 20x regression). Gated on an actually-measured calibration so
  // paper-mode and first-run plans are bit-identical; the chain above is
  // always built first so temp-variable numbering does not depend on the
  // choice.
  if (calibrated_) {
    const double filter_cost =
        current.plan->est_cost +
        current.k * (static_cast<double>(hops) * RndCost(1, active_disk_) +
                     active_disk_.cpu_cost);
    if (filter_cost < out.plan->est_cost) {
      VarPlan alt;
      alt.plan = PlanNode::Filter(current.plan, {entry.pred});
      alt.plan->est_cost = filter_cost;
      alt.plan->est_rows = current.k * entry.selectivity;
      alt.plan->feedback_sig = entry.feedback_sig;
      alt.k = current.k * entry.selectivity;
      alt.accessed = true;
      return alt;
    }
  }
  return out;
}

Result<QueryOptimizer::Optimized> QueryOptimizer::Optimize(const SelectStmt& stmt,
                                                           bool use_feedback) {
  std::lock_guard<std::mutex> optimize_lock(optimize_mu_);
  use_feedback_ = use_feedback;
  calibrated_ = false;
  active_disk_ = options_.disk;

  Optimized result;
  MOOD_ASSIGN_OR_RETURN(result.bound, binder_.Bind(stmt));
  const BoundQuery& bound = result.bound;

  if (use_feedback_) {
    CostCalibration& cal = stats_->calibration();
    if (!cal.Valid()) {
      // No profiled run has measured this hardware yet: time one bounded
      // pass over the first non-empty extent the query names (a no-op once
      // it has run).
      for (const auto& var : bound.var_order) {
        if (stats_->ProbeCalibration(bound.range_vars.at(var).class_name)) break;
      }
    }
    if (cal.Valid()) {
      // Measured per-operation costs replace the paper's 1994 disk constants:
      // no seek/rotation term, one "block transfer" = one object dereference,
      // sequential transfer = one extent page, CPU = one predicate evaluation.
      DiskParameters measured;
      measured.s = 0;
      measured.r = 0;
      measured.btt = cal.MsPerDeref();
      measured.ebt = cal.MsPerPage();
      measured.cpu_cost =
          cal.MsPerPredicate() > 0 ? cal.MsPerPredicate() : measured.btt;
      measured.esm_btree_files = false;
      active_disk_ = measured;
      calibrated_ = true;
    }
  }
  if (use_feedback_) {
    // Stats gone stale from write churn? Refresh before estimating.
    for (const auto& [var, fe] : bound.range_vars) {
      stats_->MaybeAutoRefresh(fe.class_name);
    }
  }
  // Stamped after the refresh: a refresh bumps the version, and a plan built
  // on the refreshed statistics is current, not stale.
  result.plans_version = stats_->plans_version();

  std::vector<AndTerm> terms = bound.where_dnf;
  if (terms.empty()) terms.push_back(AndTerm{});

  std::vector<PlanPtr> term_plans;
  for (const AndTerm& term : terms) {
    MOOD_ASSIGN_OR_RETURN(Classified cls, Classify(bound, term));
    AndTermInfo info;
    info.imm = cls.imm;
    info.other = cls.other;
    info.joins = cls.joins;

    // Group dictionary entries per range variable.
    std::map<std::string, std::vector<ImmSelEntry*>> imm_by_var;
    for (auto& e : info.imm) imm_by_var[e.range_var].push_back(&e);
    std::map<std::string, std::vector<OtherSelEntry*>> other_by_var;
    std::vector<OtherSelEntry*> multi_var_other;
    for (auto& e : info.other) {
      if (e.range_var.empty()) {
        multi_var_other.push_back(&e);
      } else {
        other_by_var[e.range_var].push_back(&e);
      }
    }

    // Per-variable leaves (Section 8.1).
    std::map<std::string, VarPlan> var_plans;
    for (const auto& var : bound.var_order) {
      MOOD_ASSIGN_OR_RETURN(
          VarPlan vp, BuildVarLeaf(bound, var, imm_by_var[var], other_by_var[var]));
      var_plans[var] = vp;
    }

    // Path-expression ordering (Algorithm 8.1): rank by F/(1-s) per variable.
    // Missing statistics fall back to defaults (OtherSelInfo-style treatment).
    for (auto& e : cls.paths) {
      if (e.param >= 0) {
        // Parameterized terminal comparison: value-independent default, no
        // feedback signature (same reasoning as immediate selections).
        e.selectivity = e.op == BinaryOp::kEq   ? 0.1
                        : e.op == BinaryOp::kNe ? 0.9
                                                : options_.default_selectivity;
      } else {
        e.feedback_sig = PathSig(e.path, e.op, e.constant);
        double measured = 0;
        if (use_feedback_ && stats_->LookupFeedback(e.feedback_sig,
                                                    e.path.classes[0], &measured)) {
          e.selectivity = measured;
          e.sel_source = SelSource::kFeedback;
        } else {
          SelSource src = SelSource::kDefault;
          auto sel = estimator_.PathSelectivity(e.path, e.op, e.constant, &src);
          e.selectivity = sel.ok() ? sel.value() : options_.default_selectivity;
          if (sel.ok()) e.sel_source = src;
        }
      }
      auto fc = ForwardPathCost(e.path, options_.path_rank_root_objects, estimator_,
                                active_disk_);
      const double hops = static_cast<double>(e.path.classes.size() - 1);
      e.forward_traversal_cost =
          fc.ok() ? fc.value()
                  : active_disk_.s + active_disk_.r +
                        RndCost(options_.path_rank_root_objects * (1.0 + hops),
                                active_disk_);
    }
    std::stable_sort(cls.paths.begin(), cls.paths.end(),
                     [](const PathSelEntry& a, const PathSelEntry& b) {
                       return a.Rank() < b.Rank();
                     });
    info.paths = cls.paths;
    for (const auto& e : info.paths) {
      MOOD_ASSIGN_OR_RETURN(var_plans[e.range_var],
                            ExpandPathSelection(bound, var_plans[e.range_var], e));
    }

    // Explicit joins between range variables: greedy connection by jc/(1-js).
    struct Component {
      PlanPtr plan;
      std::set<std::string> vars;
      double k;
      bool accessed;
    };
    std::vector<Component> components;
    for (const auto& var : bound.var_order) {
      Component c;
      c.plan = var_plans[var].plan;
      c.vars = {var};
      c.k = var_plans[var].k;
      c.accessed = var_plans[var].accessed;
      components.push_back(std::move(c));
    }
    auto comp_of = [&](const std::string& var) -> size_t {
      for (size_t i = 0; i < components.size(); i++) {
        if (components[i].vars.count(var)) return i;
      }
      return components.size();
    };

    std::vector<JoinPredEntry*> pending;
    for (auto& e : info.joins) pending.push_back(&e);
    while (!pending.empty()) {
      double best_rank = 1e308;
      size_t best_idx = SIZE_MAX;
      HopCost best_cost;
      for (size_t i = 0; i < pending.size(); i++) {
        JoinPredEntry* e = pending[i];
        size_t ca = comp_of(e->ref_var);
        size_t cb = comp_of(e->target_var);
        if (ca == cb) {
          // Both sides already joined: apply as a residual filter.
          components[ca].plan = PlanNode::Filter(components[ca].plan, {e->pred});
          components[ca].k *= options_.default_selectivity;
          pending.erase(pending.begin() + i);
          best_idx = SIZE_MAX;
          i = SIZE_MAX;  // restart scan
          break;
        }
        HopCost hc;
        if (e->pointer_form) {
          // Price the final hop of the reference path.
          const BoundPath& rp = e->ref_path;
          size_t hop_idx = rp.classes.size() - 2;
          MOOD_ASSIGN_OR_RETURN(
              hc, BestJoinStrategy(rp.classes[hop_idx], rp.steps[hop_idx].name,
                                   rp.classes[hop_idx + 1], components[ca].k,
                                   components[cb].k, components[ca].accessed,
                                   components[cb].accessed));
        } else {
          // Nested-loop theta join.
          hc.method = JoinMethod::kNestedLoop;
          hc.jc = components[ca].k * components[cb].k * active_disk_.cpu_cost;
          hc.js = options_.default_selectivity;
        }
        if (hc.Rank() < best_rank) {
          best_rank = hc.Rank();
          best_idx = i;
          best_cost = hc;
        }
      }
      if (best_idx == SIZE_MAX) continue;  // a filter application restarted the loop
      JoinPredEntry* e = pending[best_idx];
      pending.erase(pending.begin() + best_idx);
      size_t ca = comp_of(e->ref_var);
      size_t cb = comp_of(e->target_var);
      Component merged;
      if (e->pointer_form) {
        std::vector<std::string> steps;
        for (const auto& s : e->ref_path.steps) {
          if (s.name == "self") continue;
          steps.push_back(s.name);
        }
        merged.plan = PlanNode::PointerJoin(components[ca].plan, components[cb].plan,
                                            best_cost.method, e->ref_var, steps,
                                            e->target_var);
      } else {
        merged.plan =
            PlanNode::NestedLoop(components[ca].plan, components[cb].plan, e->pred);
      }
      merged.vars = components[ca].vars;
      merged.vars.insert(components[cb].vars.begin(), components[cb].vars.end());
      merged.k = std::max(1.0, components[ca].k * std::min(1.0, best_cost.js) *
                                   (e->pointer_form ? 1.0 : components[cb].k));
      merged.accessed = true;
      merged.plan->est_cost = components[ca].plan->est_cost +
                              components[cb].plan->est_cost + best_cost.jc;
      merged.plan->est_rows = merged.k;
      size_t lo = std::min(ca, cb), hi = std::max(ca, cb);
      components[lo] = std::move(merged);
      components.erase(components.begin() + hi);
    }

    // Unconnected components: cross product.
    while (components.size() > 1) {
      Component merged;
      merged.plan =
          PlanNode::NestedLoop(components[0].plan, components[1].plan, nullptr);
      merged.vars = components[0].vars;
      merged.vars.insert(components[1].vars.begin(), components[1].vars.end());
      merged.k = components[0].k * components[1].k;
      merged.accessed = true;
      merged.plan->est_cost =
          components[0].plan->est_cost + components[1].plan->est_cost;
      merged.plan->est_rows = merged.k;
      components[0] = std::move(merged);
      components.erase(components.begin() + 1);
    }

    PlanPtr term_plan = components[0].plan;
    // Multi-variable Other predicates run after all joins.
    for (OtherSelEntry* e : multi_var_other) {
      term_plan = PlanNode::Filter(term_plan, {e->pred});
      term_plan->est_rows = components[0].k * e->selectivity;
      term_plan->est_cost = components[0].plan->est_cost;
    }
    info.plan = term_plan;
    result.terms.push_back(std::move(info));
    term_plans.push_back(term_plan);
  }

  if (term_plans.size() == 1) {
    result.plan = term_plans[0];
  } else {
    result.plan = PlanNode::Union(term_plans);
    for (const auto& t : term_plans) {
      result.plan->est_cost += t->est_cost;
      result.plan->est_rows += t->est_rows;
    }
  }
  return result;
}

std::string QueryOptimizer::Optimized::Explain() const {
  std::string out;
  char buf[256];
  for (size_t t = 0; t < terms.size(); t++) {
    out += "AND-term " + std::to_string(t + 1) + ":\n";
    if (!terms[t].imm.empty()) {
      out += "  ImmSelInfo:\n";
      for (const auto& e : terms[t].imm) {
        std::snprintf(buf, sizeof(buf),
                      "    %-4s %-40s sel=%-10.4g idx=%-10.4g seq=%-10.4g %s [sel: %s]\n",
                      e.range_var.c_str(), e.pred->ToString().c_str(), e.selectivity,
                      e.indexed_access_cost, e.sequential_access_cost,
                      e.access_type.c_str(), SelSourceName(e.sel_source));
        out += buf;
      }
    }
    if (!terms[t].paths.empty()) {
      out += "  PathSelInfo (ordered by F/(1-s)):\n";
      for (const auto& e : terms[t].paths) {
        std::snprintf(buf, sizeof(buf),
                      "    %-4s %-40s sel=%-10.4g F=%-10.4f F/(1-s)=%-10.4f [sel: %s]\n",
                      e.range_var.c_str(), e.pred->ToString().c_str(), e.selectivity,
                      e.forward_traversal_cost, e.Rank(), SelSourceName(e.sel_source));
        out += buf;
      }
    }
    if (!terms[t].other.empty()) {
      out += "  OtherSelInfo:\n";
      for (const auto& e : terms[t].other) {
        std::snprintf(buf, sizeof(buf), "    %-4s %-40s sel=%-10.4g [sel: %s]\n",
                      e.range_var.c_str(), e.pred->ToString().c_str(), e.selectivity,
                      SelSourceName(e.sel_source));
        out += buf;
      }
    }
    out += "  Plan:\n" + terms[t].plan->Explain(2);
  }
  return out;
}

}  // namespace mood
