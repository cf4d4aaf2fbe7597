#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "catalog/catalog.h"
#include "sql/ast.h"

namespace mood {

/// Physical plan operators. The shapes follow the paper's access plans
/// (Examples 8.1 / 8.2): BIND leaves, SELECT filters, JOINs annotated with one of
/// the four implicit-join strategies, combined by UNION across AND-terms
/// (Figure 7.2's operator layering is enforced by construction).
enum class PlanOp : uint8_t {
  kBindClass,     ///< BIND(Class, var): extent scan leaf
  kIndexSelect,   ///< IndSel leaf: index probe producing the var's candidates
  kFilter,        ///< SELECT(child, p1 AND p2 ...): ordered residual predicates
  kPointerJoin,   ///< implicit join via ref chasing; method distinguishes strategy
  kNestedLoopJoin,///< general theta join
  kUnion,         ///< OR of AND-term subplans
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// One index probe: attribute index + comparison + constant. A kIndexSelect node
/// intersects the identifier sets of all its probes (Section 8.1 may choose more
/// than one index for an AND-term).
struct IndexProbe {
  IndexDesc index;
  BinaryOp cmp = BinaryOp::kEq;
  MoodValue constant;
  /// >= 0: probe key is the `?` parameter at this position, bound at execution
  /// (`constant` is then a placeholder Null).
  int param = -1;
};

struct PlanNode {
  PlanOp op = PlanOp::kBindClass;

  // kBindClass / kIndexSelect.
  FromEntry from;
  std::vector<IndexProbe> probes;  // kIndexSelect

  // kFilter.
  PlanPtr child;
  std::vector<ExprPtr> predicates;  // applied in order (selectivity-ascending)

  // Joins.
  PlanPtr left, right;
  JoinMethod method = JoinMethod::kForwardTraversal;
  std::string ref_var;                 ///< var on the referencing side
  std::vector<std::string> ref_path;   ///< attribute chain chased from ref_var
  std::string target_var;              ///< var bound on the referenced side
  ExprPtr join_pred;                   ///< nested-loop predicate

  // kUnion.
  std::vector<PlanPtr> children;

  // Optimizer estimates (ms / rows).
  double est_cost = 0;
  double est_rows = 0;

  /// Free-form annotation rendered by Explain (e.g. EXPLAIN VERBOSE's
  /// "plan: cached"). Deliberately not part of Describe(): profile labels
  /// must stay identical with and without annotations.
  std::string note;

  // Feedback-loop stamping (AbsorbProfile pairs these with profile nodes by
  // Describe() label; none of them is rendered, so plans print identically
  // with feedback on or off).
  std::string feedback_sig;       ///< signature this node's actuals feed
  double feedback_base_rows = 0;  ///< divisor for observed selectivity (0: rows_in)
  uint32_t feedback_pages = 0;    ///< extent pages (BIND leaves, calibration)
  uint16_t feedback_file = 0;     ///< extent file of the scanned class

  /// Range variables bound by this subtree.
  std::vector<std::string> BoundVars() const;

  /// Paper-style rendering, e.g.
  ///   JOIN(BIND(Vehicle, v), SELECT(BIND(Company, c), (c.name = 'BMW')),
  ///        HASH_PARTITION, v.company = c.self)
  std::string ToString() const;
  /// One-line label for this node alone (no estimates, no children) — the label
  /// EXPLAIN lines and QueryProfile nodes share, so plan and profile renderings
  /// pair up line for line.
  std::string Describe() const;
  /// Indented multi-line EXPLAIN rendering with estimates.
  std::string Explain(int indent = 0) const;

  static PlanPtr Bind(FromEntry from);
  static PlanPtr IndexSel(FromEntry from, std::vector<IndexProbe> probes);
  static PlanPtr Filter(PlanPtr child, std::vector<ExprPtr> preds);
  static PlanPtr PointerJoin(PlanPtr left, PlanPtr right, JoinMethod method,
                             std::string ref_var, std::vector<std::string> ref_path,
                             std::string target_var);
  static PlanPtr NestedLoop(PlanPtr left, PlanPtr right, ExprPtr pred);
  static PlanPtr Union(std::vector<PlanPtr> children);
};

}  // namespace mood
