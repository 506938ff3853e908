#ifndef RSTLAB_QUERY_RELALG_H_
#define RSTLAB_QUERY_RELALG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/relation.h"
#include "util/status.h"

namespace rstlab::query {

/// Relational algebra expressions (set semantics).
struct RelAlgExpr;
using RelAlgExprPtr = std::shared_ptr<const RelAlgExpr>;

struct RelAlgExpr {
  enum class Op {
    kRelation,      // a named input relation
    kUnion,         // A ∪ B
    kDifference,    // A − B
    kIntersection,  // A ∩ B
    kSelection,     // σ_{col = const | col = col}(A)
    kProjection,    // π_{cols}(A), duplicates removed
    kProduct,       // A × B
  };

  Op op = Op::kRelation;
  std::string relation_name;            // kRelation
  std::vector<RelAlgExprPtr> children;  // operands

  // kSelection
  std::size_t lhs_column = 0;
  bool rhs_is_column = false;
  std::size_t rhs_column = 0;
  std::string rhs_constant;

  // kProjection
  std::vector<std::size_t> columns;
};

/// Expression factories.
RelAlgExprPtr Rel(std::string name);
RelAlgExprPtr Union(RelAlgExprPtr a, RelAlgExprPtr b);
RelAlgExprPtr Difference(RelAlgExprPtr a, RelAlgExprPtr b);
RelAlgExprPtr Intersection(RelAlgExprPtr a, RelAlgExprPtr b);
RelAlgExprPtr SelectEqConst(RelAlgExprPtr a, std::size_t column,
                            std::string constant);
RelAlgExprPtr SelectEqColumn(RelAlgExprPtr a, std::size_t lhs,
                             std::size_t rhs);
RelAlgExprPtr Project(RelAlgExprPtr a, std::vector<std::size_t> columns);
RelAlgExprPtr Product(RelAlgExprPtr a, RelAlgExprPtr b);

/// Derived combinator: equi-join of `a` (arity `a_arity`) with `b` on
/// the column pairs `on` (left column, right column) — built as Product
/// followed by column-equality selections, which the engine's plan
/// compiler rewrites into a sort-based merge join
/// (`engine::PlanOptions::merge_join`). Join conditions address b's
/// columns pre-offset; the result keeps all columns of both sides.
RelAlgExprPtr EquiJoin(
    RelAlgExprPtr a, RelAlgExprPtr b, std::size_t a_arity,
    std::vector<std::pair<std::size_t, std::size_t>> on);

/// The query of Theorem 11(b): Q' = (R1 − R2) ∪ (R2 − R1), whose result
/// is empty iff R1 = R2 — evaluating it decides SET-EQUALITY.
RelAlgExprPtr SymmetricDifferenceQuery(std::string r1 = "R1",
                                       std::string r2 = "R2");

/// Reference evaluator over in-memory relations: the oracle the
/// `query-engine` conform suite holds `engine::ExecuteSharedScan` to.
/// Input relations may hold repeated tuples; every result is
/// normalized (sorted, duplicate-free).
Result<Relation> EvaluateInMemory(
    const RelAlgExprPtr& expr,
    const std::map<std::string, Relation>& database);

/// Encodes a database as the input tuple stream of Theorem 11: one
/// '#'-terminated field "name,v1,v2,..." per tuple. The streaming
/// evaluator of Theorem 11(a) is `engine::ExecuteSharedScan` over this
/// stream.
std::string EncodeDatabaseStream(
    const std::map<std::string, Relation>& database);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_RELALG_H_
