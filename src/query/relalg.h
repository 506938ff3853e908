#ifndef RSTLAB_QUERY_RELALG_H_
#define RSTLAB_QUERY_RELALG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/relation.h"
#include "stmodel/st_context.h"
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
/// the column pairs `on` (left column, right column) — compiled to
/// Product followed by column-equality selections, so it inherits the
/// streaming evaluator's O(log N)-scan profile. Join conditions address
/// b's columns pre-offset; the result keeps all columns of both sides.
RelAlgExprPtr EquiJoin(
    RelAlgExprPtr a, RelAlgExprPtr b, std::size_t a_arity,
    std::vector<std::pair<std::size_t, std::size_t>> on);

/// The query of Theorem 11(b): Q' = (R1 − R2) ∪ (R2 − R1), whose result
/// is empty iff R1 = R2 — evaluating it decides SET-EQUALITY.
RelAlgExprPtr SymmetricDifferenceQuery(std::string r1 = "R1",
                                       std::string r2 = "R2");

/// Reference evaluator over in-memory relations.
Result<Relation> EvaluateInMemory(
    const RelAlgExprPtr& expr,
    const std::map<std::string, Relation>& database);

/// Number of external tapes the streaming evaluator needs.
inline constexpr std::size_t kRelAlgTapes = 6;

/// Encodes a database as the input tuple stream of Theorem 11: one
/// '#'-terminated field "name,v1,v2,..." per tuple.
std::string EncodeDatabaseStream(
    const std::map<std::string, Relation>& database);

/// The streaming evaluator — the upper-bound side of Theorem 11(a).
///
/// Evaluates `expr` over the tuple stream loaded on tape 0 of `ctx`
/// using only sequential scans and external merge sorts: leaves filter
/// the stream, set operations sort-and-merge, projections sort to
/// de-duplicate, and products replicate the inner operand by repeated
/// doubling (O(log N) scans) before a single pairing pass. The measured
/// resource profile is r(N) = c_Q * log N scans on a constant number of
/// tapes, with internal memory O(max tuple bytes + log N) for the sort's
/// record buffers (see sorting/deciders.h for the Chen-Yap O(1)-space
/// remark).
///
/// Returns the query result (also left as the final stack segment).
Result<Relation> EvaluateOnTapes(const RelAlgExprPtr& expr,
                                 stmodel::StContext& ctx);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_RELALG_H_
