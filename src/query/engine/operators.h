#ifndef RSTLAB_QUERY_ENGINE_OPERATORS_H_
#define RSTLAB_QUERY_ENGINE_OPERATORS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "query/engine/operator.h"
#include "query/engine/spool.h"

namespace rstlab::query::engine {

/// The concrete operators. Each factory takes ownership of its children
/// and returns a single-use operator; `env` pointees must outlive the
/// pipeline. Set semantics end to end, as in the reference
/// `EvaluateInMemory`: duplicates may flow between operators, the
/// sorting operators collapse them, and the final materialization
/// (`Relation::Normalize`) de-duplicates.

/// Leaf: streams one spool lane in lane order. `lane` may be nullptr
/// (empty relation). Bills 2 reversals per pass (scan + rewind).
StreamOperatorPtr MakeScan(const RelationSpool::Lane* lane,
                           OperatorEnv env);

/// σ: keeps tuples satisfying column = constant | column = column.
StreamOperatorPtr MakeFilter(StreamOperatorPtr child, std::size_t lhs,
                             bool rhs_is_column, std::size_t rhs_column,
                             std::string rhs_constant, OperatorEnv env);

/// π without de-duplication: per-tuple column remap ("" for missing
/// columns, like the reference evaluator). Compose with MakeSort(dedup)
/// for the full projection operator.
StreamOperatorPtr MakeProjectMap(StreamOperatorPtr child,
                                 std::vector<std::size_t> columns,
                                 OperatorEnv env);

/// Concatenation of two streams (the input side of a union).
StreamOperatorPtr MakeAppend(StreamOperatorPtr a, StreamOperatorPtr b,
                             OperatorEnv env);

/// Blocking sort: drains the child onto a private scratch context,
/// sorts it with the k-way sort at `config.sort` (spill lanes on the
/// caller's backend), then streams the fields in ascending order,
/// collapsing duplicates when `dedup`. The scratch context's measured
/// (r, s) is folded into the query bill at Close; Close also releases
/// the lanes on success and failure paths alike.
StreamOperatorPtr MakeSort(StreamOperatorPtr child, bool dedup,
                           OperatorEnv env);

/// Sorted-merge set operator over two sorted (not necessarily
/// de-duplicated) streams: emits distinct A-tuples absent from B
/// (difference) or present in B (intersection).
enum class SetOpKind { kDifference, kIntersection };
StreamOperatorPtr MakeMergeSetOp(StreamOperatorPtr a, StreamOperatorPtr b,
                                 SetOpKind kind, OperatorEnv env);

/// Key encoding for the sort-based join: rewrites each tuple as
/// "k1,k2,...;payload" so a lexicographic field sort groups equal join
/// keys. ';' must not occur in attribute values.
StreamOperatorPtr MakeKeyEncode(StreamOperatorPtr child,
                                std::vector<std::size_t> key_columns,
                                OperatorEnv env);

/// Sort-based equi-join over two key-encoded sorted streams (each a
/// MakeSort over MakeKeyEncode): one merge pass; each equal-key B-group
/// is buffered in metered internal memory and paired with every
/// matching A-tuple. Output tuples are "a_payload,b_payload" — the
/// Product-then-select encoding of the reference, so results compare
/// bit-identically.
StreamOperatorPtr MakeMergeJoin(StreamOperatorPtr a, StreamOperatorPtr b,
                                OperatorEnv env);

/// A × B by the Theorem 11 doubling construction: both operands are
/// materialized on a private scratch context, B is replicated by
/// repeated doubling (O(log |A|) passes), then one pairing pass streams
/// the combined tuples. Scratch (r, s) folded at Close.
StreamOperatorPtr MakeProduct(StreamOperatorPtr a, StreamOperatorPtr b,
                              OperatorEnv env);

}  // namespace rstlab::query::engine

#endif  // RSTLAB_QUERY_ENGINE_OPERATORS_H_
