#include "query/engine/plan.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "query/engine/operators.h"

namespace rstlab::query::engine {

namespace {

using Op = RelAlgExpr::Op;

Status ArityError(const char* what) {
  return Status::InvalidArgument(std::string("malformed expression: ") +
                                 what);
}

/// A selection-over-product chain rewritten as a merge join: the
/// cross-side column equalities become the join keys, everything else
/// stays as residual filters over the join output (which has the same
/// "a,b" tuple encoding as the product it replaces).
struct JoinRewrite {
  bool is_join = false;
  const RelAlgExpr* a = nullptr;
  const RelAlgExpr* b = nullptr;
  std::vector<std::size_t> a_keys;
  std::vector<std::size_t> b_keys;
  /// Residual selection nodes, innermost first.
  std::vector<const RelAlgExpr*> residual;
};

JoinRewrite DetectJoin(const RelAlgExpr& expr, const RelationSpool& spool,
                       const PlanOptions& opts) {
  JoinRewrite rewrite;
  if (!opts.merge_join) return rewrite;
  // Walk the maximal selection chain down to its base.
  std::vector<const RelAlgExpr*> chain;
  const RelAlgExpr* node = &expr;
  while (node->op == Op::kSelection && node->children.size() == 1 &&
         node->children[0] != nullptr) {
    chain.push_back(node);
    node = node->children[0].get();
  }
  if (node->op != Op::kProduct || node->children.size() != 2 ||
      node->children[0] == nullptr || node->children[1] == nullptr) {
    return rewrite;
  }
  RelAlgExprPtr a_expr = node->children[0];
  RelAlgExprPtr b_expr = node->children[1];
  const std::size_t a_arity = StaticArity(a_expr, spool);
  const std::size_t b_arity = StaticArity(b_expr, spool);
  for (const RelAlgExpr* sel : chain) {
    const std::size_t l = sel->lhs_column;
    const std::size_t r = sel->rhs_column;
    const bool cross = sel->rhs_is_column &&
                       std::min(l, r) < a_arity &&
                       std::max(l, r) >= a_arity &&
                       std::max(l, r) < a_arity + b_arity;
    if (cross) {
      rewrite.a_keys.push_back(std::min(l, r));
      rewrite.b_keys.push_back(std::max(l, r) - a_arity);
    } else {
      rewrite.residual.push_back(sel);
    }
  }
  if (rewrite.a_keys.empty()) return rewrite;
  // Innermost-first residual order (chain was collected outermost
  // first) so filters apply in the order the reference composes them.
  std::reverse(rewrite.residual.begin(), rewrite.residual.end());
  rewrite.is_join = true;
  rewrite.a = a_expr.get();
  rewrite.b = b_expr.get();
  return rewrite;
}

Result<StreamOperatorPtr> Build(const RelAlgExpr& expr,
                                const RelationSpool& spool, OperatorEnv env,
                                const PlanOptions& opts);

Result<StreamOperatorPtr> BuildChild(const RelAlgExpr& parent,
                                     std::size_t index,
                                     const RelationSpool& spool,
                                     OperatorEnv env,
                                     const PlanOptions& opts) {
  if (index >= parent.children.size() || parent.children[index] == nullptr) {
    return ArityError("missing operand");
  }
  return Build(*parent.children[index], spool, env, opts);
}

StreamOperatorPtr SortedKeyed(StreamOperatorPtr input,
                              std::vector<std::size_t> keys,
                              OperatorEnv env) {
  return MakeSort(MakeKeyEncode(std::move(input), std::move(keys), env),
                  /*dedup=*/false, env);
}

StreamOperatorPtr ApplyFilter(StreamOperatorPtr input,
                              const RelAlgExpr& sel, OperatorEnv env) {
  return MakeFilter(std::move(input), sel.lhs_column, sel.rhs_is_column,
                    sel.rhs_column, sel.rhs_constant, env);
}

Result<StreamOperatorPtr> Build(const RelAlgExpr& expr,
                                const RelationSpool& spool, OperatorEnv env,
                                const PlanOptions& opts) {
  switch (expr.op) {
    case Op::kRelation:
      return MakeScan(spool.lane(expr.relation_name), env);
    case Op::kUnion: {
      Result<StreamOperatorPtr> a = BuildChild(expr, 0, spool, env, opts);
      if (!a.ok()) return a;
      Result<StreamOperatorPtr> b = BuildChild(expr, 1, spool, env, opts);
      if (!b.ok()) return b;
      return MakeSort(MakeAppend(std::move(a).value(), std::move(b).value(),
                                 env),
                      /*dedup=*/true, env);
    }
    case Op::kDifference:
    case Op::kIntersection: {
      Result<StreamOperatorPtr> a = BuildChild(expr, 0, spool, env, opts);
      if (!a.ok()) return a;
      Result<StreamOperatorPtr> b = BuildChild(expr, 1, spool, env, opts);
      if (!b.ok()) return b;
      const SetOpKind kind = expr.op == Op::kDifference
                                 ? SetOpKind::kDifference
                                 : SetOpKind::kIntersection;
      return MakeMergeSetOp(
          MakeSort(std::move(a).value(), /*dedup=*/false, env),
          MakeSort(std::move(b).value(), /*dedup=*/false, env), kind, env);
    }
    case Op::kProjection: {
      Result<StreamOperatorPtr> child =
          BuildChild(expr, 0, spool, env, opts);
      if (!child.ok()) return child;
      return MakeSort(
          MakeProjectMap(std::move(child).value(), expr.columns, env),
          /*dedup=*/true, env);
    }
    case Op::kProduct: {
      Result<StreamOperatorPtr> a = BuildChild(expr, 0, spool, env, opts);
      if (!a.ok()) return a;
      Result<StreamOperatorPtr> b = BuildChild(expr, 1, spool, env, opts);
      if (!b.ok()) return b;
      return MakeProduct(std::move(a).value(), std::move(b).value(), env);
    }
    case Op::kSelection: {
      const JoinRewrite rewrite = DetectJoin(expr, spool, opts);
      if (!rewrite.is_join) {
        Result<StreamOperatorPtr> child =
            BuildChild(expr, 0, spool, env, opts);
        if (!child.ok()) return child;
        return ApplyFilter(std::move(child).value(), expr, env);
      }
      Result<StreamOperatorPtr> a = Build(*rewrite.a, spool, env, opts);
      if (!a.ok()) return a;
      Result<StreamOperatorPtr> b = Build(*rewrite.b, spool, env, opts);
      if (!b.ok()) return b;
      StreamOperatorPtr joined = MakeMergeJoin(
          SortedKeyed(std::move(a).value(), rewrite.a_keys, env),
          SortedKeyed(std::move(b).value(), rewrite.b_keys, env), env);
      for (const RelAlgExpr* sel : rewrite.residual) {
        joined = ApplyFilter(std::move(joined), *sel, env);
      }
      return joined;
    }
  }
  return ArityError("unknown operator");
}

/// Shape accumulation: one traversal mirroring Build's operator
/// choices, returning the stream's (degree, max encoded tuple length).
struct StreamShape {
  unsigned degree = 1;
  std::size_t max_len = 1;
};

StreamShape Analyze(const RelAlgExpr& expr, const RelationSpool& spool,
                    const PlanOptions& opts, check::QueryPlanShape& shape) {
  StreamShape out;
  const auto has_child = [&expr](std::size_t i) {
    return i < expr.children.size() && expr.children[i] != nullptr;
  };
  const std::size_t needed = expr.op == Op::kRelation ? 0
                             : (expr.op == Op::kSelection ||
                                expr.op == Op::kProjection)
                                 ? 1
                                 : 2;
  for (std::size_t i = 0; i < needed; ++i) {
    if (!has_child(i)) return out;  // malformed; BuildPipeline rejects it
  }
  switch (expr.op) {
    case Op::kRelation: {
      ++shape.leaf_scans;
      ++shape.operators;
      const RelationSpool::Lane* lane = spool.lane(expr.relation_name);
      out.max_len = lane != nullptr ? std::max<std::size_t>(
                                          1, lane->max_field_len)
                                    : 1;
      shape.max_field_len = std::max(shape.max_field_len, out.max_len);
      return out;
    }
    case Op::kUnion: {
      StreamShape a = Analyze(*expr.children[0], spool, opts, shape);
      StreamShape b = Analyze(*expr.children[1], spool, opts, shape);
      out.degree = std::max(a.degree, b.degree);
      out.max_len = std::max(a.max_len, b.max_len);
      shape.sort_degrees.push_back(out.degree);
      shape.operators += 2;  // append + sort
      shape.max_field_len = std::max(shape.max_field_len, out.max_len);
      return out;
    }
    case Op::kDifference:
    case Op::kIntersection: {
      StreamShape a = Analyze(*expr.children[0], spool, opts, shape);
      StreamShape b = Analyze(*expr.children[1], spool, opts, shape);
      shape.sort_degrees.push_back(a.degree);
      shape.sort_degrees.push_back(b.degree);
      ++shape.merge_ops;
      shape.operators += 3;  // two sorts + merge
      out.degree = std::max(a.degree, b.degree);
      out.max_len = std::max(a.max_len, b.max_len);
      shape.max_field_len = std::max(shape.max_field_len, out.max_len);
      return out;
    }
    case Op::kProjection: {
      StreamShape child = Analyze(*expr.children[0], spool, opts, shape);
      out.degree = child.degree;
      out.max_len = expr.columns.empty()
                        ? 1
                        : expr.columns.size() * (child.max_len + 1);
      shape.sort_degrees.push_back(out.degree);
      shape.operators += 2;  // map + sort
      shape.max_field_len = std::max(shape.max_field_len, out.max_len);
      return out;
    }
    case Op::kProduct: {
      StreamShape a = Analyze(*expr.children[0], spool, opts, shape);
      StreamShape b = Analyze(*expr.children[1], spool, opts, shape);
      out.degree = a.degree + b.degree;
      out.max_len = a.max_len + b.max_len + 1;
      shape.product_degrees.push_back(out.degree);
      ++shape.operators;
      shape.max_field_len = std::max(shape.max_field_len, out.max_len);
      return out;
    }
    case Op::kSelection: {
      const JoinRewrite rewrite = DetectJoin(expr, spool, opts);
      if (!rewrite.is_join) {
        out = Analyze(*expr.children[0], spool, opts, shape);
        ++shape.operators;
        return out;
      }
      StreamShape a = Analyze(*rewrite.a, spool, opts, shape);
      StreamShape b = Analyze(*rewrite.b, spool, opts, shape);
      // Key-encoded sort records: "keys;payload" at most doubles the
      // payload length (keys are copied columns) plus separators.
      const std::size_t enc_a = 2 * a.max_len + 2;
      const std::size_t enc_b = 2 * b.max_len + 2;
      shape.sort_degrees.push_back(a.degree);
      shape.sort_degrees.push_back(b.degree);
      ++shape.joins;
      shape.join_group_degree =
          std::max(shape.join_group_degree, b.degree);
      shape.operators += 5 + rewrite.residual.size();
      out.degree = a.degree + b.degree;
      out.max_len = a.max_len + b.max_len + 1;
      shape.max_field_len = std::max(
          {shape.max_field_len, out.max_len, enc_a, enc_b});
      return out;
    }
  }
  return out;
}

}  // namespace

std::size_t StaticArity(const RelAlgExprPtr& expr,
                        const RelationSpool& spool) {
  if (expr == nullptr) return 0;
  switch (expr->op) {
    case Op::kRelation: {
      const RelationSpool::Lane* lane = spool.lane(expr->relation_name);
      return lane != nullptr ? lane->arity : 0;
    }
    case Op::kProduct:
      return (expr->children.size() > 0
                  ? StaticArity(expr->children[0], spool)
                  : 0) +
             (expr->children.size() > 1
                  ? StaticArity(expr->children[1], spool)
                  : 0);
    case Op::kProjection:
      return expr->columns.size();
    case Op::kUnion:
    case Op::kDifference:
    case Op::kIntersection:
    case Op::kSelection:
      return expr->children.empty()
                 ? 0
                 : StaticArity(expr->children[0], spool);
  }
  return 0;
}

Result<StreamOperatorPtr> BuildPipeline(const RelAlgExprPtr& expr,
                                        const RelationSpool& spool,
                                        OperatorEnv env,
                                        const PlanOptions& opts) {
  if (expr == nullptr) return ArityError("null expression");
  if (env.config == nullptr || env.storage == nullptr ||
      env.cost == nullptr) {
    return Status::InvalidArgument("incomplete operator environment");
  }
  return Build(*expr, spool, env, opts);
}

check::QueryPlanShape AnalyzePlan(const RelAlgExprPtr& expr,
                                  const RelationSpool& spool,
                                  const EngineConfig& config,
                                  const PlanOptions& opts) {
  check::QueryPlanShape shape;
  shape.batch_size = config.batch_size;
  shape.fanout = config.sort.fanout;
  shape.run_length = config.sort.run_length;
  // Join-key uniqueness is a workload promise the compiler cannot
  // derive; price the duplicate-key worst case unless the caller
  // upgrades the shape afterwards.
  shape.joins_unique_keys = false;
  if (expr != nullptr) Analyze(*expr, spool, opts, shape);
  return shape;
}

std::string DescribePlan(const RelAlgExprPtr& expr) {
  if (expr == nullptr) return "<null>";
  const RelAlgExpr& e = *expr;
  auto child = [&](std::size_t i) {
    return i < e.children.size() ? DescribePlan(e.children[i])
                                 : std::string("<missing>");
  };
  switch (e.op) {
    case Op::kRelation:
      return e.relation_name;
    case Op::kUnion:
      return std::string("(") + child(0) + " + " + child(1) + ")";
    case Op::kDifference:
      return std::string("(") + child(0) + " - " + child(1) + ")";
    case Op::kIntersection:
      return std::string("(") + child(0) + " & " + child(1) + ")";
    case Op::kProduct:
      return std::string("(") + child(0) + " x " + child(1) + ")";
    case Op::kProjection: {
      std::string cols;
      for (std::size_t i = 0; i < e.columns.size(); ++i) {
        if (i > 0) cols += ',';
        cols += std::to_string(e.columns[i]);
      }
      return "proj{" + cols + "}(" + child(0) + ")";
    }
    case Op::kSelection: {
      std::string cond = std::to_string(e.lhs_column);
      cond += e.rhs_is_column ? std::string("=") + std::to_string(e.rhs_column)
                              : "='" + e.rhs_constant + "'";
      return "sel{" + cond + "}(" + child(0) + ")";
    }
  }
  return "<unknown>";
}

}  // namespace rstlab::query::engine
