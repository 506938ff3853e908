#include "query/relalg.h"

#include <algorithm>
#include <iterator>

#include "stmodel/tape_io.h"

namespace rstlab::query {

namespace {

RelAlgExprPtr MakeBinary(RelAlgExpr::Op op, RelAlgExprPtr a,
                         RelAlgExprPtr b) {
  auto expr = std::make_shared<RelAlgExpr>();
  expr->op = op;
  expr->children = {std::move(a), std::move(b)};
  return expr;
}

}  // namespace

RelAlgExprPtr Rel(std::string name) {
  auto expr = std::make_shared<RelAlgExpr>();
  expr->op = RelAlgExpr::Op::kRelation;
  expr->relation_name = std::move(name);
  return expr;
}

RelAlgExprPtr Union(RelAlgExprPtr a, RelAlgExprPtr b) {
  return MakeBinary(RelAlgExpr::Op::kUnion, std::move(a), std::move(b));
}

RelAlgExprPtr Difference(RelAlgExprPtr a, RelAlgExprPtr b) {
  return MakeBinary(RelAlgExpr::Op::kDifference, std::move(a),
                    std::move(b));
}

RelAlgExprPtr Intersection(RelAlgExprPtr a, RelAlgExprPtr b) {
  return MakeBinary(RelAlgExpr::Op::kIntersection, std::move(a),
                    std::move(b));
}

RelAlgExprPtr SelectEqConst(RelAlgExprPtr a, std::size_t column,
                            std::string constant) {
  auto expr = std::make_shared<RelAlgExpr>();
  expr->op = RelAlgExpr::Op::kSelection;
  expr->children = {std::move(a)};
  expr->lhs_column = column;
  expr->rhs_is_column = false;
  expr->rhs_constant = std::move(constant);
  return expr;
}

RelAlgExprPtr SelectEqColumn(RelAlgExprPtr a, std::size_t lhs,
                             std::size_t rhs) {
  auto expr = std::make_shared<RelAlgExpr>();
  expr->op = RelAlgExpr::Op::kSelection;
  expr->children = {std::move(a)};
  expr->lhs_column = lhs;
  expr->rhs_is_column = true;
  expr->rhs_column = rhs;
  return expr;
}

RelAlgExprPtr Project(RelAlgExprPtr a, std::vector<std::size_t> columns) {
  auto expr = std::make_shared<RelAlgExpr>();
  expr->op = RelAlgExpr::Op::kProjection;
  expr->children = {std::move(a)};
  expr->columns = std::move(columns);
  return expr;
}

RelAlgExprPtr Product(RelAlgExprPtr a, RelAlgExprPtr b) {
  return MakeBinary(RelAlgExpr::Op::kProduct, std::move(a), std::move(b));
}

RelAlgExprPtr EquiJoin(
    RelAlgExprPtr a, RelAlgExprPtr b, std::size_t a_arity,
    std::vector<std::pair<std::size_t, std::size_t>> on) {
  RelAlgExprPtr out = Product(std::move(a), std::move(b));
  for (const auto& [left, right] : on) {
    out = SelectEqColumn(std::move(out), left, a_arity + right);
  }
  return out;
}

RelAlgExprPtr SymmetricDifferenceQuery(std::string r1, std::string r2) {
  return Union(Difference(Rel(r1), Rel(r2)), Difference(Rel(r2), Rel(r1)));
}

// ---------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------

// Every result leaves normalized (sorted, duplicate-free), so the set
// operations are linear merges of their operands.
Result<Relation> EvaluateInMemory(
    const RelAlgExprPtr& expr,
    const std::map<std::string, Relation>& database) {
  Relation out;
  out.name = "result";
  switch (expr->op) {
    case RelAlgExpr::Op::kRelation: {
      auto it = database.find(expr->relation_name);
      if (it == database.end()) {
        return Status::NotFound("relation " + expr->relation_name);
      }
      out = it->second;
      out.Normalize();
      return out;
    }
    case RelAlgExpr::Op::kUnion:
    case RelAlgExpr::Op::kDifference:
    case RelAlgExpr::Op::kIntersection:
    case RelAlgExpr::Op::kProduct: {
      Result<Relation> a = EvaluateInMemory(expr->children[0], database);
      if (!a.ok()) return a;
      Result<Relation> b = EvaluateInMemory(expr->children[1], database);
      if (!b.ok()) return b;
      const std::vector<Tuple>& ta = a.value().tuples;
      const std::vector<Tuple>& tb = b.value().tuples;
      auto sink = std::back_inserter(out.tuples);
      out.arity = a.value().arity;
      switch (expr->op) {
        case RelAlgExpr::Op::kUnion:
          out.arity = std::max(a.value().arity, b.value().arity);
          std::set_union(ta.begin(), ta.end(), tb.begin(), tb.end(), sink);
          break;
        case RelAlgExpr::Op::kDifference:
          std::set_difference(ta.begin(), ta.end(), tb.begin(), tb.end(),
                              sink);
          break;
        case RelAlgExpr::Op::kIntersection:
          std::set_intersection(ta.begin(), ta.end(), tb.begin(), tb.end(),
                                sink);
          break;
        default:  // kProduct
          out.arity = a.value().arity + b.value().arity;
          for (const Tuple& left : ta) {
            for (const Tuple& right : tb) {
              Tuple combined = left;
              combined.insert(combined.end(), right.begin(), right.end());
              out.tuples.push_back(std::move(combined));
            }
          }
          out.Normalize();
          break;
      }
      return out;
    }
    case RelAlgExpr::Op::kSelection: {
      Result<Relation> a = EvaluateInMemory(expr->children[0], database);
      if (!a.ok()) return a;
      out.arity = a.value().arity;
      // A subsequence of a normalized relation is normalized.
      for (const Tuple& t : a.value().tuples) {
        if (expr->lhs_column >= t.size()) continue;
        const std::string& lhs = t[expr->lhs_column];
        bool keep;
        if (expr->rhs_is_column) {
          keep = expr->rhs_column < t.size() &&
                 lhs == t[expr->rhs_column];
        } else {
          keep = lhs == expr->rhs_constant;
        }
        if (keep) out.tuples.push_back(t);
      }
      return out;
    }
    case RelAlgExpr::Op::kProjection: {
      Result<Relation> a = EvaluateInMemory(expr->children[0], database);
      if (!a.ok()) return a;
      out.arity = expr->columns.size();
      for (const Tuple& t : a.value().tuples) {
        Tuple projected;
        for (std::size_t c : expr->columns) {
          projected.push_back(c < t.size() ? t[c] : "");
        }
        out.tuples.push_back(std::move(projected));
      }
      out.Normalize();
      return out;
    }
  }
  return Status::Internal("unknown operator");
}

// ---------------------------------------------------------------------
// Input encoding
// ---------------------------------------------------------------------

std::string EncodeDatabaseStream(
    const std::map<std::string, Relation>& database) {
  std::string out;
  for (const auto& [name, relation] : database) {
    for (const Tuple& tuple : relation.tuples) {
      out += name;
      out += ',';
      out += EncodeTuple(tuple);
      out += stmodel::kFieldSeparator;
    }
  }
  return out;
}

}  // namespace rstlab::query
