#include "query/relalg.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "sorting/parallel_sort.h"
#include "stmodel/internal_arena.h"
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

Result<Relation> EvaluateInMemory(
    const RelAlgExprPtr& expr,
    const std::map<std::string, Relation>& database) {
  switch (expr->op) {
    case RelAlgExpr::Op::kRelation: {
      auto it = database.find(expr->relation_name);
      if (it == database.end()) {
        return Status::NotFound("relation " + expr->relation_name);
      }
      Relation r = it->second;
      r.Normalize();
      return r;
    }
    case RelAlgExpr::Op::kUnion:
    case RelAlgExpr::Op::kDifference:
    case RelAlgExpr::Op::kIntersection:
    case RelAlgExpr::Op::kProduct: {
      Result<Relation> a = EvaluateInMemory(expr->children[0], database);
      if (!a.ok()) return a;
      Result<Relation> b = EvaluateInMemory(expr->children[1], database);
      if (!b.ok()) return b;
      Relation out;
      out.name = "result";
      switch (expr->op) {
        case RelAlgExpr::Op::kUnion:
          out = a.value();
          out.arity = std::max(a.value().arity, b.value().arity);
          for (const Tuple& t : b.value().tuples) out.Insert(t);
          break;
        case RelAlgExpr::Op::kDifference:
          out.arity = a.value().arity;
          for (const Tuple& t : a.value().tuples) {
            if (!b.value().Contains(t)) out.Insert(t);
          }
          break;
        case RelAlgExpr::Op::kIntersection:
          out.arity = a.value().arity;
          for (const Tuple& t : a.value().tuples) {
            if (b.value().Contains(t)) out.Insert(t);
          }
          break;
        case RelAlgExpr::Op::kProduct:
          out.arity = a.value().arity + b.value().arity;
          for (const Tuple& ta : a.value().tuples) {
            for (const Tuple& tb : b.value().tuples) {
              Tuple combined = ta;
              combined.insert(combined.end(), tb.begin(), tb.end());
              out.Insert(combined);
            }
          }
          break;
        default:
          break;
      }
      out.Normalize();
      return out;
    }
    case RelAlgExpr::Op::kSelection: {
      Result<Relation> a = EvaluateInMemory(expr->children[0], database);
      if (!a.ok()) return a;
      Relation out;
      out.name = "result";
      out.arity = a.value().arity;
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
        if (keep) out.Insert(t);
      }
      return out;
    }
    case RelAlgExpr::Op::kProjection: {
      Result<Relation> a = EvaluateInMemory(expr->children[0], database);
      if (!a.ok()) return a;
      Relation out;
      out.name = "result";
      out.arity = expr->columns.size();
      for (const Tuple& t : a.value().tuples) {
        Tuple projected;
        for (std::size_t c : expr->columns) {
          projected.push_back(c < t.size() ? t[c] : "");
        }
        out.Insert(projected);
      }
      out.Normalize();
      return out;
    }
  }
  return Status::Internal("unknown operator");
}

// ---------------------------------------------------------------------
// Streaming evaluator
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

namespace {

constexpr std::size_t kInputTape = 0;
constexpr std::size_t kStackTape = 1;
constexpr std::size_t kOperandA = 2;
constexpr std::size_t kOperandB = 3;
/// The product's doubling partner for kOperandB. Tape 5 of the
/// kRelAlgTapes layout is unused: the k-way sort spills to its own lanes.
constexpr std::size_t kDoublingTape = 4;

/// One materialized intermediate result: `count` fields starting at cell
/// `start` of the stack tape. (Per-query-constant bookkeeping, i.e. part
/// of the machine's finite control, not of its metered memory.)
struct Segment {
  std::size_t start = 0;
  std::size_t count = 0;
};

/// The streaming evaluation engine; one instance per EvaluateOnTapes
/// call.
class TapeEvaluator {
 public:
  explicit TapeEvaluator(stmodel::StContext& ctx)
      : ctx_(ctx),
        buffer_bits_(ctx.arena().Allocate(0)) {}

  Result<Relation> Evaluate(const RelAlgExprPtr& expr) {
    Result<Segment> seg = Eval(expr);
    if (!seg.ok()) return seg.status();
    // Read the final segment back.
    tape::Tape& stack = ctx_.tape(kStackTape);
    stack.Seek(seg.value().start);
    Relation out = ReadRelationFromTape(stack, "result",
                                        seg.value().count);
    return out;
  }

 private:
  /// Accounts one more host-buffered byte-width against the arena.
  void MeterBuffer(std::size_t bytes) {
    max_buffered_ = std::max(max_buffered_, bytes);
    buffer_bits_.Resize(8 * max_buffered_);
  }

  void AppendField(tape::Tape& t, const std::string& payload) {
    stmodel::WriteString(t, payload);
    t.Write(stmodel::kFieldSeparator);
    t.MoveRight();
  }

  /// Appends `payload` to the stack at the logical end.
  void PushField(const std::string& payload) {
    tape::Tape& stack = ctx_.tape(kStackTape);
    stack.Seek(write_pos_);
    AppendField(stack, payload);
    write_pos_ = stack.head();
  }

  /// Copies `count` fields from the stack segment at `start` onto
  /// `dst_tape` (from cell 0), terminated with a blank so the sorter
  /// sees exactly these fields. Returns the number of copied fields.
  void CopySegmentTo(const Segment& seg, std::size_t dst_tape) {
    tape::Tape& stack = ctx_.tape(kStackTape);
    tape::Tape& dst = ctx_.tape(dst_tape);
    stack.Seek(seg.start);
    dst.Seek(0);
    for (std::size_t i = 0; i < seg.count; ++i) {
      stmodel::CopyField(stack, dst);
    }
    dst.Write(tape::kBlank);
  }

  /// Pops segments (logical stack shrink): rewinds the write position.
  void PopTo(std::size_t position) { write_pos_ = position; }

  Segment BeginSegment() const { return Segment{write_pos_, 0}; }

  /// Reads the next field from `t`, metering the buffer.
  std::string NextField(tape::Tape& t) {
    std::string f = stmodel::ReadField(t);
    MeterBuffer(f.size());
    return f;
  }

  Result<Segment> Eval(const RelAlgExprPtr& expr) {
    switch (expr->op) {
      case RelAlgExpr::Op::kRelation:
        return EvalLeaf(expr);
      case RelAlgExpr::Op::kUnion:
        return EvalUnion(expr);
      case RelAlgExpr::Op::kDifference:
      case RelAlgExpr::Op::kIntersection:
        return EvalMergeOp(expr);
      case RelAlgExpr::Op::kSelection:
        return EvalSelection(expr);
      case RelAlgExpr::Op::kProjection:
        return EvalProjection(expr);
      case RelAlgExpr::Op::kProduct:
        return EvalProduct(expr);
    }
    return Status::Internal("unknown operator");
  }

  Result<Segment> EvalLeaf(const RelAlgExprPtr& expr) {
    // One scan of the input stream, filtering on the relation-name
    // prefix.
    tape::Tape& input = ctx_.tape(kInputTape);
    stmodel::Rewind(input);
    Segment seg = BeginSegment();
    const std::string prefix = expr->relation_name + ",";
    while (!stmodel::AtEnd(input)) {
      std::string field = NextField(input);
      if (field.size() > prefix.size() &&
          field.compare(0, prefix.size(), prefix) == 0) {
        PushField(field.substr(prefix.size()));
        ++seg.count;
      }
    }
    return seg;
  }

  /// Sorts the `count` fields at the start of `tape_index` (terminated
  /// with a blank by CopySegmentTo) at the process-default geometry.
  Status SortOperand(std::size_t tape_index) {
    return sorting::ParallelSortFieldsOnTape(ctx_, tape_index,
                                             sorting::DefaultSortConfig());
  }

  Result<Segment> EvalUnion(const RelAlgExprPtr& expr) {
    Result<Segment> a = Eval(expr->children[0]);
    if (!a.ok()) return a;
    Result<Segment> b = Eval(expr->children[1]);
    if (!b.ok()) return b;
    // Concatenate both onto operand A, sort, de-duplicate back onto the
    // stack in place of the operands.
    tape::Tape& stack = ctx_.tape(kStackTape);
    tape::Tape& opa = ctx_.tape(kOperandA);
    stack.Seek(a.value().start);
    opa.Seek(0);
    const std::size_t total = a.value().count + b.value().count;
    for (std::size_t i = 0; i < total; ++i) {
      stmodel::CopyField(stack, opa);
    }
    opa.Write(tape::kBlank);
    RSTLAB_RETURN_IF_ERROR(SortOperand(kOperandA));
    PopTo(a.value().start);
    return DedupAppend(kOperandA, total);
  }

  /// Appends the sorted fields of `tape_index` to the stack, collapsing
  /// duplicates.
  Result<Segment> DedupAppend(std::size_t tape_index, std::size_t count) {
    tape::Tape& src = ctx_.tape(tape_index);
    src.Seek(0);
    Segment seg = BeginSegment();
    std::optional<std::string> previous;
    for (std::size_t i = 0; i < count; ++i) {
      std::string field = NextField(src);
      if (!previous.has_value() || field != *previous) {
        PushField(field);
        ++seg.count;
        previous = std::move(field);
      }
    }
    return seg;
  }

  Result<Segment> EvalMergeOp(const RelAlgExprPtr& expr) {
    const bool difference = expr->op == RelAlgExpr::Op::kDifference;
    Result<Segment> a = Eval(expr->children[0]);
    if (!a.ok()) return a;
    Result<Segment> b = Eval(expr->children[1]);
    if (!b.ok()) return b;
    CopySegmentTo(a.value(), kOperandA);
    CopySegmentTo(b.value(), kOperandB);
    RSTLAB_RETURN_IF_ERROR(SortOperand(kOperandA));
    RSTLAB_RETURN_IF_ERROR(SortOperand(kOperandB));
    PopTo(a.value().start);

    // Sorted merge: emit A-tuples (de-duplicated) depending on presence
    // in B.
    tape::Tape& opa = ctx_.tape(kOperandA);
    tape::Tape& opb = ctx_.tape(kOperandB);
    opa.Seek(0);
    opb.Seek(0);
    Segment seg = BeginSegment();
    std::size_t remaining_b = b.value().count;
    std::optional<std::string> cur_b;
    std::optional<std::string> previous_a;
    for (std::size_t i = 0; i < a.value().count; ++i) {
      std::string field = NextField(opa);
      if (previous_a.has_value() && field == *previous_a) continue;
      previous_a = field;
      // Advance B to the first value >= field.
      while ((!cur_b.has_value() || *cur_b < field) && remaining_b > 0) {
        cur_b = NextField(opb);
        --remaining_b;
      }
      const bool in_b = cur_b.has_value() && *cur_b == field;
      if (in_b != difference) {
        PushField(field);
        ++seg.count;
      }
    }
    return seg;
  }

  Result<Segment> EvalSelection(const RelAlgExprPtr& expr) {
    Result<Segment> a = Eval(expr->children[0]);
    if (!a.ok()) return a;
    CopySegmentTo(a.value(), kOperandA);
    PopTo(a.value().start);
    tape::Tape& opa = ctx_.tape(kOperandA);
    opa.Seek(0);
    Segment seg = BeginSegment();
    for (std::size_t i = 0; i < a.value().count; ++i) {
      std::string field = NextField(opa);
      Tuple tuple = DecodeTuple(field);
      if (expr->lhs_column >= tuple.size()) continue;
      const std::string& lhs = tuple[expr->lhs_column];
      const bool keep =
          expr->rhs_is_column
              ? (expr->rhs_column < tuple.size() &&
                 lhs == tuple[expr->rhs_column])
              : lhs == expr->rhs_constant;
      if (keep) {
        PushField(field);
        ++seg.count;
      }
    }
    return seg;
  }

  Result<Segment> EvalProjection(const RelAlgExprPtr& expr) {
    Result<Segment> a = Eval(expr->children[0]);
    if (!a.ok()) return a;
    CopySegmentTo(a.value(), kOperandA);
    PopTo(a.value().start);
    // Project A onto operand B, then sort + dedup.
    tape::Tape& opa = ctx_.tape(kOperandA);
    tape::Tape& opb = ctx_.tape(kOperandB);
    opa.Seek(0);
    opb.Seek(0);
    for (std::size_t i = 0; i < a.value().count; ++i) {
      Tuple tuple = DecodeTuple(NextField(opa));
      Tuple projected;
      for (std::size_t c : expr->columns) {
        projected.push_back(c < tuple.size() ? tuple[c] : "");
      }
      AppendField(opb, EncodeTuple(projected));
    }
    opb.Write(tape::kBlank);
    RSTLAB_RETURN_IF_ERROR(SortOperand(kOperandB));
    return DedupAppend(kOperandB, a.value().count);
  }

  Result<Segment> EvalProduct(const RelAlgExprPtr& expr) {
    Result<Segment> a = Eval(expr->children[0]);
    if (!a.ok()) return a;
    Result<Segment> b = Eval(expr->children[1]);
    if (!b.ok()) return b;
    CopySegmentTo(a.value(), kOperandA);
    CopySegmentTo(b.value(), kOperandB);
    PopTo(a.value().start);
    if (a.value().count == 0 || b.value().count == 0) {
      return BeginSegment();
    }

    // Replicate operand B until there are >= |A| copies, by repeated
    // doubling between the two aux tapes: O(log |A|) passes.
    std::size_t copies = 1;
    std::size_t cur = kOperandB;
    std::size_t other = kDoublingTape;
    while (copies < a.value().count) {
      tape::Tape& src = ctx_.tape(cur);
      tape::Tape& dst = ctx_.tape(other);
      dst.Seek(0);
      for (int pass = 0; pass < 2; ++pass) {
        src.Seek(0);
        for (std::size_t i = 0; i < copies * b.value().count; ++i) {
          stmodel::CopyField(src, dst);
        }
      }
      copies *= 2;
      std::swap(cur, other);
    }

    // Pairing pass: replica i of B is combined with tuple i of A.
    tape::Tape& opa = ctx_.tape(kOperandA);
    tape::Tape& replicas = ctx_.tape(cur);
    opa.Seek(0);
    replicas.Seek(0);
    Segment seg = BeginSegment();
    for (std::size_t i = 0; i < a.value().count; ++i) {
      std::string a_field = NextField(opa);
      for (std::size_t j = 0; j < b.value().count; ++j) {
        std::string b_field = NextField(replicas);
        PushField(a_field + "," + b_field);
        ++seg.count;
      }
    }
    return seg;
  }

  stmodel::StContext& ctx_;
  stmodel::InternalArena::Allocation buffer_bits_;
  std::size_t max_buffered_ = 0;
  std::size_t write_pos_ = 0;
};

}  // namespace

Result<Relation> EvaluateOnTapes(const RelAlgExprPtr& expr,
                                 stmodel::StContext& ctx) {
  if (ctx.num_tapes() < kRelAlgTapes) {
    return Status::InvalidArgument(
        "streaming evaluator needs 6 external tapes");
  }
  TapeEvaluator evaluator(ctx);
  return evaluator.Evaluate(expr);
}

}  // namespace rstlab::query
