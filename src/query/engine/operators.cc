#include "query/engine/operators.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/relation.h"
#include "sorting/parallel_sort.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "tape/tape.h"

namespace rstlab::query::engine {

std::string QueryCost::ToString() const {
  return "r=" + std::to_string(scan_bound) +
         " s=" + std::to_string(internal_bits) +
         " ext=" + std::to_string(external_cells) +
         " sorts=" + std::to_string(sorts) +
         " out=" + std::to_string(tuples_out);
}

namespace {

/// Bits a host buffer of `bytes` payload characters costs as internal
/// memory (terminator included).
std::size_t BufferBits(std::size_t bytes) { return 8 * (bytes + 1); }

/// Tuple-at-a-time adapter over a child's batches, for the merge
/// operators that need single-tuple lookahead. The buffered batch is
/// the child's own (already metered by the child's producer); the one
/// extra lookahead tuple is metered by the caller.
class BatchedPull {
 public:
  explicit BatchedPull(StreamOperator* child) : child_(child) {}

  /// Pulls the next tuple into `out`; `out` is nullopt at end of
  /// stream. Only returns non-OK on child failure.
  Status NextTuple(std::optional<std::string>& out) {
    out.reset();
    while (pos_ >= batch_.tuples.size()) {
      if (batch_.at_end) return Status::OK();
      Result<TupleBatch> next = child_->Next();
      if (!next.ok()) return next.status();
      batch_ = std::move(next).value();
      pos_ = 0;
    }
    out = std::move(batch_.tuples[pos_++]);
    return Status::OK();
  }

 private:
  StreamOperator* child_;
  TupleBatch batch_;
  std::size_t pos_ = 0;
};

/// Common child-owning scaffolding: Close closes children exactly once
/// and is idempotent.
class UnaryOp : public StreamOperator {
 public:
  UnaryOp(StreamOperatorPtr child, OperatorEnv env)
      : child_(std::move(child)), env_(env) {}

  void Close() override {
    if (closed_) return;
    closed_ = true;
    CloseImpl();
    child_->Close();
  }

 protected:
  virtual void CloseImpl() {}

  StreamOperatorPtr child_;
  OperatorEnv env_;
  bool closed_ = false;
};

class BinaryOp : public StreamOperator {
 public:
  BinaryOp(StreamOperatorPtr a, StreamOperatorPtr b, OperatorEnv env)
      : a_(std::move(a)), b_(std::move(b)), env_(env) {}

  void Close() override {
    if (closed_) return;
    closed_ = true;
    CloseImpl();
    a_->Close();
    b_->Close();
  }

 protected:
  virtual void CloseImpl() {}

  StreamOperatorPtr a_;
  StreamOperatorPtr b_;
  OperatorEnv env_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------
// Scan

class ScanOp final : public StreamOperator {
 public:
  ScanOp(const RelationSpool::Lane* lane, OperatorEnv env)
      : env_(env), cursor_(lane) {}

  Status Open() override {
    // One sequential pass over the lane plus the rewind that readies it
    // for the next reader: the same 2-reversal bill an input-tape scan
    // incurs in the Theorem 11 evaluator.
    env_.cost->ChargeReversals(2);
    return Status::OK();
  }

  Result<TupleBatch> Next() override {
    TupleBatch batch;
    std::size_t bytes = 0;
    while (batch.tuples.size() < env_.config->batch_size) {
      std::optional<std::string> field = cursor_.NextField();
      if (!field.has_value()) {
        batch.at_end = true;
        break;
      }
      bytes += field->size() + 1;
      batch.tuples.push_back(*std::move(field));
    }
    env_.cost->RaiseInternal(BufferBits(bytes));
    return batch;
  }

  void Close() override {}

 private:
  OperatorEnv env_;
  SpoolCursor cursor_;
};

// ---------------------------------------------------------------------
// Filter / ProjectMap / KeyEncode (per-tuple maps)

class FilterOp final : public UnaryOp {
 public:
  FilterOp(StreamOperatorPtr child, std::size_t lhs, bool rhs_is_column,
           std::size_t rhs_column, std::string rhs_constant,
           OperatorEnv env)
      : UnaryOp(std::move(child), env),
        lhs_(lhs),
        rhs_is_column_(rhs_is_column),
        rhs_column_(rhs_column),
        rhs_constant_(std::move(rhs_constant)) {}

  Status Open() override { return child_->Open(); }

  Result<TupleBatch> Next() override {
    Result<TupleBatch> next = child_->Next();
    if (!next.ok()) return next;
    TupleBatch batch = std::move(next).value();
    std::vector<std::string> kept;
    kept.reserve(batch.tuples.size());
    for (std::string& field : batch.tuples) {
      const Tuple tuple = DecodeTuple(field);
      if (lhs_ >= tuple.size()) continue;
      if (rhs_is_column_) {
        if (rhs_column_ < tuple.size() &&
            tuple[lhs_] == tuple[rhs_column_]) {
          kept.push_back(std::move(field));
        }
      } else if (tuple[lhs_] == rhs_constant_) {
        kept.push_back(std::move(field));
      }
    }
    batch.tuples = std::move(kept);
    return batch;
  }

 private:
  std::size_t lhs_;
  bool rhs_is_column_;
  std::size_t rhs_column_;
  std::string rhs_constant_;
};

class ProjectMapOp final : public UnaryOp {
 public:
  ProjectMapOp(StreamOperatorPtr child, std::vector<std::size_t> columns,
               OperatorEnv env)
      : UnaryOp(std::move(child), env), columns_(std::move(columns)) {}

  Status Open() override { return child_->Open(); }

  Result<TupleBatch> Next() override {
    Result<TupleBatch> next = child_->Next();
    if (!next.ok()) return next;
    TupleBatch batch = std::move(next).value();
    for (std::string& field : batch.tuples) {
      const Tuple tuple = DecodeTuple(field);
      Tuple projected;
      projected.reserve(columns_.size());
      for (const std::size_t column : columns_) {
        projected.push_back(column < tuple.size() ? tuple[column]
                                                  : std::string());
      }
      field = EncodeTuple(projected);
    }
    return batch;
  }

 private:
  std::vector<std::size_t> columns_;
};

/// "k1,k2,...;payload": the join-key prefix a field sort groups on.
std::string EncodeWithKey(const std::string& field,
                          const std::vector<std::size_t>& key_columns) {
  const Tuple tuple = DecodeTuple(field);
  std::string encoded;
  for (std::size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) encoded += ',';
    if (key_columns[i] < tuple.size()) encoded += tuple[key_columns[i]];
  }
  encoded += ';';
  encoded += field;
  return encoded;
}

class KeyEncodeOp final : public UnaryOp {
 public:
  KeyEncodeOp(StreamOperatorPtr child, std::vector<std::size_t> key_columns,
              OperatorEnv env)
      : UnaryOp(std::move(child), env),
        key_columns_(std::move(key_columns)) {}

  Status Open() override { return child_->Open(); }

  Result<TupleBatch> Next() override {
    Result<TupleBatch> next = child_->Next();
    if (!next.ok()) return next;
    TupleBatch batch = std::move(next).value();
    for (std::string& field : batch.tuples) {
      if (field.find(';') != std::string::npos) {
        return Status::InvalidArgument(
            "join key encoding requires ';'-free attribute values");
      }
      field = EncodeWithKey(field, key_columns_);
    }
    return batch;
  }

 private:
  std::vector<std::size_t> key_columns_;
};

// ---------------------------------------------------------------------
// Append

class AppendOp final : public BinaryOp {
 public:
  using BinaryOp::BinaryOp;

  Status Open() override {
    RSTLAB_RETURN_IF_ERROR(a_->Open());
    return b_->Open();
  }

  Result<TupleBatch> Next() override {
    if (!a_done_) {
      Result<TupleBatch> next = a_->Next();
      if (!next.ok()) return next;
      TupleBatch batch = std::move(next).value();
      if (!batch.at_end) return batch;
      a_done_ = true;
      if (!batch.tuples.empty()) {
        batch.at_end = false;  // b still to come
        return batch;
      }
    }
    return b_->Next();
  }

 private:
  bool a_done_ = false;
};

// ---------------------------------------------------------------------
// Sort

/// Drains the child onto the tape of a private 1-tape scratch context,
/// sorts it with the configured geometry (spill lanes on the caller's
/// backend), then streams the sorted fields. The scratch context's
/// measured report — drain writes, every sort pass, the read-out scan —
/// is folded into the query bill exactly once, at Close, on success and
/// failure alike; destroying the context releases the lanes (and, on
/// the file backend, unlinks the temp files).
class SortOp final : public UnaryOp {
 public:
  SortOp(StreamOperatorPtr child, bool dedup, OperatorEnv env)
      : UnaryOp(std::move(child), env), dedup_(dedup) {}

  Status Open() override {
    RSTLAB_RETURN_IF_ERROR(child_->Open());
    scratch_ = std::make_unique<stmodel::StContext>(1, *env_.storage);
    tape::Tape& t = scratch_->tape(0);
    std::string chunk;
    std::size_t longest = 0;
    for (;;) {
      Result<TupleBatch> next = child_->Next();
      if (!next.ok()) return next.status();
      TupleBatch batch = std::move(next).value();
      for (std::string& field : batch.tuples) {
        longest = std::max(longest, field.size());
        chunk += field;
        chunk += stmodel::kFieldSeparator;
        if (chunk.size() >= 4096) {
          t.WriteForward(chunk);
          chunk.clear();
        }
      }
      if (batch.at_end) break;
    }
    if (!chunk.empty()) t.WriteForward(chunk);
    env_.cost->RaiseInternal(BufferBits(longest + 1));
    // The child's stream is consumed; release its resources before the
    // sort runs so peak scratch (child lanes + ours) never overlaps.
    child_->Close();
    child_closed_ = true;
    if (env_.config->inject_failure_in_sort) {
      return Status::Internal(
          "injected engine fault: sort failed after drain");
    }
    RSTLAB_RETURN_IF_ERROR(
        sorting::ParallelSortFieldsOnTape(*scratch_, 0, env_.config->sort));
    env_.cost->CountSort();
    stmodel::Rewind(t);
    return Status::OK();
  }

  Result<TupleBatch> Next() override {
    TupleBatch batch;
    std::size_t bytes = 0;
    tape::Tape& t = scratch_->tape(0);
    while (batch.tuples.size() < env_.config->batch_size) {
      if (stmodel::AtEnd(t)) {
        batch.at_end = true;
        break;
      }
      std::string field = stmodel::ReadField(t);
      env_.cost->RaiseInternal(BufferBits(field.size()));
      if (dedup_ && previous_.has_value() && field == *previous_) continue;
      if (dedup_) previous_ = field;
      bytes += field.size() + 1;
      batch.tuples.push_back(std::move(field));
    }
    env_.cost->RaiseInternal(BufferBits(bytes));
    return batch;
  }

 protected:
  void CloseImpl() override {
    if (scratch_ != nullptr) {
      env_.cost->FoldScratch(scratch_->Report());
      scratch_.reset();
    }
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    CloseImpl();
    if (!child_closed_) child_->Close();
  }

 private:
  bool dedup_;
  bool child_closed_ = false;
  std::unique_ptr<stmodel::StContext> scratch_;
  std::optional<std::string> previous_;
};

// ---------------------------------------------------------------------
// Sorted-merge set operators (difference / intersection)

class MergeSetOp final : public BinaryOp {
 public:
  MergeSetOp(StreamOperatorPtr a, StreamOperatorPtr b, SetOpKind kind,
             OperatorEnv env)
      : BinaryOp(std::move(a), std::move(b), env),
        kind_(kind),
        pull_a_(a_.get()),
        pull_b_(b_.get()) {}

  Status Open() override {
    RSTLAB_RETURN_IF_ERROR(a_->Open());
    RSTLAB_RETURN_IF_ERROR(b_->Open());
    RSTLAB_RETURN_IF_ERROR(pull_a_.NextTuple(cur_a_));
    return pull_b_.NextTuple(cur_b_);
  }

  Result<TupleBatch> Next() override {
    TupleBatch batch;
    std::size_t bytes = 0;
    const bool difference = kind_ == SetOpKind::kDifference;
    while (batch.tuples.size() < env_.config->batch_size) {
      if (!cur_a_.has_value()) {
        batch.at_end = true;
        break;
      }
      // Collapse duplicate A-tuples (children are sorted, not
      // necessarily distinct) — the AdvanceDistinct walk.
      if (prev_a_.has_value() && *cur_a_ == *prev_a_) {
        RSTLAB_RETURN_IF_ERROR(pull_a_.NextTuple(cur_a_));
        continue;
      }
      while (cur_b_.has_value() && *cur_b_ < *cur_a_) {
        RSTLAB_RETURN_IF_ERROR(pull_b_.NextTuple(cur_b_));
      }
      const bool in_b = cur_b_.has_value() && *cur_b_ == *cur_a_;
      prev_a_ = *cur_a_;
      env_.cost->RaiseInternal(
          BufferBits(cur_a_->size() +
                     (cur_b_.has_value() ? cur_b_->size() : 0) + 2));
      if (in_b != difference) {
        bytes += cur_a_->size() + 1;
        batch.tuples.push_back(*std::move(cur_a_));
      }
      RSTLAB_RETURN_IF_ERROR(pull_a_.NextTuple(cur_a_));
    }
    env_.cost->RaiseInternal(BufferBits(bytes));
    return batch;
  }

 private:
  SetOpKind kind_;
  BatchedPull pull_a_;
  BatchedPull pull_b_;
  std::optional<std::string> cur_a_;
  std::optional<std::string> cur_b_;
  std::optional<std::string> prev_a_;
};

// ---------------------------------------------------------------------
// Merge join

/// The "k1,...;payload" prefix up to and including the ';' — compared
/// as a raw string, which is exactly the order the field sort put the
/// streams in, so grouping by equal prefix is grouping by equal key.
std::string_view KeyOf(const std::string& encoded) {
  const std::size_t semi = encoded.find(';');
  return std::string_view(encoded).substr(0, semi + 1);
}

std::string_view PayloadOf(const std::string& encoded) {
  const std::size_t semi = encoded.find(';');
  return std::string_view(encoded).substr(semi + 1);
}

class MergeJoinOp final : public BinaryOp {
 public:
  MergeJoinOp(StreamOperatorPtr a, StreamOperatorPtr b, OperatorEnv env)
      : BinaryOp(std::move(a), std::move(b), env),
        pull_a_(a_.get()),
        pull_b_(b_.get()) {}

  Status Open() override {
    RSTLAB_RETURN_IF_ERROR(a_->Open());
    RSTLAB_RETURN_IF_ERROR(b_->Open());
    RSTLAB_RETURN_IF_ERROR(pull_a_.NextTuple(cur_a_));
    return pull_b_.NextTuple(cur_b_);
  }

  Result<TupleBatch> Next() override {
    TupleBatch batch;
    std::size_t bytes = 0;
    while (batch.tuples.size() < env_.config->batch_size) {
      // Drain the pending A-tuple x B-group pairings first.
      if (group_pos_ < group_.size()) {
        std::string combined(PayloadOf(*cur_a_));
        combined += ',';
        combined += group_[group_pos_++];
        bytes += combined.size() + 1;
        batch.tuples.push_back(std::move(combined));
        continue;
      }
      if (group_pos_ >= group_.size() && !group_.empty()) {
        // Current A-tuple exhausted the group; advance A and re-pair if
        // it still matches the buffered key.
        RSTLAB_RETURN_IF_ERROR(pull_a_.NextTuple(cur_a_));
        if (cur_a_.has_value() && KeyOf(*cur_a_) == group_key_) {
          group_pos_ = 0;
          continue;
        }
        group_.clear();
        group_key_.clear();
        group_pos_ = 0;
        group_bytes_ = 0;
      }
      if (!cur_a_.has_value() || !cur_b_.has_value()) {
        batch.at_end = true;
        break;
      }
      const std::string_view key_a = KeyOf(*cur_a_);
      const std::string_view key_b = KeyOf(*cur_b_);
      if (key_a < key_b) {
        RSTLAB_RETURN_IF_ERROR(pull_a_.NextTuple(cur_a_));
        continue;
      }
      if (key_b < key_a) {
        RSTLAB_RETURN_IF_ERROR(pull_b_.NextTuple(cur_b_));
        continue;
      }
      // Equal keys: buffer the whole B-group in internal memory
      // (metered; bounded by the largest same-key cluster, 1 tuple when
      // keys are unique) and pair it with every matching A-tuple.
      group_key_ = std::string(key_b);
      group_.clear();
      group_bytes_ = 0;
      group_pos_ = 0;
      while (cur_b_.has_value() && KeyOf(*cur_b_) == group_key_) {
        group_.emplace_back(PayloadOf(*cur_b_));
        group_bytes_ += group_.back().size() + 1;
        env_.cost->RaiseInternal(BufferBits(group_bytes_));
        RSTLAB_RETURN_IF_ERROR(pull_b_.NextTuple(cur_b_));
      }
    }
    env_.cost->RaiseInternal(BufferBits(bytes));
    return batch;
  }

 private:
  BatchedPull pull_a_;
  BatchedPull pull_b_;
  std::optional<std::string> cur_a_;
  std::optional<std::string> cur_b_;
  std::string group_key_;
  std::vector<std::string> group_;
  std::size_t group_bytes_ = 0;
  std::size_t group_pos_ = 0;
};

// ---------------------------------------------------------------------
// Product

/// The Theorem 11 doubling construction, operator-shaped: drain A to
/// scratch tape 0 and B to tape 1, replicate B to |A| copies by
/// repeated doubling between tapes 1 and 2 (two append passes per
/// doubling, O(log |A|) passes), then pair tape 0 against the replicas
/// in one streaming pass.
class ProductOp final : public BinaryOp {
 public:
  using BinaryOp::BinaryOp;

  Status Open() override {
    RSTLAB_RETURN_IF_ERROR(a_->Open());
    RSTLAB_RETURN_IF_ERROR(b_->Open());
    scratch_ =
        std::make_unique<stmodel::StContext>(3, *env_.storage);
    RSTLAB_RETURN_IF_ERROR(Drain(*a_, scratch_->tape(0), a_count_));
    RSTLAB_RETURN_IF_ERROR(Drain(*b_, scratch_->tape(1), b_count_));
    a_->Close();
    b_->Close();
    children_closed_ = true;
    if (env_.config->inject_failure_in_sort) {
      return Status::Internal(
          "injected engine fault: product failed after drain");
    }
    if (a_count_ == 0 || b_count_ == 0) {
      done_ = true;
      return Status::OK();
    }
    Replicate();
    stmodel::Rewind(scratch_->tape(0));
    stmodel::Rewind(scratch_->tape(replica_tape_));
    return Status::OK();
  }

  Result<TupleBatch> Next() override {
    TupleBatch batch;
    std::size_t bytes = 0;
    tape::Tape& a = scratch_->tape(0);
    tape::Tape& replicas = scratch_->tape(replica_tape_);
    while (!done_ && batch.tuples.size() < env_.config->batch_size) {
      if (b_index_ == 0) {
        if (a_index_ >= a_count_) {
          done_ = true;
          break;
        }
        current_a_ = stmodel::ReadField(a);
        env_.cost->RaiseInternal(BufferBits(current_a_.size()));
      }
      std::string b_field = stmodel::ReadField(replicas);
      env_.cost->RaiseInternal(
          BufferBits(current_a_.size() + b_field.size() + 1));
      std::string combined = current_a_;
      combined += ',';
      combined += b_field;
      bytes += combined.size() + 1;
      batch.tuples.push_back(std::move(combined));
      if (++b_index_ >= b_count_) {
        b_index_ = 0;
        ++a_index_;
      }
    }
    if (done_) batch.at_end = true;
    env_.cost->RaiseInternal(BufferBits(bytes));
    return batch;
  }

 protected:
  void CloseImpl() override {
    if (scratch_ != nullptr) {
      env_.cost->FoldScratch(scratch_->Report());
      scratch_.reset();
    }
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    CloseImpl();
    if (!children_closed_) {
      a_->Close();
      b_->Close();
    }
  }

 private:
  Status Drain(StreamOperator& child, tape::Tape& t, std::size_t& count) {
    std::string chunk;
    std::size_t longest = 0;
    for (;;) {
      Result<TupleBatch> next = child.Next();
      if (!next.ok()) return next.status();
      TupleBatch batch = std::move(next).value();
      for (std::string& field : batch.tuples) {
        longest = std::max(longest, field.size());
        chunk += field;
        chunk += stmodel::kFieldSeparator;
        ++count;
        if (chunk.size() >= 4096) {
          t.WriteForward(chunk);
          chunk.clear();
        }
      }
      if (batch.at_end) break;
    }
    if (!chunk.empty()) t.WriteForward(chunk);
    env_.cost->RaiseInternal(BufferBits(longest + 1));
    stmodel::Rewind(t);
    return Status::OK();
  }

  /// Doubles the B-copies between tapes 1 and 2 until there are at
  /// least a_count_ of them; replica_tape_ ends as the tape holding
  /// them: O(log a_count_) passes, Theorem 11's doubling construction.
  void Replicate() {
    std::size_t copies = 1;
    std::size_t src = 1;
    std::size_t dst = 2;
    while (copies < a_count_) {
      tape::Tape& from = scratch_->tape(src);
      tape::Tape& to = scratch_->tape(dst);
      to.Seek(0);
      for (int pass = 0; pass < 2; ++pass) {
        stmodel::Rewind(from);
        for (std::size_t i = 0; i < copies * b_count_; ++i) {
          stmodel::CopyField(from, to);
        }
      }
      copies *= 2;
      std::swap(src, dst);
    }
    replica_tape_ = src;
  }

  std::unique_ptr<stmodel::StContext> scratch_;
  bool children_closed_ = false;
  bool done_ = false;
  std::size_t a_count_ = 0;
  std::size_t b_count_ = 0;
  std::size_t replica_tape_ = 1;
  std::size_t a_index_ = 0;
  std::size_t b_index_ = 0;
  std::string current_a_;
};

}  // namespace

StreamOperatorPtr MakeScan(const RelationSpool::Lane* lane,
                           OperatorEnv env) {
  return std::make_unique<ScanOp>(lane, env);
}

StreamOperatorPtr MakeFilter(StreamOperatorPtr child, std::size_t lhs,
                             bool rhs_is_column, std::size_t rhs_column,
                             std::string rhs_constant, OperatorEnv env) {
  return std::make_unique<FilterOp>(std::move(child), lhs, rhs_is_column,
                                    rhs_column, std::move(rhs_constant),
                                    env);
}

StreamOperatorPtr MakeProjectMap(StreamOperatorPtr child,
                                 std::vector<std::size_t> columns,
                                 OperatorEnv env) {
  return std::make_unique<ProjectMapOp>(std::move(child),
                                        std::move(columns), env);
}

StreamOperatorPtr MakeAppend(StreamOperatorPtr a, StreamOperatorPtr b,
                             OperatorEnv env) {
  return std::make_unique<AppendOp>(std::move(a), std::move(b), env);
}

StreamOperatorPtr MakeSort(StreamOperatorPtr child, bool dedup,
                           OperatorEnv env) {
  return std::make_unique<SortOp>(std::move(child), dedup, env);
}

StreamOperatorPtr MakeMergeSetOp(StreamOperatorPtr a, StreamOperatorPtr b,
                                 SetOpKind kind, OperatorEnv env) {
  return std::make_unique<MergeSetOp>(std::move(a), std::move(b), kind,
                                      env);
}

StreamOperatorPtr MakeKeyEncode(StreamOperatorPtr child,
                                std::vector<std::size_t> key_columns,
                                OperatorEnv env) {
  return std::make_unique<KeyEncodeOp>(std::move(child),
                                       std::move(key_columns), env);
}

StreamOperatorPtr MakeMergeJoin(StreamOperatorPtr a, StreamOperatorPtr b,
                                OperatorEnv env) {
  return std::make_unique<MergeJoinOp>(std::move(a), std::move(b), env);
}

StreamOperatorPtr MakeProduct(StreamOperatorPtr a, StreamOperatorPtr b,
                              OperatorEnv env) {
  return std::make_unique<ProductOp>(std::move(a), std::move(b), env);
}

}  // namespace rstlab::query::engine
