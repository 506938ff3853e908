#include "stmodel/tape_io.h"

#include <algorithm>

namespace rstlab::stmodel {

namespace {

/// Steps over the separator the head rests on, if any — the last move
/// of every field walk.
void PassSeparator(tape::Tape& t) {
  if (t.Read() == kFieldSeparator) t.MoveRight();
}

/// ReadField into a caller buffer, so walks that read field after field
/// reuse one allocation.
void ReadFieldInto(tape::Tape& t, std::string& out) {
  out.clear();
  t.MoveRightUntil(kFieldSeparator, &out);
  PassSeparator(t);
}

}  // namespace

void Rewind(tape::Tape& t) { t.Seek(0); }

bool AtEnd(const tape::Tape& t) { return t.Read() == tape::kBlank; }

std::size_t SkipField(tape::Tape& t) {
  const std::size_t skipped = t.MoveRightUntil(kFieldSeparator, nullptr);
  PassSeparator(t);
  return skipped;
}

std::string ReadField(tape::Tape& t) {
  std::string out;
  ReadFieldInto(t, out);
  return out;
}

void CopyField(tape::Tape& src, tape::Tape& dst) {
  // The first payload cell moves per cell, so the two heads turn in the
  // per-cell walk's order (the destination first) and a traced run's
  // event stream keeps its order. After that both heads face right and
  // the rest of the payload moves as one piece.
  const char first = src.Read();
  if (first != kFieldSeparator && first != tape::kBlank) {
    dst.Write(first);
    dst.MoveRight();
    src.MoveRight();
    std::string rest;
    src.MoveRightUntil(kFieldSeparator, &rest);
    dst.WriteForward(rest);
  }
  if (src.Read() == kFieldSeparator) {
    dst.Write(kFieldSeparator);
    dst.MoveRight();
    src.MoveRight();
  }
}

int CompareFields(tape::Tape& a, tape::Tape& b) {
  // Both fields are consumed whatever the verdict, `a`'s before `b`'s:
  // in the per-cell lockstep `a` moves first, so a traced run's events
  // keep their order.
  thread_local std::string field_a;
  thread_local std::string field_b;
  field_a.clear();
  field_b.clear();
  a.MoveRightUntil(kFieldSeparator, &field_a);
  b.MoveRightUntil(kFieldSeparator, &field_b);
  PassSeparator(a);
  PassSeparator(b);
  const auto [ia, ib] = std::mismatch(field_a.begin(), field_a.end(),
                                      field_b.begin(), field_b.end());
  // A proper prefix compares less; cells compare as `char`.
  if (ia == field_a.end()) return ib == field_b.end() ? 0 : -1;
  if (ib == field_b.end()) return 1;
  return *ia < *ib ? -1 : 1;
}

std::size_t CountFields(tape::Tape& t) {
  std::size_t fields = 0;
  while (!AtEnd(t)) {
    SkipField(t);
    ++fields;
  }
  return fields;
}

SortedFieldCursor::SortedFieldCursor(tape::Tape& t, std::size_t count,
                                     InternalArena& arena)
    : tape_(t), remaining_(count), buffer_bits_(arena.Allocate(0)) {
  Load();
}

void SortedFieldCursor::Load() {
  if (remaining_ == 0) {
    value_.reset();
    return;
  }
  --remaining_;
  if (!value_.has_value()) value_.emplace();
  ReadFieldInto(tape_, *value_);
  longest_ = std::max(longest_, value_->size());
  buffer_bits_.Resize(8 * longest_);
}

void SortedFieldCursor::Advance() { Load(); }

void SortedFieldCursor::AdvanceDistinct() {
  if (!value_.has_value()) return;
  previous_.swap(*value_);
  do {
    Load();
  } while (value_.has_value() && *value_ == previous_);
}

}  // namespace rstlab::stmodel
