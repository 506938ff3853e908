#include "stmodel/tape_io.h"

#include <algorithm>

namespace rstlab::stmodel {

void Rewind(tape::Tape& t) { t.Seek(0); }

bool AtEnd(const tape::Tape& t) { return t.Read() == tape::kBlank; }

std::size_t SkipField(tape::Tape& t) {
  std::size_t skipped = 0;
  while (t.Read() != kFieldSeparator && t.Read() != tape::kBlank) {
    ++skipped;
    t.MoveRight();
  }
  if (t.Read() == kFieldSeparator) t.MoveRight();
  return skipped;
}

std::string ReadField(tape::Tape& t) {
  std::string out;
  while (t.Read() != kFieldSeparator && t.Read() != tape::kBlank) {
    out.push_back(t.Read());
    t.MoveRight();
  }
  if (t.Read() == kFieldSeparator) t.MoveRight();
  return out;
}

void CopyField(tape::Tape& src, tape::Tape& dst) {
  while (src.Read() != kFieldSeparator && src.Read() != tape::kBlank) {
    dst.Write(src.Read());
    dst.MoveRight();
    src.MoveRight();
  }
  if (src.Read() == kFieldSeparator) {
    dst.Write(kFieldSeparator);
    dst.MoveRight();
    src.MoveRight();
  }
}

int CompareFields(tape::Tape& a, tape::Tape& b) {
  int verdict = 0;
  bool decided = false;
  while (true) {
    const char ca = a.Read();
    const char cb = b.Read();
    const bool ea = (ca == kFieldSeparator || ca == tape::kBlank);
    const bool eb = (cb == kFieldSeparator || cb == tape::kBlank);
    if (ea && eb) break;
    if (!decided) {
      if (ea != eb) {
        verdict = ea ? -1 : 1;  // proper prefix compares less
        decided = true;
      } else if (ca != cb) {
        verdict = ca < cb ? -1 : 1;
        decided = true;
      }
    }
    if (!ea) a.MoveRight();
    if (!eb) b.MoveRight();
  }
  if (a.Read() == kFieldSeparator) a.MoveRight();
  if (b.Read() == kFieldSeparator) b.MoveRight();
  return verdict;
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
  value_ = ReadField(tape_);
  longest_ = std::max(longest_, value_->size());
  buffer_bits_.Resize(8 * longest_);
}

void SortedFieldCursor::Advance() { Load(); }

void SortedFieldCursor::AdvanceDistinct() {
  if (!value_.has_value()) return;
  const std::string previous = *value_;
  do {
    Load();
  } while (value_.has_value() && *value_ == previous);
}

}  // namespace rstlab::stmodel
