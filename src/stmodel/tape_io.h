#ifndef RSTLAB_STMODEL_TAPE_IO_H_
#define RSTLAB_STMODEL_TAPE_IO_H_

#include <cstddef>
#include <optional>
#include <string>

#include "stmodel/internal_arena.h"
#include "tape/tape.h"

namespace rstlab::stmodel {

/// The field separator of the paper's input encoding
/// v1#v2#...#vm#v'1#...#v'm#.
inline constexpr char kFieldSeparator = '#';

// The field walks below move their heads over a field's payload with
// `tape::Tape::MoveRightUntil`, a contiguous run of cells per storage
// call instead of a Read()/MoveRight() pair per cell. They bill exactly
// what that per-cell walk bills: the heads end on the same cells, with
// the same reversals, tape growth and trace events (in the same order
// across tapes), and the file backend acquires the same blocks.

/// Moves the head back to cell 0 (costs at most one direction change).
void Rewind(tape::Tape& t);

/// True iff the head is on a blank cell (end of used content when
/// scanning right).
bool AtEnd(const tape::Tape& t);

/// Skips the current '#'-terminated field, leaving the head on the cell
/// after the separator. Returns the number of payload characters skipped.
/// Requires the head to be at a field start.
std::size_t SkipField(tape::Tape& t);

/// Reads the current '#'-terminated field into a host string, leaving the
/// head after the separator. The caller is responsible for metering the
/// internal memory this buffering uses (8 bits per character).
std::string ReadField(tape::Tape& t);

/// Copies the current '#'-terminated field (separator included) from `src`
/// to `dst`, both heads moving right only.
void CopyField(tape::Tape& src, tape::Tape& dst);

/// Three-way lexicographic comparison of the current fields of `a` and
/// `b`, consuming both fields (heads end after the separators). A proper
/// prefix compares less. Only forward head movement is used, so the
/// comparison itself incurs no reversals.
int CompareFields(tape::Tape& a, tape::Tape& b);

/// Counts the '#'-terminated fields from the current head position to the
/// end of tape content, leaving the head at the first blank. One forward
/// scan.
std::size_t CountFields(tape::Tape& t);

/// Forward cursor over `count` '#'-terminated fields starting at the
/// tape's current head position, buffering one field at a time in
/// internal memory (metered against `arena` at 8 bits per character of
/// the longest field seen). The shared walk underneath every
/// sorted-merge decision procedure: sequence comparison, duplicate
/// collapsing, merge anti-joins.
class SortedFieldCursor {
 public:
  /// Positions the cursor on the first field (if any).
  SortedFieldCursor(tape::Tape& t, std::size_t count,
                    InternalArena& arena);

  /// The buffered field, or nullopt when exhausted.
  const std::optional<std::string>& value() const { return value_; }
  bool exhausted() const { return !value_.has_value(); }

  /// Moves to the next field (or exhaustion).
  void Advance();

  /// Moves to the next field whose content differs from the current
  /// one — the duplicate-collapsing walk over sorted fields.
  void AdvanceDistinct();

 private:
  void Load();

  tape::Tape& tape_;
  std::size_t remaining_;
  InternalArena::Allocation buffer_bits_;
  std::size_t longest_ = 0;
  std::optional<std::string> value_;
  std::string previous_;  // AdvanceDistinct's last value, in host memory
};

}  // namespace rstlab::stmodel

#endif  // RSTLAB_STMODEL_TAPE_IO_H_
