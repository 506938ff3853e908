#include "sorting/deciders.h"

#include <optional>
#include <string>

#include "sorting/parallel_sort.h"
#include "stmodel/internal_arena.h"
#include "stmodel/tape_io.h"
#include "tape/tape.h"

namespace rstlab::sorting {

namespace {

/// Splits the 2m input fields of tape 0 onto tapes 1 (first half) and 2
/// (second half). Returns m. Two forward scans of the input.
Result<std::size_t> SplitHalves(stmodel::StContext& ctx) {
  tape::Tape& in = ctx.tape(0);
  stmodel::Rewind(in);
  const std::size_t total = stmodel::CountFields(in);
  if (total % 2 != 0) {
    return Status::InvalidArgument("instance must have 2m fields");
  }
  const std::size_t m = total / 2;
  stmodel::Rewind(in);
  for (std::size_t i = 0; i < m; ++i) stmodel::CopyField(in, ctx.tape(1));
  for (std::size_t i = 0; i < m; ++i) stmodel::CopyField(in, ctx.tape(2));
  return m;
}

/// Field-sequence equality of tapes `x` and `y` holding `m` fields each:
/// one parallel forward scan, no internal buffering.
bool SequencesEqual(stmodel::StContext& ctx, std::size_t x, std::size_t y,
                    std::size_t m) {
  tape::Tape& a = ctx.tape(x);
  tape::Tape& b = ctx.tape(y);
  a.Seek(0);
  b.Seek(0);
  for (std::size_t i = 0; i < m; ++i) {
    if (stmodel::CompareFields(a, b) != 0) return false;
  }
  return true;
}

/// Set-wise equality of two *sorted* field sequences: walks both tapes,
/// collapsing duplicates (one metered record buffer per tape).
bool SortedSetsEqual(stmodel::StContext& ctx, std::size_t x,
                     std::size_t y, std::size_t m) {
  ctx.tape(x).Seek(0);
  ctx.tape(y).Seek(0);
  stmodel::SortedFieldCursor a(ctx.tape(x), m, ctx.arena());
  stmodel::SortedFieldCursor b(ctx.tape(y), m, ctx.arena());
  while (!a.exhausted() && !b.exhausted()) {
    if (*a.value() != *b.value()) return false;
    a.AdvanceDistinct();
    b.AdvanceDistinct();
  }
  return a.exhausted() == b.exhausted();
}

}  // namespace

Result<bool> DecideOnTapes(problems::Problem problem,
                           stmodel::StContext& ctx, const SortConfig& sort) {
  if (ctx.num_tapes() < kDeciderTapes) {
    return Status::InvalidArgument("decider needs 5 external tapes");
  }
  Result<std::size_t> m_result = SplitHalves(ctx);
  if (!m_result.ok()) return m_result.status();
  const std::size_t m = m_result.value();
  if (m == 0) return true;

  switch (problem) {
    case problems::Problem::kCheckSort: {
      // Sort the first list; the instance is a "yes" iff the sorted
      // first list equals the second list verbatim.
      RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 1, sort));
      return SequencesEqual(ctx, 1, 2, m);
    }
    case problems::Problem::kMultisetEquality: {
      RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 1, sort));
      RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 2, sort));
      return SequencesEqual(ctx, 1, 2, m);
    }
    case problems::Problem::kSetEquality: {
      RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 1, sort));
      RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 2, sort));
      return SortedSetsEqual(ctx, 1, 2, m);
    }
  }
  return Status::Internal("unknown problem");
}

Result<bool> DecideDisjointOnTapes(stmodel::StContext& ctx,
                                   const SortConfig& sort) {
  if (ctx.num_tapes() < kDeciderTapes) {
    return Status::InvalidArgument("decider needs 5 external tapes");
  }
  Result<std::size_t> m_result = SplitHalves(ctx);
  if (!m_result.ok()) return m_result.status();
  const std::size_t m = m_result.value();
  if (m == 0) return true;
  RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 1, sort));
  RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 2, sort));

  // Merge scan over the sorted halves: disjoint iff no value coincides.
  ctx.tape(1).Seek(0);
  ctx.tape(2).Seek(0);
  stmodel::SortedFieldCursor a(ctx.tape(1), m, ctx.arena());
  stmodel::SortedFieldCursor b(ctx.tape(2), m, ctx.arena());
  while (!a.exhausted() && !b.exhausted()) {
    if (*a.value() == *b.value()) return false;  // common element found
    if (*a.value() < *b.value()) {
      a.Advance();
    } else {
      b.Advance();
    }
  }
  return true;
}

Status SortInputToTape(stmodel::StContext& ctx, const SortConfig& sort) {
  if (ctx.num_tapes() < kDeciderTapes) {
    return Status::InvalidArgument("sorter needs 5 external tapes");
  }
  tape::Tape& in = ctx.tape(0);
  stmodel::Rewind(in);
  while (!stmodel::AtEnd(in)) stmodel::CopyField(in, ctx.tape(1));
  return ParallelSortFieldsOnTape(ctx, 1, sort);
}

}  // namespace rstlab::sorting
