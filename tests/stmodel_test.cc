#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/ring_sink.h"
#include "obs/trace.h"
#include "stmodel/internal_arena.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"

namespace rstlab::stmodel {
namespace {

// ---------------------------------------------------------------------
// InternalArena
// ---------------------------------------------------------------------

TEST(InternalArenaTest, TracksHighWater) {
  InternalArena arena;
  {
    auto a = arena.Allocate(10);
    EXPECT_EQ(arena.current_bits(), 10u);
    {
      auto b = arena.Allocate(20);
      EXPECT_EQ(arena.current_bits(), 30u);
      EXPECT_EQ(arena.high_water_bits(), 30u);
    }
    EXPECT_EQ(arena.current_bits(), 10u);
  }
  EXPECT_EQ(arena.current_bits(), 0u);
  EXPECT_EQ(arena.high_water_bits(), 30u);
}

TEST(InternalArenaTest, ResizeAdjustsBoth) {
  InternalArena arena;
  auto a = arena.Allocate(8);
  a.Resize(40);
  EXPECT_EQ(arena.current_bits(), 40u);
  a.Resize(4);
  EXPECT_EQ(arena.current_bits(), 4u);
  EXPECT_EQ(arena.high_water_bits(), 40u);
}

TEST(InternalArenaTest, MoveTransfersOwnership) {
  InternalArena arena;
  auto a = arena.Allocate(16);
  InternalArena::Allocation b = std::move(a);
  EXPECT_EQ(b.bits(), 16u);
  EXPECT_EQ(arena.current_bits(), 16u);
  b.Release();
  EXPECT_EQ(arena.current_bits(), 0u);
}

TEST(InternalArenaTest, ResetClears) {
  InternalArena arena;
  auto a = arena.Allocate(5);
  a.Release();
  arena.Reset();
  EXPECT_EQ(arena.high_water_bits(), 0u);
}

TEST(BitsForTest, Values) {
  EXPECT_EQ(BitsFor(0), 1u);
  EXPECT_EQ(BitsFor(1), 1u);
  EXPECT_EQ(BitsFor(2), 2u);
  EXPECT_EQ(BitsFor(3), 2u);
  EXPECT_EQ(BitsFor(255), 8u);
  EXPECT_EQ(BitsFor(256), 9u);
}

TEST(MeteredUint64Test, LeasesDeclaredWidth) {
  InternalArena arena;
  {
    MeteredUint64 reg(arena, 12, 100);
    EXPECT_EQ(arena.current_bits(), 12u);
    EXPECT_EQ(reg.get(), 100u);
    reg = 4095;
    EXPECT_EQ(static_cast<std::uint64_t>(reg), 4095u);
  }
  EXPECT_EQ(arena.current_bits(), 0u);
}

// ---------------------------------------------------------------------
// StContext
// ---------------------------------------------------------------------

TEST(StContextTest, LoadInputResetsEverything) {
  StContext ctx(3);
  ctx.LoadInput("0101#");
  EXPECT_EQ(ctx.input_size(), 5u);
  EXPECT_EQ(ctx.tape(0).Read(), '0');
  ctx.tape(1).Write('z');
  auto alloc = ctx.arena().Allocate(9);
  alloc.Release();
  ctx.LoadInput("11#");
  EXPECT_EQ(ctx.input_size(), 3u);
  EXPECT_EQ(ctx.arena().high_water_bits(), 0u);
  EXPECT_EQ(ctx.tape(1).Read(), tape::kBlank);
}

TEST(StContextTest, ReportAggregates) {
  StContext ctx(2);
  ctx.LoadInput("abc");
  ctx.tape(0).MoveRight();
  ctx.tape(0).MoveLeft();
  auto alloc = ctx.arena().Allocate(33);
  tape::ResourceReport report = ctx.Report();
  EXPECT_EQ(report.scan_bound, 2u);
  EXPECT_EQ(report.internal_space, 33u);
  EXPECT_EQ(report.num_external_tapes, 2u);
}

// ---------------------------------------------------------------------
// tape_io
// ---------------------------------------------------------------------

TEST(TapeIoTest, WriteAndRewind) {
  tape::Tape t;
  for (const char c : std::string("0101#")) {
    t.Write(c);
    t.MoveRight();
  }
  Rewind(t);
  EXPECT_EQ(t.Read(), '0');
  EXPECT_EQ(t.reversals(), 1u);
}

TEST(TapeIoTest, SkipFieldReturnsLength) {
  tape::Tape t("0101#11#");
  EXPECT_EQ(SkipField(t), 4u);
  EXPECT_EQ(t.Read(), '1');
  EXPECT_EQ(SkipField(t), 2u);
  EXPECT_TRUE(AtEnd(t));
}

TEST(TapeIoTest, ReadFieldConsumesSeparator) {
  tape::Tape t("0101#11#");
  EXPECT_EQ(ReadField(t), "0101");
  EXPECT_EQ(ReadField(t), "11");
  EXPECT_TRUE(AtEnd(t));
}

TEST(TapeIoTest, CopyFieldCopiesWithSeparator) {
  tape::Tape src("0101#11#");
  tape::Tape dst;
  CopyField(src, dst);
  Rewind(dst);
  EXPECT_EQ(ReadField(dst), "0101");
}

TEST(TapeIoTest, CountFields) {
  tape::Tape t("0#1#00#11#");
  EXPECT_EQ(CountFields(t), 4u);
  tape::Tape empty;
  EXPECT_EQ(CountFields(empty), 0u);
}

struct CompareCase {
  const char* a;
  const char* b;
  int expected;
};

class CompareFieldsTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(CompareFieldsTest, ComparesLexicographically) {
  tape::Tape a(std::string(GetParam().a) + "#rest#");
  tape::Tape b(std::string(GetParam().b) + "#rest#");
  EXPECT_EQ(CompareFields(a, b), GetParam().expected);
  // Both heads must have consumed exactly their first field.
  EXPECT_EQ(ReadField(a), "rest");
  EXPECT_EQ(ReadField(b), "rest");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompareFieldsTest,
    ::testing::Values(CompareCase{"0101", "0101", 0},
                      CompareCase{"0101", "0110", -1},
                      CompareCase{"0110", "0101", 1},
                      CompareCase{"01", "0101", -1},   // proper prefix
                      CompareCase{"0101", "01", 1},
                      CompareCase{"", "0", -1},
                      CompareCase{"", "", 0},
                      CompareCase{"1", "0", 1},
                      // Cells compare as `char`, as the per-cell walk
                      // compares them, whatever its signedness.
                      CompareCase{"\x80", "a", '\x80' < 'a' ? -1 : 1}));

TEST(TapeIoTest, CompareFieldsCostsNoReversals) {
  tape::Tape a("000111#");
  tape::Tape b("000110#");
  CompareFields(a, b);
  EXPECT_EQ(a.reversals(), 0u);
  EXPECT_EQ(b.reversals(), 0u);
}

// The per-cell walks the bulk primitives replace, on real tapes: one
// Read()/MoveRight() pair per cell, the two tapes moving in lockstep.
void PerCellCopyField(tape::Tape& src, tape::Tape& dst) {
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

void PerCellCompareFields(tape::Tape& a, tape::Tape& b) {
  while (true) {
    const bool ea = a.Read() == kFieldSeparator || a.Read() == tape::kBlank;
    const bool eb = b.Read() == kFieldSeparator || b.Read() == tape::kBlank;
    if (ea && eb) break;
    if (!ea) a.MoveRight();
    if (!eb) b.MoveRight();
  }
  if (a.Read() == kFieldSeparator) a.MoveRight();
  if (b.Read() == kFieldSeparator) b.MoveRight();
}

/// Two tapes traced into one sink (ids 0 and 1), each left facing left
/// at cell 0, so the next field walk turns both heads.
struct TracedPair {
  obs::RingSink events;
  tape::Tape tapes[2];

  TracedPair(std::string first, std::string second)
      : tapes{tape::Tape(std::move(first)), tape::Tape(std::move(second))} {
    for (int i = 0; i < 2; ++i) {
      tapes[i].Seek(2);
      tapes[i].Seek(0);
      tapes[i].AttachTrace(&events, i);
    }
  }

  std::vector<std::string> Stream() {
    for (tape::Tape& t : tapes) t.FlushTrace();
    std::vector<std::string> out;
    for (const obs::TraceEvent& e : events.Snapshot()) {
      out.push_back(std::string(obs::EventKindName(e.kind)) + " tape " +
                    std::to_string(e.tape_id) + " at " +
                    std::to_string(e.position) + " dir " +
                    std::to_string(e.direction) + " [" +
                    std::to_string(e.lo) + "," + std::to_string(e.hi) +
                    "]");
    }
    return out;
  }
};

TEST(TapeIoTest, FieldWalksKeepThePerCellEventOrderAcrossTapes) {
  // Per cell, a copy turns its destination before its source, and a
  // compare turns `a` first unless `a`'s field is empty (then `a` only
  // turns to pass its separator, after `b`'s walk). The bulk walks must
  // emit the same interleaved event stream into a shared sink.
  {
    TracedPair bulk("0110#1#", "");
    TracedPair step("0110#1#", "");
    CopyField(bulk.tapes[0], bulk.tapes[1]);
    PerCellCopyField(step.tapes[0], step.tapes[1]);
    EXPECT_EQ(bulk.Stream(), step.Stream());
  }
  for (const char* a : {"011#", "#"}) {
    SCOPED_TRACE(a);
    TracedPair bulk(a, "01#");
    TracedPair step(a, "01#");
    CompareFields(bulk.tapes[0], bulk.tapes[1]);
    PerCellCompareFields(step.tapes[0], step.tapes[1]);
    EXPECT_EQ(bulk.Stream(), step.Stream());
  }
}


TEST(SortedFieldCursorTest, WalksAndCollapsesDuplicates) {
  tape::Tape t("0#0#1#1#1#10#");
  InternalArena arena;
  SortedFieldCursor cursor(t, 6, arena);
  ASSERT_FALSE(cursor.exhausted());
  EXPECT_EQ(*cursor.value(), "0");
  cursor.AdvanceDistinct();
  EXPECT_EQ(*cursor.value(), "1");
  cursor.AdvanceDistinct();
  EXPECT_EQ(*cursor.value(), "10");
  cursor.AdvanceDistinct();
  EXPECT_TRUE(cursor.exhausted());
  // Arena metered the longest field.
  EXPECT_GE(arena.high_water_bits(), 16u);
}

TEST(SortedFieldCursorTest, AdvanceStepsEveryField) {
  tape::Tape t("0#0#1#");
  InternalArena arena;
  SortedFieldCursor cursor(t, 3, arena);
  std::size_t seen = 0;
  while (!cursor.exhausted()) {
    ++seen;
    cursor.Advance();
  }
  EXPECT_EQ(seen, 3u);
}

TEST(SortedFieldCursorTest, ZeroCountIsImmediatelyExhausted) {
  tape::Tape t("0#");
  InternalArena arena;
  SortedFieldCursor cursor(t, 0, arena);
  EXPECT_TRUE(cursor.exhausted());
  cursor.AdvanceDistinct();  // no-op, no crash
  EXPECT_TRUE(cursor.exhausted());
}

TEST(SortedFieldCursorTest, AdvanceDistinctSkipsLongDuplicateRuns) {
  // Three runs of duplicates of very different lengths; AdvanceDistinct
  // must land on each distinct value exactly once.
  std::string content;
  for (int i = 0; i < 17; ++i) content += "0#";
  for (int i = 0; i < 1; ++i) content += "01#";
  for (int i = 0; i < 9; ++i) content += "111#";
  tape::Tape t(content);
  InternalArena arena;
  SortedFieldCursor cursor(t, 27, arena);
  std::vector<std::string> distinct;
  while (!cursor.exhausted()) {
    distinct.push_back(*cursor.value());
    cursor.AdvanceDistinct();
  }
  EXPECT_EQ(distinct,
            (std::vector<std::string>{"0", "01", "111"}));
}

TEST(SortedFieldCursorTest, AdvanceDistinctExhaustsOnAllDuplicates) {
  tape::Tape t("10#10#10#10#10#");
  InternalArena arena;
  SortedFieldCursor cursor(t, 5, arena);
  EXPECT_EQ(*cursor.value(), "10");
  cursor.AdvanceDistinct();
  EXPECT_TRUE(cursor.exhausted());
  cursor.AdvanceDistinct();  // idempotent once exhausted
  EXPECT_TRUE(cursor.exhausted());
}

TEST(SortedFieldCursorTest, RespectsCountOverTapeContent) {
  tape::Tape t("0#1#garbage#");
  InternalArena arena;
  SortedFieldCursor cursor(t, 2, arena);
  EXPECT_EQ(*cursor.value(), "0");
  cursor.Advance();
  EXPECT_EQ(*cursor.value(), "1");
  cursor.Advance();
  EXPECT_TRUE(cursor.exhausted());  // never reads the garbage field
}

}  // namespace
}  // namespace rstlab::stmodel
