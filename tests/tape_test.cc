#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "extmem/io_stats.h"
#include "extmem/storage.h"
#include "obs/ring_sink.h"
#include "obs/trace.h"
#include "tape/resource_meter.h"
#include "tape/tape.h"

namespace rstlab::tape {
namespace {

/// A tape holding `content` in memory, or on the file backend with
/// 16-cell blocks, so short walks already cross blocks.
Tape MakeTape(bool file, std::string content) {
  if (!file) return Tape(std::move(content));
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kFile;
  options.block_size = 16;
  options.cache_blocks = 4;
  options.readahead_blocks = 2;
  options.dir = ::testing::TempDir();
  Result<std::unique_ptr<extmem::TapeStorage>> storage =
      extmem::CreateStorage(options);
  EXPECT_TRUE(storage.ok()) << storage.status();
  Tape t(std::move(storage).value());
  t.Reset(std::move(content));
  return t;
}

/// Expects two tapes to have been charged identically: head, direction,
/// reversals, cells used, block I/O and the whole trace-event stream.
void ExpectSameBill(const Tape& a, const obs::RingSink& a_events,
                    const Tape& b, const obs::RingSink& b_events) {
  EXPECT_EQ(a.head(), b.head());
  EXPECT_EQ(a.direction(), b.direction());
  EXPECT_EQ(a.reversals(), b.reversals());
  EXPECT_EQ(a.cells_used(), b.cells_used());
  const extmem::IoStats a_io = a.io_stats();
  const extmem::IoStats b_io = b.io_stats();
  EXPECT_EQ(a_io.block_reads, b_io.block_reads);
  EXPECT_EQ(a_io.block_writes, b_io.block_writes);
  EXPECT_EQ(a_io.cache_hits, b_io.cache_hits);
  EXPECT_EQ(a_io.cache_misses, b_io.cache_misses);
  EXPECT_EQ(a_io.readahead_blocks, b_io.readahead_blocks);
  EXPECT_EQ(a_io.readahead_hits, b_io.readahead_hits);
  EXPECT_EQ(a_io.evictions, b_io.evictions);
  const std::vector<obs::TraceEvent> x = a_events.Snapshot();
  const std::vector<obs::TraceEvent> y = b_events.Snapshot();
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(x[i].kind, y[i].kind);
    EXPECT_EQ(x[i].tape_id, y[i].tape_id);
    EXPECT_EQ(x[i].scan, y[i].scan);
    EXPECT_EQ(x[i].position, y[i].position);
    EXPECT_EQ(x[i].lo, y[i].lo);
    EXPECT_EQ(x[i].hi, y[i].hi);
    EXPECT_EQ(x[i].direction, y[i].direction);
  }
}

TEST(TapeTest, FreshTapeIsBlank) {
  Tape t;
  EXPECT_EQ(t.Read(), kBlank);
  EXPECT_EQ(t.head(), 0u);
  EXPECT_EQ(t.reversals(), 0u);
  EXPECT_EQ(t.direction(), Direction::kRight);
}

TEST(TapeTest, ReadsInitialContent) {
  Tape t("abc");
  EXPECT_EQ(t.Read(), 'a');
  t.MoveRight();
  EXPECT_EQ(t.Read(), 'b');
  t.MoveRight();
  EXPECT_EQ(t.Read(), 'c');
  t.MoveRight();
  EXPECT_EQ(t.Read(), kBlank);
}

TEST(TapeTest, WriteDoesNotMoveHead) {
  Tape t;
  t.Write('x');
  EXPECT_EQ(t.Read(), 'x');
  EXPECT_EQ(t.head(), 0u);
  EXPECT_EQ(t.reversals(), 0u);
}

TEST(TapeTest, ForwardScanCostsNoReversal) {
  Tape t("hello");
  for (int i = 0; i < 10; ++i) t.MoveRight();
  EXPECT_EQ(t.reversals(), 0u);
}

TEST(TapeTest, DirectionChangeCountsOnce) {
  Tape t("hello");
  t.MoveRight();
  t.MoveRight();
  t.MoveLeft();  // reversal 1
  t.MoveLeft();
  EXPECT_EQ(t.reversals(), 1u);
  t.MoveRight();  // reversal 2
  EXPECT_EQ(t.reversals(), 2u);
}

TEST(TapeTest, BlockedLeftMoveAtCellZeroChargesNothing) {
  // The tape is one-sided: at cell 0 a left move cannot happen, so it
  // must not flip the recorded direction or charge a reversal —
  // Definition 1 counts direction changes of the actual head
  // trajectory, and a blocked move has none.
  Tape t("ab");
  t.MoveLeft();
  EXPECT_EQ(t.reversals(), 0u);
  EXPECT_EQ(t.head(), 0u);
  EXPECT_EQ(t.direction(), Direction::kRight);
  // Repeated blocked moves stay free.
  t.MoveLeft();
  t.MoveLeft();
  EXPECT_EQ(t.reversals(), 0u);
  // Moving right afterwards continues the initial rightward scan: no
  // phantom right-reversal either.
  t.MoveRight();
  EXPECT_EQ(t.reversals(), 0u);
}

TEST(TapeTest, BlockedLeftMoveAfterRealReversalKeepsLeftDirection) {
  Tape t("abc");
  t.MoveRight();
  t.MoveLeft();  // real reversal at cell 1
  EXPECT_EQ(t.reversals(), 1u);
  EXPECT_EQ(t.head(), 0u);
  t.MoveLeft();  // blocked at cell 0: still facing left, no charge
  EXPECT_EQ(t.reversals(), 1u);
  EXPECT_EQ(t.direction(), Direction::kLeft);
  t.MoveRight();  // real reversal back to the right
  EXPECT_EQ(t.reversals(), 2u);
}

TEST(TapeTest, SeekZeroRoundTripCostsOneReversalPerTurn) {
  Tape t("0123456789");
  t.Seek(5);
  EXPECT_EQ(t.reversals(), 0u);
  t.Seek(0);  // backward scan: one reversal
  EXPECT_EQ(t.head(), 0u);
  EXPECT_EQ(t.reversals(), 1u);
  t.Seek(0);  // already there: a no-op, no phantom charge
  EXPECT_EQ(t.reversals(), 1u);
  t.Seek(5);  // forward again: second reversal
  EXPECT_EQ(t.reversals(), 2u);
  t.Seek(0);
  t.Seek(0);
  EXPECT_EQ(t.reversals(), 3u);
}

TEST(TapeTest, LeftEdgeChurnKeepsScanBoundExact) {
  // Regression for the phantom-reversal bug: left-edge churn used to
  // inflate r. A run that scans right then returns to cell 0 and pokes
  // the edge must bill exactly scan_bound = 2 (one reversal).
  Tape t("abcd");
  for (int i = 0; i < 4; ++i) t.MoveRight();
  t.Seek(0);
  t.MoveLeft();
  t.MoveLeft();
  ResourceReport report = MeasureTapes({&t}, 0);
  EXPECT_EQ(report.scan_bound, 2u);
  EXPECT_EQ(report.reversals_per_tape[0], 1u);
}

TEST(TapeTest, SeekCostsAtMostTwoReversals) {
  Tape t("0123456789");
  t.Seek(7);
  EXPECT_EQ(t.head(), 7u);
  EXPECT_EQ(t.reversals(), 0u);  // forward only
  t.Seek(2);
  EXPECT_EQ(t.head(), 2u);
  EXPECT_EQ(t.reversals(), 1u);
  t.Seek(5);
  EXPECT_EQ(t.reversals(), 2u);
}

TEST(TapeTest, SeekEmitsWhatSingleMovesEmit) {
  // Seek is one jump, but it must be charged as the single moves it
  // stands for: same turns (traced at the position the turn started
  // at), same growth past the content, same events.
  for (const bool file : {false, true}) {
    SCOPED_TRACE(file ? "file" : "mem");
    Tape jump = MakeTape(file, "0123456789abcdef0123456789");
    Tape step = MakeTape(file, "0123456789abcdef0123456789");
    obs::RingSink jump_events;
    obs::RingSink step_events;
    jump.AttachTrace(&jump_events, 0);
    step.AttachTrace(&step_events, 0);
    for (const std::size_t target : {37, 5, 5, 60, 0, 0, 3, 90, 89}) {
      jump.Seek(target);
      while (step.head() < target) step.MoveRight();
      while (step.head() > target) step.MoveLeft();
      EXPECT_EQ(jump.head(), target);
      EXPECT_EQ(jump.reversals(), step.reversals());
      EXPECT_EQ(jump.cells_used(), step.cells_used());
    }
    jump.FlushTrace();
    step.FlushTrace();
    EXPECT_EQ(jump.reversals(), 5u);
    EXPECT_EQ(jump.cells_used(), 91u);
    ExpectSameBill(jump, jump_events, step, step_events);
  }
}

TEST(TapeTest, MoveRightUntilStopsOnTheStopSymbolOrTheFirstBlank) {
  for (const bool file : {false, true}) {
    SCOPED_TRACE(file ? "file" : "mem");
    Tape t = MakeTape(file, "01#10_1#");
    std::string passed;
    EXPECT_EQ(t.MoveRightUntil('#', &passed), 2u);
    EXPECT_EQ(passed, "01");
    EXPECT_EQ(t.head(), 2u);
    t.MoveRight();
    // A blank inside the content stops the walk too.
    EXPECT_EQ(t.MoveRightUntil('#', &passed), 2u);
    EXPECT_EQ(passed, "0110");
    EXPECT_EQ(t.head(), 5u);
    EXPECT_EQ(t.Read(), kBlank);
    EXPECT_EQ(t.cells_used(), 8u);
    EXPECT_EQ(t.reversals(), 0u);

    // Past the content the head rests on the first blank: the tape
    // grows by that one cell, as under single moves, and not beyond.
    Tape u = MakeTape(file, "0011");
    EXPECT_EQ(u.MoveRightUntil('#', nullptr), 4u);
    EXPECT_EQ(u.head(), 4u);
    EXPECT_EQ(u.cells_used(), 5u);
    EXPECT_EQ(u.MoveRightUntil('#', nullptr), 0u);
    EXPECT_EQ(u.head(), 4u);
    EXPECT_EQ(u.cells_used(), 5u);
  }
}

TEST(TapeTest, ZeroCellWalkChargesNothing) {
  for (const bool file : {false, true}) {
    SCOPED_TRACE(file ? "file" : "mem");
    Tape t = MakeTape(file, "0#1");
    t.Seek(2);
    t.MoveLeft();  // on the '#', facing left
    obs::RingSink events;
    t.AttachTrace(&events, 0);
    std::string passed;
    EXPECT_EQ(t.MoveRightUntil('#', &passed), 0u);
    EXPECT_TRUE(passed.empty());
    EXPECT_EQ(t.head(), 1u);
    EXPECT_EQ(t.direction(), Direction::kLeft);
    EXPECT_EQ(t.reversals(), 1u);
    EXPECT_EQ(events.Snapshot().size(), 1u);  // AttachTrace's scan begin
  }
}

TEST(TapeTest, BulkWalkAcrossBlocksMatchesSingleMoves) {
  // 99 payload cells: on 16-cell blocks the walk crosses six block
  // boundaries, and must acquire the blocks a per-cell walk acquires,
  // in the same order and under the same readahead direction.
  std::string content;
  for (int i = 0; i < 100; ++i) content.push_back(i % 3 == 0 ? '1' : '0');
  content += '#';
  for (const bool file : {false, true}) {
    SCOPED_TRACE(file ? "file" : "mem");
    Tape bulk = MakeTape(file, content);
    Tape step = MakeTape(file, content);
    obs::RingSink bulk_events;
    obs::RingSink step_events;
    bulk.AttachTrace(&bulk_events, 0);
    step.AttachTrace(&step_events, 0);
    for (Tape* t : {&bulk, &step}) {
      t->Seek(40);
      t->Seek(1);  // facing left, so the walk's turn is traced as well
    }
    std::string passed;
    EXPECT_EQ(bulk.MoveRightUntil('#', &passed), 99u);
    while (step.Read() != '#' && step.Read() != kBlank) step.MoveRight();
    EXPECT_EQ(bulk.Read(), '#');
    bulk.FlushTrace();
    step.FlushTrace();
    ExpectSameBill(bulk, bulk_events, step, step_events);
    // Read back last: contents() goes through the block cache too.
    EXPECT_EQ(passed, bulk.contents().substr(1, 99));
  }
}

TEST(TapeTest, ResetClearsAccounting) {
  Tape t("abc");
  t.MoveRight();
  t.MoveLeft();
  t.Reset("xyz");
  EXPECT_EQ(t.reversals(), 0u);
  EXPECT_EQ(t.head(), 0u);
  EXPECT_EQ(t.Read(), 'x');
}

TEST(TapeTest, CellsUsedGrowsWithVisits) {
  Tape t;
  for (int i = 0; i < 5; ++i) t.MoveRight();
  EXPECT_GE(t.cells_used(), 5u);
}

TEST(ResourceMeterTest, AggregatesScanBound) {
  Tape a("xx");
  Tape b("yy");
  a.MoveRight();
  a.MoveLeft();   // 1 reversal
  b.MoveRight();
  b.MoveLeft();
  b.MoveRight();  // 2 reversals
  ResourceReport report = MeasureTapes({&a, &b}, 17);
  EXPECT_EQ(report.scan_bound, 1u + 1u + 2u);
  EXPECT_EQ(report.internal_space, 17u);
  EXPECT_EQ(report.num_external_tapes, 2u);
  ASSERT_EQ(report.reversals_per_tape.size(), 2u);
  EXPECT_EQ(report.reversals_per_tape[0], 1u);
  EXPECT_EQ(report.reversals_per_tape[1], 2u);
}

TEST(ResourceMeterTest, ComplianceChecks) {
  ResourceReport report;
  report.scan_bound = 4;
  report.internal_space = 100;
  report.num_external_tapes = 2;
  StBounds bounds{4, 100, 2};
  EXPECT_TRUE(Complies(report, bounds));
  bounds.max_scans = 3;
  EXPECT_FALSE(Complies(report, bounds));
  bounds.max_scans = 4;
  bounds.max_internal_space = 99;
  EXPECT_FALSE(Complies(report, bounds));
  bounds.max_internal_space = 100;
  bounds.max_external_tapes = 1;
  EXPECT_FALSE(Complies(report, bounds));
}

TEST(ResourceMeterTest, FirstViolationPinpointsScanBoundBreach) {
  // A traced tape run whose third reversal breaks max_scans = 3: the
  // checker must name the exact event — tape id, head position and
  // index in the stream — not just the final tally.
  obs::RingSink ring;
  Tape t("abcdef");
  t.AttachTrace(&ring, /*tape_id=*/0);
  for (int i = 0; i < 6; ++i) t.MoveRight();
  t.MoveLeft();   // reversal 1 at pos 6 -> scan_bound 2
  t.MoveLeft();
  t.MoveRight();  // reversal 2 at pos 4 -> scan_bound 3
  t.MoveRight();
  t.MoveLeft();   // reversal 3 at pos 6 -> scan_bound 4 > 3
  t.FlushTrace();

  const std::vector<obs::TraceEvent> events = ring.Snapshot();
  StBounds bounds{/*max_scans=*/3, /*max_internal_space=*/1024,
                  /*max_external_tapes=*/1};
  const auto violation = FirstViolation(events, bounds);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->quantity, "scan_bound");
  EXPECT_EQ(violation->measured, 4u);
  EXPECT_EQ(violation->bound, 3u);
  EXPECT_EQ(violation->tape_id, 0);
  EXPECT_EQ(violation->position, 6u);
  // The offending event is the third kReversal in the stream; check
  // the index points at exactly that event.
  ASSERT_LT(violation->event_index, events.size());
  EXPECT_EQ(events[violation->event_index].kind,
            obs::EventKind::kReversal);
  EXPECT_NE(violation->ToString().find("scan_bound 4 > 3"),
            std::string::npos);

  // The same stream complies once the bound matches the measured run.
  bounds.max_scans = 4;
  EXPECT_FALSE(FirstViolation(events, bounds).has_value());
}

TEST(ResourceMeterTest, FirstViolationSpotsArenaAndTapeBreaches) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent high_water;
  high_water.kind = obs::EventKind::kArenaHighWater;
  high_water.value = 200;
  events.push_back(high_water);
  const auto arena_violation =
      FirstViolation(events, StBounds{4, /*max_internal_space=*/100, 2});
  ASSERT_TRUE(arena_violation.has_value());
  EXPECT_EQ(arena_violation->quantity, "internal_space");
  EXPECT_EQ(arena_violation->measured, 200u);
  EXPECT_EQ(arena_violation->event_index, 0u);

  events.clear();
  for (std::int32_t tape = 0; tape < 3; ++tape) {
    obs::TraceEvent begin;
    begin.kind = obs::EventKind::kScanBegin;
    begin.tape_id = tape;
    events.push_back(begin);
  }
  const auto tape_violation =
      FirstViolation(events, StBounds{4, 100, /*max_external_tapes=*/2});
  ASSERT_TRUE(tape_violation.has_value());
  EXPECT_EQ(tape_violation->quantity, "external_tapes");
  EXPECT_EQ(tape_violation->measured, 3u);
  EXPECT_EQ(tape_violation->event_index, 2u);
}

TEST(ResourceMeterTest, ReportToStringMentionsEverything) {
  ResourceReport report;
  report.scan_bound = 3;
  report.internal_space = 12;
  report.num_external_tapes = 2;
  report.external_space = 99;
  const std::string s = report.ToString();
  EXPECT_NE(s.find("r=3"), std::string::npos);
  EXPECT_NE(s.find("s=12"), std::string::npos);
  EXPECT_NE(s.find("t=2"), std::string::npos);
  EXPECT_NE(s.find("ext=99"), std::string::npos);
}

}  // namespace
}  // namespace rstlab::tape
