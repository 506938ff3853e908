#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.h"
#include "obs/flags.h"
#include "obs/jsonl_sink.h"
#include "obs/metrics.h"
#include "obs/ring_sink.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "parallel/trial_runner.h"
#include "problems/generators.h"
#include "stmodel/st_context.h"
#include "tape/resource_meter.h"
#include "tape/tape.h"
#include "util/random.h"

namespace rstlab::obs {
namespace {

using rstlab::tape::Direction;
using rstlab::tape::StBounds;
using rstlab::tape::Tape;

std::vector<TraceEvent> EventsOfKind(const std::vector<TraceEvent>& events,
                                     EventKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

/// Order-sensitive fold of the fields every event carries, so two
/// event streams compare equal iff they are field-for-field identical.
std::uint64_t HashEvents(const std::vector<TraceEvent>& events) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](std::uint64_t v) {
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  };
  for (const TraceEvent& e : events) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tape_id)));
    mix(e.trial);
    mix(e.scan);
    mix(e.position);
    mix(e.lo);
    mix(e.hi);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.direction)));
    mix(e.value);
  }
  return h;
}

// ---------------------------------------------------------------------
// RingSink
// ---------------------------------------------------------------------

TEST(RingSinkTest, KeepsMostRecentEventsOldestFirst) {
  RingSink ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.OnEvent(MakeTrialEvent(EventKind::kTrialBegin, i));
  }
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trial, 2u);
  EXPECT_EQ(events[1].trial, 3u);
  EXPECT_EQ(events[2].trial, 4u);
  ring.Clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

// ---------------------------------------------------------------------
// Tape emission: the known 2-scan fingerprint run
// ---------------------------------------------------------------------

TEST(TraceTest, FingerprintRunEmitsExactlyTwoScans) {
  Rng rng(7);
  problems::Instance inst = problems::EqualMultisets(4, 8, rng);
  const std::string encoded = inst.Encode();
  const std::uint64_t n = encoded.size();

  stmodel::StContext ctx(1);
  ctx.LoadInput(encoded);
  RingSink ring;
  ctx.AttachTrace(&ring);
  auto outcome = fingerprint::TestMultisetEqualityOnTapes(ctx, rng);
  ASSERT_TRUE(outcome.ok());
  ctx.FlushTrace();

  const std::vector<TraceEvent> events = ring.Snapshot();

  // Theorem 8(a): exactly one reversal — at the right end of the input,
  // where the backward scan starts.
  const auto reversals = EventsOfKind(events, EventKind::kReversal);
  ASSERT_EQ(reversals.size(), 1u);
  EXPECT_EQ(reversals[0].tape_id, 0);
  EXPECT_EQ(reversals[0].position, n);
  EXPECT_EQ(reversals[0].direction, -1);

  // Two scan segments, with full-input envelopes: 0 -> n then n -> 0.
  const auto ends = EventsOfKind(events, EventKind::kScanEnd);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0].scan, 0u);
  EXPECT_EQ(ends[0].position, n);
  EXPECT_EQ(ends[0].lo, 0u);
  EXPECT_EQ(ends[0].hi, n);
  EXPECT_EQ(ends[0].direction, +1);
  EXPECT_EQ(ends[1].scan, 1u);
  EXPECT_EQ(ends[1].position, 0u);
  EXPECT_EQ(ends[1].lo, 0u);
  EXPECT_EQ(ends[1].hi, n);
  EXPECT_EQ(ends[1].direction, -1);

  // The trace agrees with the aggregate report: scan_bound = 1 + #rev.
  EXPECT_EQ(ctx.Report().scan_bound, 1u + reversals.size());

  // The arena trace reaches the measured high-water mark.
  const auto arena = EventsOfKind(events, EventKind::kArenaHighWater);
  ASSERT_FALSE(arena.empty());
  EXPECT_EQ(arena.back().value, ctx.Report().internal_space);

  // Event-level compliance: the run fits co-RST(2, O(log N), 1) ...
  EXPECT_FALSE(
      FirstViolation(events, StBounds{2, 4096, 1}).has_value());
  // ... and a checker with max_scans = 1 pinpoints the reversal.
  const auto violation = FirstViolation(events, StBounds{1, 4096, 1});
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->quantity, "scan_bound");
  EXPECT_EQ(violation->tape_id, 0);
  EXPECT_EQ(violation->position, n);
  EXPECT_EQ(events[violation->event_index].kind, EventKind::kReversal);
}

// ---------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------

TEST(TraceTest, PerTrialEventStreamsAreThreadCountInvariant) {
  struct StreamTally {
    std::map<std::uint64_t, std::uint64_t> hash_by_trial;
    void Merge(const StreamTally& o) {
      hash_by_trial.insert(o.hash_by_trial.begin(),
                           o.hash_by_trial.end());
    }
  };
  const std::uint64_t trials = 12;
  const parallel::SeedSequence seeds(2026);
  auto run_at = [&](std::size_t threads) {
    parallel::TrialRunner runner(threads);
    return runner.RunSeeded<StreamTally>(
        trials, seeds,
        [](std::uint64_t trial, Rng& rng, StreamTally& tally) {
          problems::Instance inst =
              trial % 2 == 0 ? problems::EqualMultisets(4, 8, rng)
                             : problems::PerturbedMultisets(4, 8, 1, rng);
          stmodel::StContext ctx(1);
          ctx.LoadInput(inst.Encode());
          RingSink ring;
          ctx.AttachTrace(&ring);
          auto outcome =
              fingerprint::TestMultisetEqualityOnTapes(ctx, rng);
          ASSERT_TRUE(outcome.ok());
          ctx.FlushTrace();
          tally.hash_by_trial[trial] = HashEvents(ring.Snapshot());
        });
  };
  const StreamTally one = run_at(1);
  const StreamTally four = run_at(4);
  ASSERT_EQ(one.hash_by_trial.size(), trials);
  EXPECT_EQ(one.hash_by_trial, four.hash_by_trial);
}

TEST(TraceTest, TrialRunnerEmitsOneBeginEndPairPerTrial) {
  RingSink ring(1024);
  parallel::TrialRunner runner(3);
  runner.set_trace(&ring);
  struct CountTally {
    std::uint64_t count = 0;
    void Merge(const CountTally& o) { count += o.count; }
  };
  const CountTally tally = runner.Run<CountTally>(
      10, [](std::uint64_t, CountTally& local) { ++local.count; });
  EXPECT_EQ(tally.count, 10u);
  const auto events = ring.Snapshot();
  const auto begins = EventsOfKind(events, EventKind::kTrialBegin);
  const auto ends = EventsOfKind(events, EventKind::kTrialEnd);
  ASSERT_EQ(begins.size(), 10u);
  ASSERT_EQ(ends.size(), 10u);
  std::map<std::uint64_t, int> seen;
  for (const TraceEvent& e : begins) seen[e.trial] += 1;
  for (const TraceEvent& e : ends) seen[e.trial] += 1;
  EXPECT_EQ(seen.size(), 10u);
  for (const auto& [trial, count] : seen) {
    EXPECT_LT(trial, 10u);
    EXPECT_EQ(count, 2);
  }
}

// ---------------------------------------------------------------------
// JSON-lines exporter
// ---------------------------------------------------------------------

TEST(JsonlSinkTest, FormatsEventsOnePerLine) {
  TraceEvent event;
  event.kind = EventKind::kScanEnd;
  event.tape_id = 2;
  event.trial = 5;
  event.scan = 1;
  event.position = 3;
  event.lo = 3;
  event.hi = 9;
  event.direction = -1;
  EXPECT_EQ(FormatEventJson(event),
            "{\"ev\":\"scan_end\",\"tape\":2,\"trial\":5,\"scan\":1,"
            "\"pos\":3,\"lo\":3,\"hi\":9,\"dir\":-1,\"value\":0}");

  TraceEvent labelled = MakeRunEvent(EventKind::kRunBegin, 0, "a\"b");
  EXPECT_EQ(FormatEventJson(labelled),
            "{\"ev\":\"run_begin\",\"tape\":-1,\"trial\":0,\"scan\":0,"
            "\"pos\":0,\"dir\":1,\"value\":0,\"label\":\"a\\\"b\"}");

  const std::string path = ::testing::TempDir() + "obs_jsonl_test.jsonl";
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.OnEvent(event);
    sink.OnEvent(labelled);
    sink.Flush();
    EXPECT_EQ(sink.lines(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], FormatEventJson(event));
  EXPECT_EQ(lines[1], FormatEventJson(labelled));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Timeline renderer
// ---------------------------------------------------------------------

TEST(TimelineTest, RendersPerTapeSegments) {
  RingSink ring;
  Tape t("0123456789");
  t.AttachTrace(&ring, 0);
  for (int i = 0; i < 10; ++i) t.MoveRight();
  t.Seek(4);
  t.FlushTrace();
  const std::string rendered = RenderScanTimeline(ring.Snapshot());
  EXPECT_NE(rendered.find("tape 0: scans=2 reversals=1 span=[0,10]"),
            std::string::npos);
  EXPECT_NE(rendered.find("scan 0 -> 0..10"), std::string::npos);
  EXPECT_NE(rendered.find("scan 1 <- 10..4"), std::string::npos);
  EXPECT_EQ(rendered.find("(open)"), std::string::npos);
}

TEST(TimelineTest, MarksUnflushedSegmentsOpen) {
  RingSink ring;
  Tape t("ab");
  t.AttachTrace(&ring, 0);
  t.MoveRight();
  // No FlushTrace: the lone rightward segment never saw its kScanEnd.
  const std::string rendered = RenderScanTimeline(ring.Snapshot());
  EXPECT_NE(rendered.find("(open)"), std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(MetricsTest, RegistryCountsAndRenders) {
  MetricsRegistry registry;
  registry.Add("b.count");
  registry.Add("b.count", 4);
  registry.Add("a.count", 2);
  registry.SetGauge("z.gauge", 1.5);
  EXPECT_EQ(registry.counter("b.count"), 5u);
  EXPECT_EQ(registry.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("z.gauge"), 1.5);
  EXPECT_EQ(registry.ToJsonObject(),
            "{\"a.count\":2,\"b.count\":5,\"z.gauge\":1.5}");
  std::ostringstream os;
  registry.Print(os);
  EXPECT_NE(os.str().find("a.count = 2"), std::string::npos);
}

TEST(MetricsTest, CountingSinkTalliesKindsAndForwards) {
  MetricsRegistry registry;
  RingSink inner;
  CountingSink counting(registry, &inner);
  counting.OnEvent(MakeTrialEvent(EventKind::kTrialBegin, 0));
  counting.OnEvent(MakeTrialEvent(EventKind::kTrialEnd, 0));
  TraceEvent high_water;
  high_water.kind = EventKind::kArenaHighWater;
  high_water.value = 77;
  counting.OnEvent(high_water);
  EXPECT_EQ(registry.counter("trace.events"), 3u);
  EXPECT_EQ(registry.counter("trace.trial_begin"), 1u);
  EXPECT_EQ(registry.counter("trace.trial_end"), 1u);
  EXPECT_EQ(registry.counter("trace.arena_high_water"), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("arena.high_water_bits"), 77.0);
  EXPECT_EQ(inner.total(), 3u);
}

// ---------------------------------------------------------------------
// TeeSink and flag parsing
// ---------------------------------------------------------------------

TEST(TraceTest, TeeSinkForwardsToBoth) {
  RingSink a;
  RingSink b;
  TeeSink tee(&a, &b);
  tee.OnEvent(MakeTrialEvent(EventKind::kTrialBegin, 3));
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(b.total(), 1u);
  TeeSink half(nullptr, &b);
  half.OnEvent(MakeTrialEvent(EventKind::kTrialEnd, 3));
  EXPECT_EQ(b.total(), 2u);
}

TEST(FlagsTest, ObsSessionWithoutFlagsIsNullSink) {
  ObsSession session(ObsOptions{}, "bench_test");
  EXPECT_EQ(session.sink(), nullptr);
  EXPECT_EQ(session.metrics(), nullptr);
  std::ostringstream os;
  session.Finish(os);
}

TEST(FlagsTest, ObsSessionWiresMetricsOverTrace) {
  ObsOptions options;
  options.trace_path = ::testing::TempDir() + "obs_session_test.jsonl";
  options.metrics = true;
  std::ostringstream os;
  {
    ObsSession session(options, "bench_test");
    ASSERT_NE(session.sink(), nullptr);
    ASSERT_NE(session.metrics(), nullptr);
    session.sink()->OnEvent(MakeTrialEvent(EventKind::kTrialBegin, 0));
    session.Finish(os);
    // run_begin + trial_begin + run_end all counted and exported.
    EXPECT_EQ(session.metrics()->counter("trace.events"), 3u);
  }
  EXPECT_NE(os.str().find("metrics (bench_test):"), std::string::npos);
  std::ifstream in(options.trace_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(options.trace_path.c_str());
}

}  // namespace
}  // namespace rstlab::obs
