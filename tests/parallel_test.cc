#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/bench_recorder.h"
#include "parallel/seed_sequence.h"
#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"

namespace rstlab::parallel {
namespace {

// ---------------------------------------------------------------------
// SeedSequence
// ---------------------------------------------------------------------

TEST(SeedSequenceTest, SeedsAreDeterministicAndDistinct) {
  SeedSequence a(42);
  SeedSequence b(42);
  std::set<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(a.SeedForTrial(t), b.SeedForTrial(t));
    seen.insert(a.SeedForTrial(t));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in a short range
  SeedSequence other(43);
  EXPECT_NE(a.SeedForTrial(0), other.SeedForTrial(0));
}

TEST(SeedSequenceTest, RngForTrialReproducesStream) {
  SeedSequence seeds(7);
  Rng first = seeds.RngForTrial(5);
  Rng second = seeds.RngForTrial(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(first.Next64(), second.Next64());
}

/// The per-trial tally an experiment would accumulate: integer counters
/// plus a float sum (deliberately non-associative) and a running max.
struct ProbeTally {
  std::uint64_t count = 0;
  std::uint64_t max_draw = 0;
  double sum = 0.0;
  void Merge(const ProbeTally& o) {
    count += o.count;
    max_draw = std::max(max_draw, o.max_draw);
    sum += o.sum;
  }
};

ProbeTally RunProbe(std::size_t threads, std::uint64_t trials) {
  TrialRunner runner(threads);
  SeedSequence seeds(0xDECAF);
  return runner.RunSeeded<ProbeTally>(
      trials, seeds, [](std::uint64_t, Rng& rng, ProbeTally& tally) {
        const std::uint64_t draw = rng.UniformBelow(1 << 20);
        ++tally.count;
        tally.max_draw = std::max(tally.max_draw, draw);
        tally.sum += rng.UniformDouble();
      });
}

TEST(TrialRunnerTest, TalliesBitIdenticalAcrossThreadCounts) {
  const ProbeTally reference = RunProbe(1, 777);
  EXPECT_EQ(reference.count, 777u);
  for (std::size_t threads : {2u, 3u, 4u, 8u}) {
    const ProbeTally tally = RunProbe(threads, 777);
    EXPECT_EQ(tally.count, reference.count) << threads;
    EXPECT_EQ(tally.max_draw, reference.max_draw) << threads;
    // Bit-identical, not approximately equal: the chunk layout and
    // merge order are thread-count-independent by contract.
    EXPECT_EQ(tally.sum, reference.sum) << threads;
  }
}

TEST(TrialRunnerTest, CoversEveryTrialExactlyOnce) {
  TrialRunner runner(4);
  const std::uint64_t trials = 1000;
  struct IndexTally {
    std::vector<std::uint64_t> seen;
    void Merge(const IndexTally& o) {
      seen.insert(seen.end(), o.seen.begin(), o.seen.end());
    }
  };
  const IndexTally tally = runner.Run<IndexTally>(
      trials, [](std::uint64_t t, IndexTally& local) {
        local.seen.push_back(t);
      });
  // Chunk-ordered merge => the concatenation is exactly 0..trials-1.
  ASSERT_EQ(tally.seen.size(), trials);
  for (std::uint64_t t = 0; t < trials; ++t) EXPECT_EQ(tally.seen[t], t);
}

TEST(TrialRunnerTest, ZeroTrialsYieldsDefaultTally) {
  TrialRunner runner(3);
  const ProbeTally tally = runner.Run<ProbeTally>(
      0, [](std::uint64_t, ProbeTally&) { FAIL() << "body must not run"; });
  EXPECT_EQ(tally.count, 0u);
}

TEST(TrialRunnerTest, BodyExceptionPropagatesAndRunnerSurvives) {
  TrialRunner runner(2);
  EXPECT_THROW(runner.Run<ProbeTally>(100,
                                      [](std::uint64_t t, ProbeTally&) {
                                        if (t == 37) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
               std::runtime_error);
  // The pool is still usable after a failed map.
  const ProbeTally tally = runner.Run<ProbeTally>(
      10, [](std::uint64_t, ProbeTally& local) { ++local.count; });
  EXPECT_EQ(tally.count, 10u);
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::logic_error);
  // The error is cleared once reported; the pool keeps working.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, OneThreadPoolRunsTasksOnTheCaller) {
  for (const std::size_t threads : {0u, 1u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    std::vector<int> order;
    const std::thread::id caller = std::this_thread::get_id();
    pool.Submit([&] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(1);
    });
    // Each task has run by the time Submit returns.
    EXPECT_EQ(order, std::vector<int>{1});
    pool.Submit([] { throw std::logic_error("first"); });
    pool.Submit([] { throw std::runtime_error("second"); });
    pool.Submit([&] { order.push_back(4); });
    // Later tasks still ran; Wait() rethrows the first error, once.
    EXPECT_EQ(order, (std::vector<int>{1, 4}));
    EXPECT_THROW(pool.Wait(), std::logic_error);
    pool.Wait();
    EXPECT_EQ(pool.thread_count(), 1u);  // 0 clamps to 1
  }
}

// ---------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------

TEST(ResolveThreadCountTest, PrecedenceCliThenEnv) {
  ::setenv("RSTLAB_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(3), 3u);  // CLI wins
  EXPECT_EQ(ResolveThreadCount(0), 5u);  // env next
  ::setenv("RSTLAB_THREADS", "nonsense", 1);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // falls through to hardware
  ::unsetenv("RSTLAB_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

// ---------------------------------------------------------------------
// BenchRecorder
// ---------------------------------------------------------------------

TEST(BenchRecorderTest, FormatsEntryAsJsonLine) {
  TrialBenchEntry entry;
  entry.bench = "bench_x";
  entry.experiment = "E1.m=16";
  entry.threads = 4;
  entry.trials = 200;
  entry.wall_seconds = 0.5;
  entry.trials_per_sec = 400.0;
  entry.tally_checksum = 99;
  EXPECT_EQ(FormatTrialBenchEntry(entry),
            "{\"bench\":\"bench_x\",\"experiment\":\"E1.m=16\","
            "\"threads\":4,\"trials\":200,\"wall_seconds\":0.5,"
            "\"trials_per_sec\":400,\"tally_checksum\":99}");
}

TEST(BenchRecorderTest, ChecksumIsOrderSensitive) {
  EXPECT_NE(Checksum64({1, 2}), Checksum64({2, 1}));
  EXPECT_EQ(Checksum64({1, 2}), Checksum64({1, 2}));
  EXPECT_NE(Checksum64({}), Checksum64({0}));
}

/// Points RSTLAB_BENCH_JSON at a temp file for the test's lifetime.
class BenchRecorderFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "bench_recorder_test.json";
    std::remove(path_.c_str());
    ::setenv("RSTLAB_BENCH_JSON", path_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("RSTLAB_BENCH_JSON");
    std::remove(path_.c_str());
  }
  std::vector<std::string> ReadLines() const {
    std::ifstream in(path_);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }
  std::string path_;
};

TEST_F(BenchRecorderFileTest, MergePreservesOtherBinariesRowsByteForByte) {
  BenchRecorder first("bench_alpha", 2);
  first.Record("A1", 100, 0.25, 111);
  first.Record("A2", 200, 0.5, 222);
  ASSERT_TRUE(first.Write().ok());

  // Capture bench_alpha's rows exactly as written.
  std::vector<std::string> alpha_rows;
  for (const std::string& line : ReadLines()) {
    if (line.find("\"bench\":\"bench_alpha\"") != std::string::npos) {
      std::string row = line;
      if (!row.empty() && row.back() == ',') row.pop_back();
      alpha_rows.push_back(row);
    }
  }
  ASSERT_EQ(alpha_rows.size(), 2u);

  // A second binary merging in (twice, to exercise self-replacement)
  // must keep bench_alpha's rows byte-for-byte.
  BenchRecorder second("bench_beta", 4);
  second.Record("B1", 50, 0.1, 333);
  ASSERT_TRUE(second.Write().ok());
  ASSERT_TRUE(second.Write().ok());

  std::vector<std::string> alpha_after;
  std::size_t beta_count = 0;
  for (const std::string& line : ReadLines()) {
    std::string row = line;
    if (!row.empty() && row.back() == ',') row.pop_back();
    if (row.find("\"bench\":\"bench_alpha\"") != std::string::npos) {
      alpha_after.push_back(row);
    }
    if (row.find("\"bench\":\"bench_beta\"") != std::string::npos) {
      ++beta_count;
    }
  }
  EXPECT_EQ(alpha_after, alpha_rows);
  EXPECT_EQ(beta_count, 1u);  // replaced, not duplicated

  // The snapshot stays a well-formed array: bracket lines plus rows.
  const std::vector<std::string> lines = ReadLines();
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
}

TEST_F(BenchRecorderFileTest, WriteIsAtomicNoTempFileSurvives) {
  BenchRecorder recorder("bench_gamma", 1);
  recorder.Record("G1", 10, 0.01, 444);
  auto written = recorder.Write();
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), path_);
  // The temp staging file must be gone after a successful rename.
  const std::string tmp_prefix = path_ + ".tmp.";
  const std::string tmp_path =
      tmp_prefix + std::to_string(static_cast<long>(::getpid()));
  std::ifstream tmp(tmp_path);
  EXPECT_FALSE(tmp.good());
  // And the target parses as one row per line between brackets.
  const std::vector<std::string> lines = ReadLines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1],
            FormatTrialBenchEntry(recorder.entries()[0]));
}

TEST_F(BenchRecorderFileTest, WritesNoFileWithoutTheVariable) {
  const bool default_existed = std::ifstream("BENCH_trials.json").good();
  for (const bool set_empty : {false, true}) {
    if (set_empty) {
      ::setenv("RSTLAB_BENCH_JSON", "", 1);
    } else {
      ::unsetenv("RSTLAB_BENCH_JSON");
    }
    BenchRecorder recorder("bench_epsilon", 1);
    recorder.Record("E1", 1, 0.001, 666);
    const Result<std::string> written = recorder.Write();
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(written.status().message().find("RSTLAB_BENCH_JSON"),
              std::string::npos);
  }
  // Neither the fixture's path nor the old working-directory default
  // was created.
  EXPECT_FALSE(std::ifstream(path_).good());
  EXPECT_EQ(std::ifstream("BENCH_trials.json").good(), default_existed);
}

TEST_F(BenchRecorderFileTest, WriteFailsCleanlyOnUnwritableDirectory) {
  ::setenv("RSTLAB_BENCH_JSON", "/nonexistent-dir/bench.json", 1);
  BenchRecorder recorder("bench_delta", 1);
  recorder.Record("D1", 1, 0.001, 555);
  EXPECT_FALSE(recorder.Write().ok());
}

}  // namespace
}  // namespace rstlab::parallel
