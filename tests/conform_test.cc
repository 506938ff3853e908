// The conformance harness's own test: corpus replay first (every
// counterexample the harness ever found stays a permanent regression
// test), then the harness machinery (replay triples, shrinker,
// determinism), then a randomized sweep of every differential suite.
// The sweep's case count is tunable via RSTLAB_TEST_CASES so sanitizer
// jobs can dial it down without editing code.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conform/case_id.h"
#include "conform/gen.h"
#include "conform/harness.h"
#include "conform/oracle.h"
#include "conform/shrink.h"
#include "util/random.h"

#ifndef RSTLAB_CORPUS_DIR
#define RSTLAB_CORPUS_DIR "tests/corpus"
#endif

namespace rstlab::conform {
namespace {

// ---------------------------------------------------------------------
// Corpus replay: runs before the random sweeps (gtest runs this file's
// tests in declaration order) so known-bad inputs are checked first.

TEST(ConformCorpus, EveryCheckedInCaseStillPasses) {
  Result<std::vector<CaseId>> corpus = LoadCorpusDir(RSTLAB_CORPUS_DIR);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_FALSE(corpus.value().empty())
      << "corpus at " << RSTLAB_CORPUS_DIR << " is empty or missing";
  for (const CaseId& id : corpus.value()) {
    Result<CaseOutcome> outcome = ReplayCase(id);
    ASSERT_TRUE(outcome.ok()) << id.ToString() << ": " << outcome.status();
    EXPECT_TRUE(outcome.value().passed)
        << id.ToString() << ": " << outcome.value().failure
        << "\ncounterexample: " << outcome.value().counterexample;
  }
}

TEST(ConformCorpus, LoaderSkipsCommentsAndRejectsGarbage) {
  Result<std::vector<CaseId>> corpus = LoadCorpusDir(RSTLAB_CORPUS_DIR);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  // Files sort lexicographically, so cross_model.case precedes
  // tape_backend.case and the first entry is its first triple.
  EXPECT_EQ(corpus.value().front(), (CaseId{"trial-tally", 1, 0}));
  // A missing directory is an empty corpus, not an error.
  Result<std::vector<CaseId>> missing = LoadCorpusDir("no/such/dir");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing.value().empty());
}

TEST(ConformCorpus, LoaderReportsFileAndLineOfMalformedTriples) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "rstlab_bad_corpus.case";
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "tape-backend:1:5\n"
        << "not a triple\n";
  }
  Result<std::vector<CaseId>> loaded = LoadCorpusFile(path.string());
  EXPECT_FALSE(loaded.ok());
  // The diagnostic names the offending file and line so a reviewer can
  // fix the corpus without bisecting it.
  EXPECT_NE(loaded.status().message().find(":3:"), std::string::npos)
      << loaded.status();
  std::remove(path.string().c_str());
  EXPECT_FALSE(LoadCorpusFile("no/such/file.case").ok());
}

// ---------------------------------------------------------------------
// Replay triples.

TEST(CaseIdTest, RoundTripsThroughToString) {
  const CaseId id{"tape-backend", 42, 17};
  EXPECT_EQ(id.ToString(), "tape-backend:42:17");
  Result<CaseId> parsed = CaseId::Parse(id.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), id);
}

TEST(CaseIdTest, ParseRejectsMalformedTriples) {
  for (const char* bad :
       {"", "tape-backend", "tape-backend:1", "tape-backend:1:2:3",
        "tape-backend:x:2", "tape-backend:1:y", ":1:2",
        "tape-backend:1:"}) {
    EXPECT_FALSE(CaseId::Parse(bad).ok()) << "accepted \"" << bad << "\"";
  }
}

TEST(CaseIdTest, SuiteNameDecorrelatesRngStreams) {
  // Two suites replaying the same (seed, index) must see independent
  // randomness, else a cross-suite failure pattern would be an artifact
  // of shared streams rather than two real bugs.
  const std::uint64_t a = CaseRngSeed(CaseId{"tape-backend", 1, 0});
  const std::uint64_t b = CaseRngSeed(CaseId{"trial-tally", 1, 0});
  EXPECT_NE(a, b);
  // And the seed is a pure function of the triple.
  EXPECT_EQ(a, CaseRngSeed(CaseId{"tape-backend", 1, 0}));
}

TEST(HarnessTest, ReplayUnknownSuiteIsNotFound) {
  EXPECT_FALSE(ReplayCase(CaseId{"no-such-suite", 1, 0}).ok());
}

// ---------------------------------------------------------------------
// Shrinker.

TEST(ShrinkTest, RemovalSpansCoverHalvesDownToSingles) {
  const auto spans = RemovalSpans(4);
  // Most aggressive first: remove 2-element halves, then singles.
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans.front().second, 2u);
  EXPECT_EQ(spans.back().second, 1u);
  // Every element is covered by some single-element span.
  std::vector<bool> covered(4, false);
  for (const auto& [begin, length] : spans) {
    if (length == 1) covered[begin] = true;
  }
  for (bool c : covered) EXPECT_TRUE(c);
  EXPECT_TRUE(RemovalSpans(0).empty());
}

TEST(ShrinkTest, GreedyShrinkFindsMinimalFailingSubsequence) {
  // "Fails" iff the sequence contains both a 7 and an 11. The unique
  // 1-minimal failing subsequences have exactly two elements.
  const std::function<bool(const std::vector<int>&)> still_fails =
      [](const std::vector<int>& v) {
        bool seven = false, eleven = false;
        for (int x : v) {
          seven |= x == 7;
          eleven |= x == 11;
        }
        return seven && eleven;
      };
  const std::function<std::vector<std::vector<int>>(
      const std::vector<int>&)>
      candidates = [](const std::vector<int>& v) {
        return SequenceRemovalCandidates(v);
      };
  std::vector<int> failing = {3, 7, 1, 4, 11, 5, 9, 2, 6};
  ShrinkStats stats;
  const std::vector<int> shrunk =
      GreedyShrink(std::move(failing), still_fails, candidates,
                   /*max_attempts=*/1000, &stats);
  EXPECT_EQ(shrunk, (std::vector<int>{7, 11}));
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_GT(stats.improvements, 0u);
  EXPECT_LE(stats.attempts, 1000u);
}

TEST(ShrinkTest, BudgetBoundsAttempts) {
  const std::function<bool(const std::vector<int>&)> always_fails =
      [](const std::vector<int>&) { return true; };
  const std::function<std::vector<std::vector<int>>(
      const std::vector<int>&)>
      candidates = [](const std::vector<int>& v) {
        // Never-shrinking candidates: the descent would loop forever
        // without the attempt budget.
        return std::vector<std::vector<int>>{v};
      };
  std::vector<int> value(8, 1);
  ShrinkStats stats;
  GreedyShrink(std::move(value), always_fails, candidates,
               /*max_attempts=*/25, &stats);
  EXPECT_EQ(stats.attempts, 25u);
}

// ---------------------------------------------------------------------
// Harness determinism and reporting.

TEST(HarnessTest, SuiteRunsAreByteIdenticalAcrossInvocations) {
  for (const Suite* suite : AllSuites()) {
    const SuiteReport first = RunSuite(*suite, /*seed=*/7, /*cases=*/5);
    const SuiteReport second = RunSuite(*suite, /*seed=*/7, /*cases=*/5);
    EXPECT_EQ(first.ToString(), second.ToString()) << suite->name();
  }
}

TEST(HarnessTest, EnvTestCasesFallsBackOnBadValues) {
  // The variable may be set by CI for the sweep below; stash and
  // restore it around the parsing checks.
  const char* saved = std::getenv("RSTLAB_TEST_CASES");
  const std::string stash = saved != nullptr ? saved : "";
  ::setenv("RSTLAB_TEST_CASES", "37", 1);
  EXPECT_EQ(EnvTestCases(10), 37u);
  ::setenv("RSTLAB_TEST_CASES", "banana", 1);
  EXPECT_EQ(EnvTestCases(10), 10u);
  ::setenv("RSTLAB_TEST_CASES", "0", 1);
  EXPECT_EQ(EnvTestCases(10), 10u);
  ::unsetenv("RSTLAB_TEST_CASES");
  EXPECT_EQ(EnvTestCases(10), 10u);
  if (saved != nullptr) ::setenv("RSTLAB_TEST_CASES", stash.c_str(), 1);
}

// ---------------------------------------------------------------------
// Self-test fault injection: a smoke detector is only trusted once it
// has seen smoke. With a known fault injected into every oracle's
// observed values, each suite must report at least one failure, and
// every failure must arrive shrunk and replayable. This is also what
// exercises the failure-reporting and shrink-descent code on green
// trees, so a regression in *those* paths cannot hide behind passing
// oracles.

class ScopedFaultInjection {
 public:
  ScopedFaultInjection() { SetFaultInjection(true); }
  ~ScopedFaultInjection() { SetFaultInjection(false); }
};

TEST(FaultInjectionTest, DisabledByDefault) {
  EXPECT_FALSE(FaultInjectionEnabled());
}

TEST(FaultInjectionTest, EverySuiteDetectsAnInjectedFaultAndShrinks) {
  ScopedFaultInjection fault;
  for (const Suite* suite : AllSuites()) {
    const SuiteReport report = RunSuite(*suite, /*seed=*/1, /*cases=*/8);
    ASSERT_FALSE(report.passed())
        << suite->name() << " stayed green with a broken subject";
    for (const CaseFailure& f : report.failures) {
      EXPECT_EQ(f.id.suite, suite->name());
      EXPECT_FALSE(f.failure.empty()) << f.id.ToString();
      EXPECT_FALSE(f.counterexample.empty()) << f.id.ToString();
    }
    // The report renders a replay triple per failure.
    const std::string rendered = report.ToString();
    EXPECT_NE(rendered.find("FAIL"), std::string::npos);
    EXPECT_NE(rendered.find("--replay=" + report.failures[0].id.ToString()),
              std::string::npos);
  }
}

TEST(FaultInjectionTest, FailingRunsAreStillDeterministic) {
  // Failure reports (shrink descent included) must be byte-identical
  // across invocations, or a red CI run could not be replayed locally.
  ScopedFaultInjection fault;
  const Suite* suite = FindSuite("trial-tally");
  ASSERT_NE(suite, nullptr);
  const SuiteReport first = RunSuite(*suite, /*seed=*/3, /*cases=*/4);
  const SuiteReport second = RunSuite(*suite, /*seed=*/3, /*cases=*/4);
  EXPECT_FALSE(first.passed());
  EXPECT_EQ(first.ToString(), second.ToString());
}

TEST(FaultInjectionTest, PhantomReversalFaultShrinksToASingleBlockedMove) {
  // The injected tape fault is the pre-fix phantom reversal at cell 0;
  // ddmin must strip every irrelevant op and leave (at most a handful
  // of) blocked left moves — the ISSUE's <= 8 tape cells bar.
  ScopedFaultInjection fault;
  const Suite* suite = FindSuite("tape-backend");
  ASSERT_NE(suite, nullptr);
  const SuiteReport report = RunSuite(*suite, /*seed=*/1, /*cases=*/12);
  ASSERT_FALSE(report.passed());
  for (const CaseFailure& f : report.failures) {
    EXPECT_NE(f.counterexample.find("L"), std::string::npos)
        << f.counterexample;
    EXPECT_NE(f.counterexample.find("(1 ops, 1 cells)"), std::string::npos)
        << f.id.ToString() << " did not shrink to the minimal op: "
        << f.counterexample;
    EXPECT_GT(f.shrink_attempts, 0u) << f.id.ToString();
  }
}

TEST(FaultInjectionTest, EarlyStoppingFieldWalkShrinksToOneOp) {
  // The injected field fault stops the model's per-cell walk one cell
  // before the field's end; ddmin must strip every op but one field
  // walk and leave a field of a cell or two.
  ScopedFaultInjection fault;
  const Suite* suite = FindSuite("tape-fields");
  ASSERT_NE(suite, nullptr);
  const SuiteReport report = RunSuite(*suite, /*seed=*/1, /*cases=*/12);
  ASSERT_FALSE(report.passed());
  for (const CaseFailure& f : report.failures) {
    // Rendered as a="..." b="...": op op ...
    const std::string& shrunk = f.counterexample;
    const std::size_t ops = shrunk.find("\": ");
    ASSERT_NE(ops, std::string::npos) << shrunk;
    EXPECT_EQ(shrunk.find(' ', ops + 3), std::string::npos)
        << f.id.ToString() << " kept more than one op: " << shrunk;
    EXPECT_LE(ops, std::string("a=\"0\" b=\"0").size())
        << f.id.ToString() << " kept more than two cells: " << shrunk;
    EXPECT_GT(f.shrink_attempts, 0u) << f.id.ToString();
  }
}

// ---------------------------------------------------------------------
// Generator sanity: generated values land in the space the oracles
// assume, so shrinking cannot morph a failure into an encoding error.

TEST(GenTest, InstancesAreWellFormedAndOpsStayBounded) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    const problems::Instance instance = GenInstance()(rng, 8);
    ASSERT_FALSE(instance.first.empty());
    ASSERT_EQ(instance.first.size(), instance.second.size());
    for (const auto& s : instance.first) ASSERT_GT(s.size(), 0u);

    const std::vector<TapeOp> ops = GenTapeOps()(rng, 8);
    ASSERT_FALSE(ops.empty());
    ASSERT_GT(TapeOpsCellSpan(ops), 0u);
  }
}

// ---------------------------------------------------------------------
// The randomized sweep: every registered suite, RSTLAB_TEST_CASES
// cases (default 40), seed fixed so failures are replayable verbatim.

class ConformSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConformSweep, SuitePassesRandomizedCases) {
  const Suite& suite = *AllSuites()[GetParam()];
  const std::uint64_t cases = EnvTestCases(40);
  const SuiteReport report = RunSuite(suite, /*seed=*/1, cases);
  EXPECT_TRUE(report.passed()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, ConformSweep,
    ::testing::Range<std::size_t>(0, AllSuites().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = AllSuites()[info.param]->name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rstlab::conform
