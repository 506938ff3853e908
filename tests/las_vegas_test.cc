#include <algorithm>

#include <gtest/gtest.h>

#include "problems/generators.h"
#include "problems/reference.h"
#include "sorting/deciders.h"
#include "sorting/las_vegas.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/bitstring.h"
#include "util/random.h"

namespace rstlab::sorting {
namespace {

std::vector<std::string> RandomFields(std::size_t count, std::size_t bits,
                                      Rng& rng) {
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < count; ++i) {
    fields.push_back(BitString::Random(bits, rng).ToString());
  }
  return fields;
}

SortSubroutine CorrectSorter() {
  return [](const std::vector<std::string>& fields) {
    std::vector<std::string> out = fields;
    std::sort(out.begin(), out.end());
    return out;
  };
}

TEST(CertifiedSortTest, CorrectSubroutineAlwaysAnswers) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::string> fields = RandomFields(32, 16, rng);
    LasVegasOutcome outcome =
        CertifiedSort(fields, CorrectSorter(), rng);
    ASSERT_TRUE(outcome.sorted.has_value());
    std::vector<std::string> expected = fields;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(*outcome.sorted, expected);
  }
}

TEST(CertifiedSortTest, NeverReturnsWrongAnswer) {
  // The LasVegas contract: output correct or "I don't know" — never a
  // wrong output. The faulty sorter corrupts every run; the certificate
  // must catch (almost) every corruption, and whenever it lets a run
  // through, the output must actually be correct.
  Rng rng(2);
  SortSubroutine faulty = FaultySorter(1.0, 99);
  int answered = 0;
  int wrong = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::string> fields = RandomFields(16, 16, rng);
    LasVegasOutcome outcome = CertifiedSort(fields, faulty, rng);
    if (!outcome.sorted.has_value()) continue;
    ++answered;
    std::vector<std::string> expected = fields;
    std::sort(expected.begin(), expected.end());
    if (*outcome.sorted != expected) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
  // The fingerprint misses a corruption with probability <= 1/2 (in
  // practice almost never), so most runs answer "I don't know".
  EXPECT_LE(answered, trials / 2);
}

TEST(CertifiedSortTest, IntermittentFaultsStillSafe) {
  Rng rng(3);
  SortSubroutine flaky = FaultySorter(0.3, 7);
  int answered = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::string> fields = RandomFields(16, 16, rng);
    LasVegasOutcome outcome = CertifiedSort(fields, flaky, rng);
    if (!outcome.sorted.has_value()) continue;
    ++answered;
    std::vector<std::string> expected = fields;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(*outcome.sorted, expected);
  }
  // ~70% clean runs must get through.
  EXPECT_GE(answered, trials / 2);
}

TEST(CertifiedSortTest, EmptyAndSingleton) {
  Rng rng(4);
  LasVegasOutcome empty = CertifiedSort({}, CorrectSorter(), rng);
  ASSERT_TRUE(empty.sorted.has_value());
  EXPECT_TRUE(empty.sorted->empty());
  LasVegasOutcome one = CertifiedSort({"0101"}, CorrectSorter(), rng);
  ASSERT_TRUE(one.sorted.has_value());
  EXPECT_EQ(one.sorted->size(), 1u);
}

TEST(CertifiedSortTest, AllEqualMultiset) {
  // Degenerate key distribution: every field identical. Any
  // arrangement is correctly sorted and multiset-equal, so a correct
  // subroutine must always be accepted, and even a permanently faulty
  // one can never push a *wrong* answer through the certificate — a
  // swap corruption is invisible (and harmless), a value corruption
  // changes the multiset and must be caught.
  Rng rng(11);
  const std::vector<std::string> fields(17, "1010");
  LasVegasOutcome outcome = CertifiedSort(fields, CorrectSorter(), rng);
  ASSERT_TRUE(outcome.sorted.has_value());
  EXPECT_EQ(*outcome.sorted, fields);

  SortSubroutine faulty = FaultySorter(1.0, 5);
  for (int t = 0; t < 50; ++t) {
    LasVegasOutcome o = CertifiedSort(fields, faulty, rng);
    if (o.sorted.has_value()) {
      EXPECT_EQ(*o.sorted, fields);
    }
  }
}

TEST(CheckSortViaSortingTest, AllEqualMultisetIsSorted) {
  // First list = second list = m copies of one value: a "yes" of
  // CHECK-SORT with maximally non-distinct keys.
  problems::Instance inst;
  for (int i = 0; i < 8; ++i) {
    inst.first.push_back(BitString::FromString("0110"));
    inst.second.push_back(BitString::FromString("0110"));
  }
  ASSERT_TRUE(problems::RefCheckSort(inst));
  stmodel::StContext ctx(kDeciderTapes);
  ctx.LoadInput(inst.Encode());
  Result<bool> decided = CheckSortViaSorting(ctx);
  ASSERT_TRUE(decided.ok()) << decided.status();
  EXPECT_TRUE(decided.value());
}

class CheckSortViaSortingTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckSortViaSortingTest, MatchesOracle) {
  Rng rng(GetParam());
  for (bool yes : {true, false}) {
    problems::Instance inst =
        yes ? problems::SortedPair(16, 12, rng)
            : problems::MisorderedPair(16, 12, rng);
    stmodel::StContext ctx(kDeciderTapes);
    ctx.LoadInput(inst.Encode());
    Result<bool> decided = CheckSortViaSorting(ctx);
    ASSERT_TRUE(decided.ok()) << decided.status();
    EXPECT_EQ(decided.value(), problems::RefCheckSort(inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckSortViaSortingTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CheckSortViaSortingTest, ScanBoundLogarithmic) {
  // The paper geometry, so every quadrupling of m adds merge passes.
  Rng rng(9);
  std::vector<std::uint64_t> scans;
  for (std::size_t m : {32u, 128u, 512u}) {
    problems::Instance inst = problems::SortedPair(m, 12, rng);
    stmodel::StContext ctx(kDeciderTapes);
    ctx.LoadInput(inst.Encode());
    ASSERT_TRUE(CheckSortViaSorting(ctx, kPaperSortConfig).ok());
    scans.push_back(ctx.Report().scan_bound);
  }
  EXPECT_GT(scans[1] - scans[0], 0u);
  EXPECT_EQ(scans[1] - scans[0], scans[2] - scans[1]);
}

}  // namespace
}  // namespace rstlab::sorting
