#include <gtest/gtest.h>

#include "fingerprint/prime.h"
#include "problems/disjoint_sets.h"
#include "problems/generators.h"
#include "sorting/deciders.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace rstlab::problems {
namespace {

TEST(DisjointSetsTest, RefDisjointBasics) {
  Instance disjoint;
  disjoint.first = {BitString::FromString("00"),
                    BitString::FromString("01")};
  disjoint.second = {BitString::FromString("10"),
                     BitString::FromString("11")};
  EXPECT_TRUE(RefDisjoint(disjoint));

  Instance overlapping = disjoint;
  overlapping.second[0] = BitString::FromString("01");
  EXPECT_FALSE(RefDisjoint(overlapping));

  Instance empty;
  EXPECT_TRUE(RefDisjoint(empty));
}

class DisjointGeneratorTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisjointGeneratorTest, GeneratorsProduceCorrectAnswers) {
  Rng rng(GetParam());
  for (std::size_t m : {4u, 16u, 64u}) {
    Instance yes = DisjointSets(m, 12, rng);
    EXPECT_TRUE(RefDisjoint(yes));
    Instance no = OverlappingSets(m, 12, 1, rng);
    EXPECT_FALSE(RefDisjoint(no));
    Instance very_no = OverlappingSets(m, 12, m, rng);
    EXPECT_FALSE(RefDisjoint(very_no));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointGeneratorTest,
                         ::testing::Values(1, 2, 3, 4, 5));

class DisjointDeciderTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisjointDeciderTest, TapeDeciderAgreesWithOracle) {
  Rng rng(GetParam());
  std::vector<Instance> instances = {
      DisjointSets(8, 10, rng),
      OverlappingSets(8, 10, 1, rng),
      OverlappingSets(8, 10, 4, rng),
      EqualSets(8, 10, rng),  // definitely overlapping
  };
  for (const Instance& inst : instances) {
    stmodel::StContext ctx(sorting::kDeciderTapes);
    ctx.LoadInput(inst.Encode());
    Result<bool> decided = sorting::DecideDisjointOnTapes(ctx);
    ASSERT_TRUE(decided.ok()) << decided.status();
    EXPECT_EQ(decided.value(), RefDisjoint(inst)) << inst.Encode();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointDeciderTest,
                         ::testing::Values(10, 20, 30, 40, 50));

TEST(DisjointDeciderTest, EmptyInstanceIsDisjoint) {
  stmodel::StContext ctx(sorting::kDeciderTapes);
  ctx.LoadInput("");
  Result<bool> decided = sorting::DecideDisjointOnTapes(ctx);
  ASSERT_TRUE(decided.ok());
  EXPECT_TRUE(decided.value());
}

TEST(DisjointDeciderTest, ScanBoundIsLogarithmic) {
  // The paper geometry, so every quadrupling of m adds merge passes.
  Rng rng(77);
  std::vector<std::uint64_t> scans;
  for (std::size_t m : {32u, 128u, 512u}) {
    Instance inst = DisjointSets(m, 12, rng);
    stmodel::StContext ctx(sorting::kDeciderTapes);
    ctx.LoadInput(inst.Encode());
    ASSERT_TRUE(
        sorting::DecideDisjointOnTapes(ctx, sorting::kPaperSortConfig).ok());
    scans.push_back(ctx.Report().scan_bound);
  }
  EXPECT_GT(scans[1] - scans[0], 0u);
  EXPECT_EQ(scans[1] - scans[0], scans[2] - scans[1]);
  EXPECT_LE(scans[1] - scans[0], 60u);
}

// The Section 9 observation, made measurable: residue fingerprints are
// the wrong tool for disjointness.
TEST(DisjointnessGuessTest, HasBothErrorKinds) {
  Rng rng(91);
  // A deliberately small prime so residue collisions are plentiful.
  const std::uint64_t small_prime = 31;
  int false_intersecting = 0;  // disjoint sets guessed intersecting
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    Instance yes = DisjointSets(16, 16, rng);
    if (!GuessDisjointnessByResidues(yes, small_prime)
             .guessed_disjoint) {
      ++false_intersecting;
    }
  }
  // With 32 values into 31 residue classes, collisions are essentially
  // certain: the guess errs on almost every disjoint instance.
  EXPECT_GT(false_intersecting, trials / 2);

  // Intersecting instances are always flagged intersecting (shared
  // values share residues) — the guess's errors are one-sided in the
  // WRONG direction for the paper's RST classes (which forbid false
  // positives for "disjoint").
  for (int t = 0; t < 20; ++t) {
    Instance no = OverlappingSets(16, 16, 2, rng);
    EXPECT_FALSE(
        GuessDisjointnessByResidues(no, small_prime).guessed_disjoint);
  }
}

TEST(DisjointnessGuessTest, LargePrimeReducesButCannotRemoveError) {
  Rng rng(93);
  // Even with a comfortably large prime, the residue test decides
  // membership of VALUES, not of the aggregate — it is a Bloom-filter
  // style one-sided test (false "intersecting" only), not the
  // no-false-positives shape Theorem 8(a) delivers for multiset
  // equality. Verify the direction of the error.
  Result<std::uint64_t> p = fingerprint::PrimeInBertrandInterval(1 << 20);
  ASSERT_TRUE(p.ok());
  for (int t = 0; t < 50; ++t) {
    Instance no = OverlappingSets(8, 16, 1, rng);
    EXPECT_FALSE(
        GuessDisjointnessByResidues(no, p.value()).guessed_disjoint);
  }
}

}  // namespace
}  // namespace rstlab::problems
