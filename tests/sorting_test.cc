#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "problems/generators.h"
#include "problems/reference.h"
#include "sorting/deciders.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "util/random.h"

namespace rstlab::sorting {
namespace {

std::vector<std::string> TapeFields(stmodel::StContext& ctx,
                                    std::size_t index) {
  tape::Tape& t = ctx.tape(index);
  t.Seek(0);
  std::vector<std::string> fields;
  while (!stmodel::AtEnd(t)) fields.push_back(stmodel::ReadField(t));
  return fields;
}

// ---------------------------------------------------------------------
// Deciders (Corollary 7 upper bound)
// ---------------------------------------------------------------------

class DeciderAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeciderAgreementTest, AgreesWithReferenceOnAllProblems) {
  Rng rng(GetParam());
  std::vector<problems::Instance> instances = {
      problems::EqualMultisets(8, 10, rng),
      problems::PerturbedMultisets(8, 10, 1, rng),
      problems::SortedPair(8, 10, rng),
      problems::MisorderedPair(8, 10, rng),
      problems::EqualSets(8, 10, rng),
  };
  // Also a set-equal but multiset-unequal instance.
  {
    problems::Instance inst;
    const BitString a = BitString::Random(10, rng);
    const BitString b = BitString::Random(10, rng);
    inst.first = {a, a, b};
    inst.second = {a, b, b};
    instances.push_back(inst);
  }
  for (const auto& inst : instances) {
    for (problems::Problem problem :
         {problems::Problem::kSetEquality,
          problems::Problem::kMultisetEquality,
          problems::Problem::kCheckSort}) {
      stmodel::StContext ctx(kDeciderTapes);
      ctx.LoadInput(inst.Encode());
      Result<bool> decision = DecideOnTapes(problem, ctx);
      ASSERT_TRUE(decision.ok()) << decision.status();
      EXPECT_EQ(decision.value(), problems::RefDecide(problem, inst))
          << ProblemName(problem) << " on " << inst.Encode();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeciderAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DeciderTest, EmptyInstanceIsYes) {
  stmodel::StContext ctx(kDeciderTapes);
  ctx.LoadInput("");
  Result<bool> decision =
      DecideOnTapes(problems::Problem::kSetEquality, ctx);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision.value());
}

TEST(DeciderTest, ScanBoundGrowsLogarithmically) {
  // The paper geometry, so every quadrupling of m adds merge passes (at
  // the default one, all four sizes are a single formation run).
  Rng rng(5);
  std::vector<double> ns;
  std::vector<double> scans;
  for (std::size_t m : {16u, 64u, 256u, 1024u}) {
    problems::Instance inst = problems::EqualMultisets(m, 16, rng);
    stmodel::StContext ctx(kDeciderTapes);
    ctx.LoadInput(inst.Encode());
    ASSERT_TRUE(DecideOnTapes(problems::Problem::kMultisetEquality, ctx,
                              kPaperSortConfig)
                    .ok());
    ns.push_back(static_cast<double>(inst.N()));
    scans.push_back(static_cast<double>(ctx.Report().scan_bound));
  }
  // r(N) = Theta(log N): scans per quadrupling of m grow by a constant.
  const double d1 = scans[1] - scans[0];
  const double d2 = scans[2] - scans[1];
  const double d3 = scans[3] - scans[2];
  EXPECT_GT(d1, 0.0);
  EXPECT_NEAR(d2, d1, 6.0);
  EXPECT_NEAR(d3, d2, 6.0);
  EXPECT_LT(scans.back(), 30 * std::log2(ns.back()));
}

TEST(DeciderTest, RequiresEnoughTapes) {
  stmodel::StContext ctx(3);
  ctx.LoadInput("0#1#");
  EXPECT_FALSE(
      DecideOnTapes(problems::Problem::kSetEquality, ctx).ok());
}

TEST(DeciderTest, RejectsOddFieldCount) {
  stmodel::StContext ctx(kDeciderTapes);
  ctx.LoadInput("0#1#0#");
  EXPECT_FALSE(
      DecideOnTapes(problems::Problem::kSetEquality, ctx).ok());
}

// ---------------------------------------------------------------------
// The sorting function (Corollary 10 upper-bound mechanics)
// ---------------------------------------------------------------------

TEST(SortInputTest, ProducesSortedCopyOnTapeOne) {
  Rng rng(9);
  problems::Instance inst = problems::EqualMultisets(16, 8, rng);
  // Use only the first half as the sort input.
  std::string input;
  std::vector<std::string> fields;
  for (const auto& v : inst.first) {
    fields.push_back(v.ToString());
    input += v.ToString();
    input += '#';
  }
  stmodel::StContext ctx(kDeciderTapes);
  ctx.LoadInput(input);
  ASSERT_TRUE(SortInputToTape(ctx).ok());
  std::sort(fields.begin(), fields.end());
  EXPECT_EQ(TapeFields(ctx, 1), fields);
}

}  // namespace
}  // namespace rstlab::sorting
