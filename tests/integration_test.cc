// Cross-module integration tests: the full pipelines the experiment
// binaries run, exercised end to end at small scale.

#include <map>

#include <gtest/gtest.h>

#include "core/complexity.h"
#include "core/rstlab.h"

namespace rstlab {
namespace {

// One CHECK-phi instance driven through every decision procedure in the
// library: the reference oracles, the deterministic sort-based decider,
// the fingerprint tester, the NST certificate machinery, the relational
// algebra query, and the XML query evaluators must all agree (on the
// one-sided-error testers: never a false negative).
class FullPipelineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullPipelineTest, AllDecidersAgreeOnCheckPhiInstances) {
  Rng rng(GetParam());
  const std::size_t m = 4;
  const std::size_t n = 8;
  problems::CheckPhi problem(m, n,
                             permutation::BitReversalPermutation(m));

  for (bool yes : {true, false}) {
    const problems::Instance inst = yes
                                        ? problem.RandomYesInstance(rng)
                                        : problem.RandomNoInstance(rng);
    ASSERT_TRUE(problem.IsValidInstance(inst));
    ASSERT_EQ(problem.Decide(inst), yes);

    // On valid CHECK-phi instances all three problems coincide
    // (Theorem 6's reduction), so every decider must answer `yes`.
    for (problems::Problem p :
         {problems::Problem::kSetEquality,
          problems::Problem::kMultisetEquality,
          problems::Problem::kCheckSort}) {
      EXPECT_EQ(problems::RefDecide(p, inst), yes);

      stmodel::StContext ctx(sorting::kDeciderTapes);
      ctx.LoadInput(inst.Encode());
      Result<bool> decided = sorting::DecideOnTapes(p, ctx);
      ASSERT_TRUE(decided.ok());
      EXPECT_EQ(decided.value(), yes);

      EXPECT_EQ(nst::ExistsAcceptingCertificate(p, inst), yes);
    }

    // Fingerprint tester: never a false negative.
    if (yes) {
      EXPECT_TRUE(fingerprint::TestMultisetEquality(inst, rng).accepted);
    }

    // Relational algebra: symmetric difference empty iff yes.
    std::map<std::string, query::Relation> db;
    db["R1"].name = "R1";
    db["R2"].name = "R2";
    for (const auto& v : inst.first) {
      db["R1"].tuples.push_back({v.ToString()});
    }
    for (const auto& v : inst.second) {
      db["R2"].tuples.push_back({v.ToString()});
    }
    stmodel::StContext qctx(1);
    qctx.LoadInput(query::EncodeDatabaseStream(db));
    Result<std::vector<query::engine::QueryOutcome>> result =
        query::engine::ExecuteSharedScan(
            qctx, {{query::SymmetricDifferenceQuery(), "symdiff"}}, {});
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result.value()[0].status.ok()) << result.value()[0].status;
    EXPECT_EQ(result.value()[0].result.tuples.empty(), yes);

    // XML evaluators.
    query::XmlDocument doc = query::EncodeSetInstanceAsXml(inst);
    EXPECT_EQ(query::EvaluatePaperXQueryToString(*doc) ==
                  "<result><true></true></result>",
              yes);
    // The XPath filter detects X - Y nonempty; on CHECK-phi no
    // instances, some v_i misses from the second list.
    EXPECT_EQ(query::PaperXPathSelects(inst), !yes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullPipelineTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The SHORT reduction pipeline: CHECK-phi instance -> f(v) on tapes ->
// deterministic decider on the reduced instance.
TEST(FullPipelineTest, ShortReductionThenSortDecider) {
  Rng rng(42);
  const std::size_t m = 4;
  const std::size_t n = 8;
  problems::CheckPhi problem(m, n,
                             permutation::BitReversalPermutation(m));
  problems::ShortReduction reduction(problem);

  for (bool yes : {true, false}) {
    const problems::Instance inst = yes
                                        ? problem.RandomYesInstance(rng)
                                        : problem.RandomNoInstance(rng);
    stmodel::StContext rctx(2);
    rctx.LoadInput(inst.Encode());
    ASSERT_TRUE(reduction.ReduceOnTapes(rctx).ok());
    // Feed tape 1's content to the decider as a fresh input.
    const std::string reduced_encoding =
        rctx.tape(1).contents().substr(
            0, reduction.Reduce(inst).Encode().size());

    stmodel::StContext dctx(sorting::kDeciderTapes);
    dctx.LoadInput(reduced_encoding);
    Result<bool> decided = sorting::DecideOnTapes(
        problems::Problem::kMultisetEquality, dctx);
    ASSERT_TRUE(decided.ok());
    EXPECT_EQ(decided.value(), yes);
  }
}

// Resource-class bookkeeping across a real run: the fingerprint tester
// complies with co-RST(2, O(log N), 1) (Theorem 8(a)).
TEST(FullPipelineTest, FingerprintCompliesWithPaperClass) {
  Rng rng(7);
  core::ResourceClass cls = core::CoRstClass(
      "co-RST(2, O(log N), 1)", core::ConstScans(2),
      core::LogSpace(64.0), 1);
  for (int trial = 0; trial < 5; ++trial) {
    problems::Instance inst = problems::EqualMultisets(16, 16, rng);
    stmodel::StContext ctx(1);
    ctx.LoadInput(inst.Encode());
    Result<fingerprint::FingerprintOutcome> outcome =
        fingerprint::TestMultisetEqualityOnTapes(ctx, rng);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().accepted);
    EXPECT_TRUE(cls.Admits(ctx.Report(), ctx.input_size()))
        << ctx.Report().ToString();
  }
}

// The TM -> list machine pipeline: simulate, then run the merge-lemma
// analysis on the simulated run.
TEST(FullPipelineTest, SimulatedRunsPassListMachineAnalyses) {
  Result<machine::TuringMachine> tm =
      machine::TuringMachine::Create(machine::zoo::TwoFieldEquality());
  ASSERT_TRUE(tm.ok());
  Result<listmachine::SimulationResult> sim =
      listmachine::SimulateTmAsNlm(tm.value(), {"0101", "0101"}, {},
                                   100000);
  ASSERT_TRUE(sim.ok());
  EXPECT_TRUE(sim.value().tm_accepted);

  listmachine::GrowthCheck growth =
      listmachine::CheckGrowth(sim.value().run, 2);
  EXPECT_TRUE(growth.within_bounds);

  // phi = identity on one pair: position 0 vs 1 compared is allowed by
  // the bound t^{2r} * sortedness >= 1.
  listmachine::MergeLemmaCheck merge = listmachine::CheckMergeLemma(
      sim.value().run, permutation::Identity(1));
  EXPECT_TRUE(merge.within_bounds);
}


// Exhaustive differential test: EVERY m = 2, n = 2 instance (256 of
// them) through every decision procedure. Any disagreement anywhere in
// the stack fails loudly with the exact instance.
TEST(FullPipelineTest, ExhaustiveMicroInstances) {
  Rng rng(31337);
  for (std::uint64_t code = 0; code < 256; ++code) {
    problems::Instance inst;
    inst.first = {BitString::FromUint64((code >> 0) & 3, 2),
                  BitString::FromUint64((code >> 2) & 3, 2)};
    inst.second = {BitString::FromUint64((code >> 4) & 3, 2),
                   BitString::FromUint64((code >> 6) & 3, 2)};
    for (problems::Problem p :
         {problems::Problem::kSetEquality,
          problems::Problem::kMultisetEquality,
          problems::Problem::kCheckSort}) {
      const bool oracle = problems::RefDecide(p, inst);
      stmodel::StContext ctx(sorting::kDeciderTapes);
      ctx.LoadInput(inst.Encode());
      Result<bool> decided = sorting::DecideOnTapes(p, ctx);
      ASSERT_TRUE(decided.ok());
      ASSERT_EQ(decided.value(), oracle)
          << ProblemName(p) << " on " << inst.Encode();
      ASSERT_EQ(nst::ExistsAcceptingCertificate(p, inst), oracle)
          << ProblemName(p) << " on " << inst.Encode();
    }
    // Fingerprint: completeness on every equal instance, and the exact
    // acceptance probability below 1/2 on every unequal one.
    if (problems::RefMultisetEquality(inst)) {
      EXPECT_TRUE(fingerprint::TestMultisetEquality(inst, rng).accepted)
          << inst.Encode();
    } else {
      Result<double> p = fingerprint::ExactAcceptProbability(inst);
      ASSERT_TRUE(p.ok());
      EXPECT_LT(p.value(), 0.5) << inst.Encode();
    }
    // Disjointness decider vs oracle on the same instances.
    stmodel::StContext dctx(sorting::kDeciderTapes);
    dctx.LoadInput(inst.Encode());
    Result<bool> disjoint = sorting::DecideDisjointOnTapes(dctx);
    ASSERT_TRUE(disjoint.ok());
    EXPECT_EQ(disjoint.value(), problems::RefDisjoint(inst))
        << inst.Encode();
  }
}

}  // namespace
}  // namespace rstlab
