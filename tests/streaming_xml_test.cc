#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "problems/generators.h"
#include "problems/reference.h"
#include "query/engine/shared_scan.h"
#include "query/engine/spool.h"
#include "query/relalg.h"
#include "query/streaming_xml.h"
#include "query/xml.h"
#include "query/xml_reduction.h"
#include "query/xpath.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace rstlab::query {
namespace {

std::string EncodeAsDocument(const problems::Instance& inst) {
  return SerializeXml(*EncodeSetInstanceAsXml(inst));
}

/// Every value of one spool lane, in lane order.
std::vector<std::string> LaneValues(const engine::RelationSpool& spool,
                                    const std::string& relation) {
  engine::SpoolCursor cursor(spool.lane(relation));
  std::vector<std::string> values;
  while (std::optional<std::string> field = cursor.NextField()) {
    values.push_back(*field);
  }
  return values;
}

/// The Figure 1 XPath query as an engine plan: it selects a node iff
/// some set1 value is missing from set2.
RelAlgExprPtr PaperXPathPlan() {
  return Difference(Rel("set1"), Rel("set2"));
}

/// The Theorem 12 XQuery query as an engine plan: it returns
/// <result><true/></result> iff the symmetric difference is empty.
RelAlgExprPtr PaperXQueryPlan() {
  return SymmetricDifferenceQuery("set1", "set2");
}

struct XmlRun {
  engine::QueryOutcome outcome;
  /// The shared input pass's scans plus the plan's.
  std::uint64_t scans = 0;
};

/// One certified engine run of `plan` over the Section 4 document.
Result<XmlRun> RunOnDocument(
    const std::string& document, const RelAlgExprPtr& plan,
    const sorting::SortConfig& sort = sorting::SortConfig{}) {
  stmodel::StContext ctx(1);
  ctx.LoadInput(document);
  engine::SharedScanOptions options;
  options.xml = true;
  options.config.sort = sort;
  Result<std::vector<engine::QueryOutcome>> run = engine::ExecuteSharedScan(
      ctx, {engine::QueryRequest{plan, ""}}, options);
  if (!run.ok()) return run.status();
  std::vector<engine::QueryOutcome> outcomes = std::move(run).value();
  XmlRun out;
  out.outcome = std::move(outcomes[0]);
  if (!out.outcome.status.ok()) return out.outcome.status;
  out.scans = ctx.Report().scan_bound + out.outcome.cost.scan_bound;
  return out;
}

/// The plan's verdict: true iff its result is non-empty.
Result<bool> Selects(const std::string& document,
                     const RelAlgExprPtr& plan) {
  Result<XmlRun> run = RunOnDocument(document, plan);
  if (!run.ok()) return run.status();
  return !run.value().outcome.result.tuples.empty();
}

TEST(BuildFromXmlTest, SpoolsValuesInOrder) {
  problems::Instance inst;
  inst.first = {BitString::FromString("01"), BitString::FromString("10")};
  inst.second = {BitString::FromString("11")};
  stmodel::StContext ctx(1);
  ctx.LoadInput(EncodeAsDocument(inst));
  auto spool = engine::RelationSpool::BuildFromXml(ctx);
  ASSERT_TRUE(spool.ok()) << spool.status();
  EXPECT_EQ(spool.value()->names(),
            (std::vector<std::string>{"set1", "set2"}));
  EXPECT_EQ(spool.value()->lane("set1")->fields, 2u);
  EXPECT_EQ(spool.value()->lane("set2")->fields, 1u);
  EXPECT_EQ(LaneValues(*spool.value(), "set1"),
            (std::vector<std::string>{"01", "10"}));
  EXPECT_EQ(LaneValues(*spool.value(), "set2"),
            (std::vector<std::string>{"11"}));
}

TEST(BuildFromXmlTest, SingleForwardScanOfTheDocument) {
  Rng rng(5);
  problems::Instance inst = problems::EqualSets(16, 8, rng);
  stmodel::StContext ctx(1);
  ctx.LoadInput(EncodeAsDocument(inst));
  ASSERT_TRUE(engine::RelationSpool::BuildFromXml(ctx).ok());
  EXPECT_EQ(ctx.tape(0).reversals(), 0u);  // one forward pass
}

TEST(BuildFromXmlTest, RejectsMalformedDocuments) {
  stmodel::StContext ctx(1);
  for (const char* document :
       {"<instance><set1><item><string>01</string>",
        "<instance>junk</instance>",
        "<instance><string>01</string></instance>",
        "<instance><set1></string></set1></instance>"}) {
    ctx.LoadInput(document);
    EXPECT_FALSE(engine::RelationSpool::BuildFromXml(ctx).ok())
        << document;
  }
}

class StreamingXmlAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingXmlAgreementTest, FilterAgreesWithDomEvaluator) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    problems::Instance inst =
        trial % 2 == 0 ? problems::EqualSets(8, 8, rng)
                       : problems::PerturbedMultisets(8, 8, 1, rng);
    Result<bool> streamed =
        Selects(EncodeAsDocument(inst), PaperXPathPlan());
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(streamed.value(), PaperXPathSelects(inst));
  }
}

TEST_P(StreamingXmlAgreementTest, XQueryAgreesWithDomEvaluator) {
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 10; ++trial) {
    problems::Instance inst =
        trial % 2 == 0 ? problems::EqualSets(8, 8, rng)
                       : problems::PerturbedMultisets(8, 8, 1, rng);
    Result<bool> differs =
        Selects(EncodeAsDocument(inst), PaperXQueryPlan());
    ASSERT_TRUE(differs.ok()) << differs.status();
    EXPECT_EQ(!differs.value(), problems::RefSetEquality(inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingXmlAgreementTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(StreamingXmlTest, MultisetsWithEqualSetsAccepted) {
  // Set semantics: duplicates are invisible to the XQuery query.
  problems::Instance inst;
  inst.first = {BitString::FromString("01"), BitString::FromString("01"),
                BitString::FromString("10")};
  inst.second = {BitString::FromString("10"),
                 BitString::FromString("01"),
                 BitString::FromString("10")};
  Result<bool> differs =
      Selects(EncodeAsDocument(inst), PaperXQueryPlan());
  ASSERT_TRUE(differs.ok());
  EXPECT_FALSE(differs.value());
}

TEST(StreamingXmlTest, ScanBoundGrowsLogarithmically) {
  // The upper-bound complement to Theorem 13's lower bound: with
  // external tapes, filtering takes Theta(log N) scans. The paper
  // geometry, so every quadrupling of m adds merge passes.
  Rng rng(11);
  std::vector<std::uint64_t> scans;
  for (std::size_t m : {32u, 128u, 512u}) {
    problems::Instance inst = problems::EqualSets(m, 12, rng);
    Result<XmlRun> run = RunOnDocument(EncodeAsDocument(inst),
                                       PaperXPathPlan(),
                                       sorting::kPaperSortConfig);
    ASSERT_TRUE(run.ok()) << run.status();
    scans.push_back(run.value().scans);
  }
  EXPECT_GT(scans[1] - scans[0], 0u);
  EXPECT_EQ(scans[1] - scans[0], scans[2] - scans[1]);
  EXPECT_LE(scans[1] - scans[0], 60u);
}

TEST(StreamingXmlTest, EmptySetsAreEqualAndSubset) {
  const std::string empty = EncodeAsDocument(problems::Instance{});
  Result<bool> filter = Selects(empty, PaperXPathPlan());
  ASSERT_TRUE(filter.ok()) << filter.status();
  EXPECT_FALSE(filter.value());  // nothing to select

  Result<bool> differs = Selects(empty, PaperXQueryPlan());
  ASSERT_TRUE(differs.ok()) << differs.status();
  EXPECT_FALSE(differs.value());  // the sets are equal
}


class XmlEncoderOnTapesTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlEncoderOnTapesTest, MatchesHostEncoder) {
  Rng rng(GetParam());
  for (std::size_t m : {0u, 1u, 4u, 16u}) {
    problems::Instance inst = problems::EqualMultisets(m, 8, rng);
    stmodel::StContext ctx(2);
    ctx.LoadInput(inst.Encode());
    ASSERT_TRUE(EncodeInstanceAsXmlOnTapes(ctx).ok());
    const std::string expected = EncodeAsDocument(inst);
    EXPECT_EQ(ctx.tape(1).contents().substr(0, expected.size()),
              expected);
    // Constant scans (paper Section 4: "a constant number of
    // sequential scans ... and two external memory tapes").
    EXPECT_LE(ctx.Report().scan_bound, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlEncoderOnTapesTest,
                         ::testing::Values(1, 2, 3));

TEST(XmlEncoderOnTapesTest, RoundTripsThroughTheStreamingFilter) {
  // instance -> XML (on tapes) -> XPath filter (engine over the spool):
  // the full streaming pipeline of Theorem 13's setup.
  Rng rng(5);
  problems::Instance inst = problems::PerturbedMultisets(8, 8, 1, rng);
  stmodel::StContext ectx(2);
  ectx.LoadInput(inst.Encode());
  ASSERT_TRUE(EncodeInstanceAsXmlOnTapes(ectx).ok());
  const std::string doc = ectx.tape(1).contents().substr(
      0, EncodeAsDocument(inst).size());
  Result<bool> filtered = Selects(doc, PaperXPathPlan());
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(filtered.value(), PaperXPathSelects(inst));
}

}  // namespace
}  // namespace rstlab::query
