#include <gtest/gtest.h>

#include "problems/generators.h"
#include "problems/reference.h"
#include "query/streaming_xml.h"
#include "query/xml.h"
#include "query/xml_reduction.h"
#include "query/xpath.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "util/random.h"

namespace rstlab::query {
namespace {

std::string EncodeAsDocument(const problems::Instance& inst) {
  return SerializeXml(*EncodeSetInstanceAsXml(inst));
}

TEST(ExtractSetValuesTest, SpoolsValuesInOrder) {
  problems::Instance inst;
  inst.first = {BitString::FromString("01"), BitString::FromString("10")};
  inst.second = {BitString::FromString("11")};
  stmodel::StContext ctx(kStreamingXmlTapes);
  ctx.LoadInput(EncodeAsDocument(inst));
  std::size_t count_x = 0;
  std::size_t count_y = 0;
  ASSERT_TRUE(ExtractSetValues(ctx, 1, 2, &count_x, &count_y).ok());
  EXPECT_EQ(count_x, 2u);
  EXPECT_EQ(count_y, 1u);
  ctx.tape(1).Seek(0);
  EXPECT_EQ(stmodel::ReadField(ctx.tape(1)), "01");
  EXPECT_EQ(stmodel::ReadField(ctx.tape(1)), "10");
  ctx.tape(2).Seek(0);
  EXPECT_EQ(stmodel::ReadField(ctx.tape(2)), "11");
}

TEST(ExtractSetValuesTest, SingleForwardScanOfTheDocument) {
  Rng rng(5);
  problems::Instance inst = problems::EqualSets(16, 8, rng);
  stmodel::StContext ctx(kStreamingXmlTapes);
  ctx.LoadInput(EncodeAsDocument(inst));
  ASSERT_TRUE(ExtractSetValues(ctx, 1, 2, nullptr, nullptr).ok());
  EXPECT_EQ(ctx.tape(0).reversals(), 0u);  // one forward pass
}

TEST(ExtractSetValuesTest, RejectsMalformedDocuments) {
  stmodel::StContext ctx(kStreamingXmlTapes);
  ctx.LoadInput("<instance><set1><item><string>01</string>");
  EXPECT_FALSE(ExtractSetValues(ctx, 1, 2, nullptr, nullptr).ok());
  ctx.LoadInput("<instance>junk</instance>");
  EXPECT_FALSE(ExtractSetValues(ctx, 1, 2, nullptr, nullptr).ok());
  ctx.LoadInput("<instance><string>01</string></instance>");
  EXPECT_FALSE(ExtractSetValues(ctx, 1, 2, nullptr, nullptr).ok());
}

class StreamingXmlAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingXmlAgreementTest, FilterAgreesWithDomEvaluator) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    problems::Instance inst =
        trial % 2 == 0 ? problems::EqualSets(8, 8, rng)
                       : problems::PerturbedMultisets(8, 8, 1, rng);
    stmodel::StContext ctx(kStreamingXmlTapes);
    ctx.LoadInput(EncodeAsDocument(inst));
    Result<bool> streamed = FilterPaperXPathOnTapes(ctx);
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
    stmodel::StContext ctx(kStreamingXmlTapes);
    ctx.LoadInput(EncodeAsDocument(inst));
    Result<bool> streamed = EvaluatePaperXQueryOnTapes(ctx);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(streamed.value(), problems::RefSetEquality(inst));
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
  stmodel::StContext ctx(kStreamingXmlTapes);
  ctx.LoadInput(EncodeAsDocument(inst));
  Result<bool> streamed = EvaluatePaperXQueryOnTapes(ctx);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(streamed.value());
}

TEST(StreamingXmlTest, ScanBoundGrowsLogarithmically) {
  // The upper-bound complement to Theorem 13's lower bound: with
  // external tapes, filtering takes Theta(log N) scans. The paper
  // geometry, so every quadrupling of m adds merge passes.
  const sorting::ScopedProcessSortConfig paper(sorting::kPaperSortConfig);
  Rng rng(11);
  std::vector<std::uint64_t> scans;
  for (std::size_t m : {32u, 128u, 512u}) {
    problems::Instance inst = problems::EqualSets(m, 12, rng);
    stmodel::StContext ctx(kStreamingXmlTapes);
    ctx.LoadInput(EncodeAsDocument(inst));
    ASSERT_TRUE(FilterPaperXPathOnTapes(ctx).ok());
    scans.push_back(ctx.Report().scan_bound);
  }
  EXPECT_GT(scans[1] - scans[0], 0u);
  EXPECT_EQ(scans[1] - scans[0], scans[2] - scans[1]);
  EXPECT_LE(scans[1] - scans[0], 60u);
}

TEST(StreamingXmlTest, EmptySetsAreEqualAndSubset) {
  problems::Instance empty;
  stmodel::StContext ctx(kStreamingXmlTapes);
  ctx.LoadInput(EncodeAsDocument(empty));
  Result<bool> filter = FilterPaperXPathOnTapes(ctx);
  ASSERT_TRUE(filter.ok());
  EXPECT_FALSE(filter.value());  // nothing to select

  stmodel::StContext ctx2(kStreamingXmlTapes);
  ctx2.LoadInput(EncodeAsDocument(empty));
  Result<bool> query = EvaluatePaperXQueryOnTapes(ctx2);
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query.value());
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
  // instance -> XML (on tapes) -> XPath filter (on tapes): the full
  // streaming pipeline of Theorem 13's setup.
  Rng rng(5);
  problems::Instance inst = problems::PerturbedMultisets(8, 8, 1, rng);
  stmodel::StContext ectx(2);
  ectx.LoadInput(inst.Encode());
  ASSERT_TRUE(EncodeInstanceAsXmlOnTapes(ectx).ok());
  const std::string doc = ectx.tape(1).contents().substr(
      0, EncodeAsDocument(inst).size());
  stmodel::StContext fctx(kStreamingXmlTapes);
  fctx.LoadInput(doc);
  Result<bool> filtered = FilterPaperXPathOnTapes(fctx);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered.value(), PaperXPathSelects(inst));
}

}  // namespace
}  // namespace rstlab::query
