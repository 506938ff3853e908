// Robustness sweeps: random and adversarial byte strings into every
// parser and tape-level entry point. The contract is "error status or
// correct result", never a crash or an inconsistent answer.

#include <string>

#include <gtest/gtest.h>

#include "conform/harness.h"
#include "fingerprint/fingerprint.h"
#include "problems/instance.h"
#include "problems/reference.h"
#include "query/engine/spool.h"
#include "query/xml.h"
#include "sorting/deciders.h"
#include "sorting/parallel_sort.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "util/random.h"

namespace rstlab {
namespace {

std::string RandomBytes(Rng& rng, std::size_t max_len,
                        const std::string& alphabet) {
  const std::size_t len =
      static_cast<std::size_t>(rng.UniformBelow(max_len + 1));
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(
        alphabet[static_cast<std::size_t>(rng.UniformBelow(
            alphabet.size()))]);
  }
  return out;
}

/// Per-test trial count: RSTLAB_TEST_CASES when set, else `fallback`.
int Trials(int fallback) {
  return static_cast<int>(
      conform::EnvTestCases(static_cast<std::size_t>(fallback)));
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, InstanceParseNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < Trials(300); ++trial) {
    const std::string text = RandomBytes(rng, 64, "01#x< >/");
    Result<problems::Instance> parsed = problems::Instance::Parse(text);
    if (parsed.ok()) {
      // Round trip must reproduce the input exactly.
      EXPECT_EQ(parsed.value().Encode(), text);
    }
  }
}

TEST_P(FuzzTest, XmlParseNeverCrashes) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < Trials(300); ++trial) {
    const std::string text = RandomBytes(rng, 96, "01<>/abinstceq ");
    Result<query::XmlDocument> parsed = query::ParseXml(text);
    if (parsed.ok()) {
      // Serialization must parse again to the same document.
      const std::string again = query::SerializeXml(*parsed.value());
      Result<query::XmlDocument> reparsed = query::ParseXml(again);
      ASSERT_TRUE(reparsed.ok());
      EXPECT_EQ(query::SerializeXml(*reparsed.value()), again);
    }
  }
}

/// The tape deciders' lenient field model: fields are '#'-separated and
/// a trailing unterminated field still counts (the tape has no "strict
/// trailing separator" notion — content simply ends at the first blank).
std::vector<std::string> LenientFields(const std::string& text) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : text) {
    if (c == '#') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) fields.push_back(std::move(current));
  return fields;
}

TEST_P(FuzzTest, TapeDecidersErrorOrAgreeWithOracle) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < Trials(100); ++trial) {
    const std::string text = RandomBytes(rng, 48, "01#");
    const std::vector<std::string> fields = LenientFields(text);
    stmodel::StContext ctx(sorting::kDeciderTapes);
    ctx.LoadInput(text);
    Result<bool> decided = sorting::DecideOnTapes(
        problems::Problem::kMultisetEquality, ctx);
    if (fields.size() % 2 != 0) {
      EXPECT_FALSE(decided.ok()) << text;
      continue;
    }
    ASSERT_TRUE(decided.ok()) << text;
    // Oracle over the lenient field model.
    std::vector<std::string> first(
        fields.begin(),
        fields.begin() + static_cast<std::ptrdiff_t>(fields.size() / 2));
    std::vector<std::string> second(
        fields.begin() + static_cast<std::ptrdiff_t>(fields.size() / 2),
        fields.end());
    std::sort(first.begin(), first.end());
    std::sort(second.begin(), second.end());
    EXPECT_EQ(decided.value(), first == second) << text;
  }
}

TEST_P(FuzzTest, FingerprintTapeErrorOrSound) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < Trials(100); ++trial) {
    const std::string text = RandomBytes(rng, 48, "01#");
    Result<problems::Instance> parsed = problems::Instance::Parse(text);
    stmodel::StContext ctx(1);
    ctx.LoadInput(text);
    auto outcome = fingerprint::TestMultisetEqualityOnTapes(ctx, rng);
    if (!parsed.ok()) {
      EXPECT_FALSE(outcome.ok()) << text;
    } else if (outcome.ok() &&
               problems::RefMultisetEquality(parsed.value())) {
      // One-sided error: equal multisets must be accepted.
      EXPECT_TRUE(outcome.value().accepted) << text;
    }
  }
}

TEST_P(FuzzTest, MergeSortMatchesStdSortOnArbitraryFields) {
  Rng rng(GetParam() + 400);
  for (int trial = 0; trial < Trials(60); ++trial) {
    // Fields over a wider alphabet (the sorter is generic), including
    // empty fields.
    std::vector<std::string> fields;
    const std::size_t count =
        static_cast<std::size_t>(rng.UniformBelow(20));
    std::string input;
    for (std::size_t i = 0; i < count; ++i) {
      fields.push_back(RandomBytes(rng, 6, "01abc"));
      input += fields.back();
      input += '#';
    }
    std::sort(fields.begin(), fields.end());
    // The paper geometry merges every field; the default one sorts
    // these small inputs as one formation run.
    for (const sorting::SortConfig& config :
         {sorting::kPaperSortConfig, sorting::SortConfig{}}) {
      stmodel::StContext ctx(1);
      ctx.LoadInput(input);
      ASSERT_TRUE(sorting::ParallelSortFieldsOnTape(ctx, 0, config).ok());
      tape::Tape& t = ctx.tape(0);
      t.Seek(0);
      std::vector<std::string> sorted;
      while (!stmodel::AtEnd(t)) sorted.push_back(stmodel::ReadField(t));
      EXPECT_EQ(sorted, fields);
    }
  }
}

TEST_P(FuzzTest, BuildFromXmlNeverCrashes) {
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < Trials(200); ++trial) {
    const std::string text =
        RandomBytes(rng, 96, "01<>/seting12m ");
    stmodel::StContext ctx(1);
    ctx.LoadInput(text);
    auto spool = query::engine::RelationSpool::BuildFromXml(ctx);
    if (!spool.ok()) {
      // Malformed input surfaces as a named status, never a crash.
      EXPECT_EQ(spool.status().code(), StatusCode::kInvalidArgument)
          << spool.status();
      continue;
    }
    // Accepted documents spool only the two Section 4 lanes.
    for (const std::string& name : spool.value()->names()) {
      EXPECT_TRUE(name == "set1" || name == "set2") << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rstlab
