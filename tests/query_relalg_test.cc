#include <map>
#include <string>

#include <gtest/gtest.h>

#include "problems/generators.h"
#include "problems/reference.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "query/relation.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace rstlab::query {
namespace {

Relation MakeRelation(std::string name,
                      const std::vector<std::vector<std::string>>& rows) {
  Relation r;
  r.name = std::move(name);
  for (const auto& row : rows) {
    r.arity = std::max(r.arity, row.size());
    r.tuples.push_back(row);
  }
  return r;
}

// Tuples stay in draw order and may repeat, so the engine's sorts and
// duplicate elimination see unsorted input.
std::map<std::string, Relation> RandomDatabase(Rng& rng, std::size_t size,
                                               std::size_t arity) {
  std::map<std::string, Relation> db;
  for (const char* name : {"R1", "R2"}) {
    Relation r;
    r.name = name;
    r.arity = arity;
    for (std::size_t i = 0; i < size; ++i) {
      Tuple tuple;
      for (std::size_t c = 0; c < arity; ++c) {
        tuple.push_back(BitString::Random(4, rng).ToString());
      }
      r.tuples.push_back(tuple);
    }
    db[name] = r;
  }
  return db;
}

std::map<std::string, Relation> RandomDatabaseWide(Rng& rng,
                                                   std::size_t size) {
  std::map<std::string, Relation> db;
  for (const char* name : {"R1", "R2"}) {
    Relation r;
    r.name = name;
    r.arity = 1;
    for (std::size_t i = 0; i < size; ++i) {
      r.tuples.push_back({BitString::Random(20, rng).ToString()});
    }
    db[name] = r;
  }
  return db;
}

/// One certified engine run of `expr` over the Theorem 11 stream of
/// `db`; `scans`, when given, receives the input pass's scans plus the
/// plan's.
Result<Relation> EvaluateStreamed(
    const RelAlgExprPtr& expr, const std::map<std::string, Relation>& db,
    const sorting::SortConfig& sort = sorting::SortConfig{},
    std::uint64_t* scans = nullptr) {
  stmodel::StContext ctx(1);
  ctx.LoadInput(EncodeDatabaseStream(db));
  engine::SharedScanOptions options;
  options.config.sort = sort;
  Result<std::vector<engine::QueryOutcome>> run = engine::ExecuteSharedScan(
      ctx, {engine::QueryRequest{expr, ""}}, options);
  if (!run.ok()) return run.status();
  std::vector<engine::QueryOutcome> outcomes = std::move(run).value();
  engine::QueryOutcome& outcome = outcomes[0];
  if (!outcome.status.ok()) return outcome.status;
  if (scans != nullptr) {
    *scans = ctx.Report().scan_bound + outcome.cost.scan_bound;
  }
  return std::move(outcome.result);
}

Result<Relation> EvalBoth(const RelAlgExprPtr& expr,
                          const std::map<std::string, Relation>& db,
                          Relation* streamed_out) {
  Result<Relation> streamed = EvaluateStreamed(expr, db);
  EXPECT_TRUE(streamed.ok()) << streamed.status();
  if (streamed.ok() && streamed_out != nullptr) {
    *streamed_out = streamed.value();
  }
  return EvaluateInMemory(expr, db);
}

// ---------------------------------------------------------------------
// Relation / tuple encoding
// ---------------------------------------------------------------------

TEST(RelationTest, TupleEncodeDecodeRoundtrip) {
  Tuple t = {"01", "10", "111"};
  EXPECT_EQ(EncodeTuple(t), "01,10,111");
  EXPECT_EQ(DecodeTuple("01,10,111"), t);
  EXPECT_EQ(DecodeTuple("01"), (Tuple{"01"}));
}

TEST(RelationTest, NormalizeDeduplicates) {
  Relation r = MakeRelation("R", {{"1"}, {"0"}, {"1"}, {"0"}});
  EXPECT_EQ(r.tuples.size(), 4u);  // appended tuples may repeat
  r.Normalize();
  EXPECT_EQ(r.tuples, (std::vector<Tuple>{{"0"}, {"1"}}));
}

TEST(RelationTest, EqualityIsSetwise) {
  Relation a = MakeRelation("A", {{"0"}, {"1"}});
  Relation b = MakeRelation("B", {{"1"}, {"0"}});
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------
// In-memory evaluator
// ---------------------------------------------------------------------

TEST(InMemoryTest, BasicOperators) {
  // Input relations may repeat tuples; every result is normalized.
  std::map<std::string, Relation> db;
  db["R1"] = MakeRelation("R1", {{"0"}, {"1"}, {"00"}, {"1"}});
  db["R2"] = MakeRelation("R2", {{"1"}, {"11"}, {"11"}});

  Result<Relation> uni = EvaluateInMemory(Union(Rel("R1"), Rel("R2")), db);
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni.value().tuples,
            (std::vector<Tuple>{{"0"}, {"00"}, {"1"}, {"11"}}));

  Result<Relation> diff =
      EvaluateInMemory(Difference(Rel("R1"), Rel("R2")), db);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.value() == MakeRelation("x", {{"0"}, {"00"}}));

  Result<Relation> inter =
      EvaluateInMemory(Intersection(Rel("R1"), Rel("R2")), db);
  ASSERT_TRUE(inter.ok());
  EXPECT_TRUE(inter.value() == MakeRelation("x", {{"1"}}));

  Result<Relation> missing = EvaluateInMemory(Rel("R3"), db);
  EXPECT_FALSE(missing.ok());
}

TEST(InMemoryTest, SelectionAndProjection) {
  std::map<std::string, Relation> db;
  db["R1"] = MakeRelation(
      "R1", {{"0", "1"}, {"1", "1"}, {"0", "0"}});
  db["R2"] = MakeRelation("R2", {});

  Result<Relation> sel =
      EvaluateInMemory(SelectEqConst(Rel("R1"), 0, "0"), db);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().tuples.size(), 2u);

  Result<Relation> sel_col =
      EvaluateInMemory(SelectEqColumn(Rel("R1"), 0, 1), db);
  ASSERT_TRUE(sel_col.ok());
  EXPECT_TRUE(sel_col.value() ==
              MakeRelation("x", {{"1", "1"}, {"0", "0"}}));

  Result<Relation> proj = EvaluateInMemory(Project(Rel("R1"), {1}), db);
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().tuples.size(), 2u);  // dedup: {"1"}, {"0"}
}

TEST(InMemoryTest, Product) {
  std::map<std::string, Relation> db;
  db["R1"] = MakeRelation("R1", {{"0"}, {"1"}});
  db["R2"] = MakeRelation("R2", {{"a"}, {"b"}, {"c"}});
  Result<Relation> prod =
      EvaluateInMemory(Product(Rel("R1"), Rel("R2")), db);
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(prod.value().tuples.size(), 6u);
  EXPECT_EQ(prod.value().arity, 2u);
}

// ---------------------------------------------------------------------
// Engine (engine::ExecuteSharedScan) vs in-memory evaluator
// ---------------------------------------------------------------------

class StreamingAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingAgreementTest, AgreesOnRandomDatabases) {
  Rng rng(GetParam());
  std::map<std::string, Relation> db = RandomDatabase(rng, 12, 2);
  const std::vector<RelAlgExprPtr> queries = {
      Rel("R1"),
      Union(Rel("R1"), Rel("R2")),
      Difference(Rel("R1"), Rel("R2")),
      Difference(Rel("R2"), Rel("R1")),
      Intersection(Rel("R1"), Rel("R2")),
      SymmetricDifferenceQuery(),
      SelectEqColumn(Rel("R1"), 0, 1),
      Project(Rel("R1"), {0}),
      Project(Union(Rel("R1"), Rel("R2")), {1}),
      Product(Project(Rel("R1"), {0}), Project(Rel("R2"), {1})),
      Union(Intersection(Rel("R1"), Rel("R2")),
            Difference(Rel("R1"), Rel("R2"))),  // == R1
  };
  for (const auto& query : queries) {
    Relation streamed;
    Result<Relation> reference = EvalBoth(query, db, &streamed);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(streamed == reference.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(StreamingTest, EmptyDatabase) {
  Result<Relation> out = EvaluateStreamed(SymmetricDifferenceQuery(), {});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out.value().tuples.empty());
}


TEST(InMemoryTest, EquiJoin) {
  std::map<std::string, Relation> db;
  db["R1"] = MakeRelation("R1", {{"a", "1"}, {"b", "2"}, {"c", "1"}});
  db["R2"] = MakeRelation("R2", {{"1", "x"}, {"2", "y"}, {"3", "z"}});
  // Join R1.col1 = R2.col0.
  Result<Relation> joined = EvaluateInMemory(
      EquiJoin(Rel("R1"), Rel("R2"), 2, {{1, 0}}), db);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined.value() ==
              MakeRelation("x", {{"a", "1", "1", "x"},
                                 {"c", "1", "1", "x"},
                                 {"b", "2", "2", "y"}}));
}

TEST(StreamingTest, EquiJoinAgreesWithInMemory) {
  Rng rng(77);
  std::map<std::string, Relation> db = RandomDatabase(rng, 10, 2);
  const RelAlgExprPtr join =
      EquiJoin(Rel("R1"), Rel("R2"), 2, {{0, 0}});
  Relation streamed;
  Result<Relation> reference = EvalBoth(join, db, &streamed);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference.value().tuples.empty());
  EXPECT_TRUE(streamed == reference.value());
}

// Theorem 11(b): the symmetric-difference query decides SET-EQUALITY.
class SymmetricDifferenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymmetricDifferenceTest, EmptyResultIffSetsEqual) {
  Rng rng(GetParam());
  for (bool equal : {true, false}) {
    problems::Instance inst =
        equal ? problems::EqualSets(8, 8, rng)
              : problems::PerturbedMultisets(8, 8, 1, rng);
    std::map<std::string, Relation> db;
    db["R1"].name = "R1";
    db["R2"].name = "R2";
    for (const auto& v : inst.first) {
      db["R1"].tuples.push_back({v.ToString()});
    }
    for (const auto& v : inst.second) {
      db["R2"].tuples.push_back({v.ToString()});
    }
    Result<Relation> out = EvaluateStreamed(SymmetricDifferenceQuery(), db);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out.value().tuples.empty(),
              problems::RefSetEquality(inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetricDifferenceTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// Theorem 11(a): the streaming evaluation uses Theta(log N) scans.
TEST(StreamingTest, ScanBoundGrowsLogarithmically) {
  Rng rng(5);
  std::vector<std::uint64_t> scans;
  for (std::size_t size : {32u, 128u, 512u}) {
    // 20-bit values so the requested sizes are actually realized
    // (4-bit values would cap a set-semantics relation at 16 tuples).
    std::map<std::string, Relation> db = RandomDatabaseWide(rng, size);
    // The paper geometry, so every quadrupling of the data adds merge
    // passes to each sort.
    std::uint64_t total = 0;
    ASSERT_TRUE(EvaluateStreamed(SymmetricDifferenceQuery(), db,
                                 sorting::kPaperSortConfig, &total)
                    .ok());
    scans.push_back(total);
  }
  // Quadrupling the data adds a constant number of scans (the query
  // performs a constant number of merge sorts, each gaining two passes
  // per quadrupling) — the signature of c_Q * log N growth.
  EXPECT_GT(scans[1] - scans[0], 0u);
  EXPECT_EQ(scans[1] - scans[0], scans[2] - scans[1]);
  EXPECT_LE(scans[1] - scans[0], 200u);
  EXPECT_LT(scans[2], scans[0] * 3);
}

}  // namespace
}  // namespace rstlab::query
