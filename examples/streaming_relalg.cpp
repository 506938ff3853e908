// Streaming relational algebra (Theorem 11): evaluate queries on a
// tuple stream with sorts and scans only, and watch the symmetric
// difference query decide SET-EQUALITY. All queries share one pass over
// the input stream; each runs as its own certified plan with its own
// (r, s) bill.
//
//   build/examples/streaming_relalg [tuples]

#include <cstdlib>
#include <iostream>
#include <map>
#include <vector>

#include "core/rstlab.h"

namespace {

namespace engine = rstlab::query::engine;
using rstlab::query::Rel;
using rstlab::query::Relation;

/// Runs every query over ONE shared pass of the database's tuple stream
/// and checks each result against the in-memory evaluator. Returns
/// false on any failure or mismatch.
bool ShowQueries(const std::vector<engine::QueryRequest>& queries,
                 const std::map<std::string, Relation>& db) {
  rstlab::stmodel::StContext ctx(1);
  ctx.LoadInput(rstlab::query::EncodeDatabaseStream(db));
  auto outcomes = engine::ExecuteSharedScan(ctx, queries, {});
  if (!outcomes.ok()) {
    std::cerr << "shared scan failed: " << outcomes.status() << "\n";
    return false;
  }
  bool all_match = true;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const engine::QueryOutcome& outcome = outcomes.value()[i];
    auto reference = rstlab::query::EvaluateInMemory(queries[i].expr, db);
    if (!outcome.status.ok() || !reference.ok()) {
      std::cerr << queries[i].label << ": evaluation failed: "
                << (outcome.status.ok() ? reference.status()
                                        : outcome.status)
                << "\n";
      all_match = false;
      continue;
    }
    const bool match = outcome.result == reference.value();
    all_match = all_match && match;
    std::cout << "  " << queries[i].label << ": "
              << outcome.result.tuples.size() << " tuples   ["
              << outcome.cost.ToString() << "]  "
              << (match ? "(matches in-memory evaluator)" : "(MISMATCH!)")
              << "\n";
  }
  std::cout << "  shared input pass: [" << ctx.Report().ToString()
            << "]\n";
  return all_match;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tuples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  rstlab::Rng rng(7);

  // Two unary relations of random 24-bit values, sharing roughly half
  // their tuples.
  std::map<std::string, Relation> db;
  db["R1"].name = "R1";
  db["R2"].name = "R2";
  db["R1"].arity = db["R2"].arity = 1;
  for (std::size_t i = 0; i < tuples; ++i) {
    const std::string v = rstlab::BitString::Random(24, rng).ToString();
    db["R1"].tuples.push_back({v});
    if (i % 2 == 0) {
      db["R2"].tuples.push_back({v});
    } else {
      db["R2"].tuples.push_back(
          {rstlab::BitString::Random(24, rng).ToString()});
    }
  }
  std::cout << "R1: " << db["R1"].tuples.size() << " tuples, R2: "
            << db["R2"].tuples.size() << " tuples; stream length "
            << rstlab::query::EncodeDatabaseStream(db).size()
            << " characters\n\n";

  using rstlab::query::Difference;
  using rstlab::query::Intersection;
  using rstlab::query::SymmetricDifferenceQuery;
  using rstlab::query::Union;

  const engine::QueryRequest symdiff{SymmetricDifferenceQuery(),
                                     "(R1-R2) ∪ (R2-R1)"};
  const std::vector<engine::QueryRequest> queries = {
      {Difference(Rel("R1"), Rel("R2")), "R1 - R2"},
      {Difference(Rel("R2"), Rel("R1")), "R2 - R1"},
      {Intersection(Rel("R1"), Rel("R2")), "R1 ∩ R2"},
      {Union(Rel("R1"), Rel("R2")), "R1 ∪ R2"},
      symdiff,
  };
  bool ok = ShowQueries(queries, db);

  std::cout << "\nNow make R2 a copy of R1 — the symmetric difference "
               "empties out,\nwhich is how Theorem 11(b) reduces "
               "SET-EQUALITY to query evaluation:\n\n";
  db["R2"] = db["R1"];
  db["R2"].name = "R2";
  ok = ShowQueries({symdiff}, db) && ok;
  return ok ? 0 : 1;
}
