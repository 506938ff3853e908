// Experiments E10/E11 (Theorem 11): streaming relational algebra.
//
// Paper rows reproduced:
//  * (a) every relational algebra query evaluates with a
//    query-dependent constant number of sorts and scans — measured
//    scans fit c_Q * log2(N) with R^2 ~ 1;
//  * (b) the symmetric-difference query (R1 - R2) U (R2 - R1) has an
//    empty result exactly on SET-EQUALITY "yes" instances, transferring
//    the Theorem 6 lower bound to query evaluation.
//
// Every query runs through the query engine (`engine::ExecuteSharedScan`)
// at the paper's sort geometry, certified: the RST018 admission gate
// before the run and the RST015 check of the measured bill after it. A
// failed run, an E10 row that differs from `EvaluateInMemory` and an E11
// row with a wrong decision each print an ERROR line. The tables bill the
// shared input pass plus the plan.

#include <iostream>
#include <map>
#include <set>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/bitstring.h"
#include "util/random.h"

namespace {

using rstlab::BitString;
using rstlab::Rng;
using rstlab::core::FitLog2;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::extmem::StorageOptions;
using rstlab::sorting::RunOptions;
using namespace rstlab::query;

/// R1 draws `size` random 24-bit values; R2 takes each of R1's draws
/// with probability 1/2 and a fresh value otherwise, so the relations
/// share about half their tuples and every query's result depends on
/// the order the sorts leave. Each keeps the first copy of a value: a
/// set, in draw order.
std::map<std::string, Relation> MakeDatabase(Rng& rng, std::size_t size) {
  std::map<std::string, Relation> db;
  std::map<std::string, std::set<std::string>> seen;
  const auto add = [&](const std::string& name, const std::string& value) {
    db[name].name = name;
    db[name].arity = 1;
    if (seen[name].insert(value).second) db[name].tuples.push_back({value});
  };
  for (std::size_t i = 0; i < size; ++i) {
    const std::string value = BitString::Random(24, rng).ToString();
    add("R1", value);
    add("R2", rng.Bernoulli(0.5) ? value
                                 : BitString::Random(24, rng).ToString());
  }
  return db;
}

/// One certified engine evaluation and its bill.
struct EngineRun {
  bool ok = false;
  Relation result;
  /// Input size N in cells.
  std::size_t n = 0;
  /// Shared input pass plus plan: scans and internal bits.
  std::uint64_t scans = 0;
  std::size_t internal_bits = 0;
};

EngineRun RunCertified(const StorageOptions& storage,
                       const RelAlgExprPtr& query,
                       const std::map<std::string, Relation>& db) {
  rstlab::stmodel::StContext ctx(1, storage);
  ctx.LoadInput(EncodeDatabaseStream(db));
  engine::SharedScanOptions options;
  options.config.sort = rstlab::sorting::kPaperSortConfig;
  options.admit = true;  // RST018 before the run; RST015 after
  auto outcomes = engine::ExecuteSharedScan(
      ctx, {engine::QueryRequest{query, ""}}, options);
  EngineRun run;
  if (!outcomes.ok() || !outcomes.value()[0].status.ok()) {
    std::cout << "  ERROR: "
              << (outcomes.ok() ? outcomes.value()[0].status
                                : outcomes.status())
              << "\n";
    return run;
  }
  const engine::QueryOutcome& outcome = outcomes.value()[0];
  const auto input = ctx.Report();
  run.ok = true;
  run.result = outcome.result;
  run.n = ctx.input_size();
  run.scans = input.scan_bound + outcome.cost.scan_bound;
  run.internal_bits = input.internal_space + outcome.cost.internal_bits;
  return run;
}

void RunScalingTable(const StorageOptions& storage) {
  struct NamedQuery {
    const char* name;
    RelAlgExprPtr query;
  };
  const std::vector<NamedQuery> queries = {
      {"R1 - R2", Difference(Rel("R1"), Rel("R2"))},
      {"symdiff", SymmetricDifferenceQuery()},
      {"project+union", Project(Union(Rel("R1"), Rel("R2")), {0})},
  };
  for (const auto& nq : queries) {
    Table table(std::string("E10: engine evaluation of ") + nq.name +
                    " (k=2, L=1, certified)",
                {"tuples", "N", "scans", "int.bits", "agrees"});
    Rng rng(4711);
    std::vector<double> ns;
    std::vector<double> scans;
    for (std::size_t size : {32u, 64u, 128u, 256u, 512u, 1024u}) {
      std::map<std::string, Relation> db = MakeDatabase(rng, size);
      const EngineRun run = RunCertified(storage, nq.query, db);
      auto reference = EvaluateInMemory(nq.query, db);
      const bool agrees =
          run.ok && reference.ok() && run.result == reference.value();
      table.AddRow({std::to_string(size), std::to_string(run.n),
                    std::to_string(run.scans),
                    std::to_string(run.internal_bits),
                    agrees ? "yes" : "NO"});
      if (!agrees) {
        std::cout << "  ERROR: " << nq.name << " at " << size
                  << " tuples differs from EvaluateInMemory\n";
      }
      if (!run.ok) continue;
      ns.push_back(static_cast<double>(run.n));
      scans.push_back(static_cast<double>(run.scans));
    }
    table.Print(std::cout);
    const auto fit = FitLog2(ns, scans);
    std::cout << "  fit: scans = " << FormatDouble(fit.slope)
              << " * log2(N) + " << FormatDouble(fit.intercept)
              << "  (R^2 = " << FormatDouble(fit.r_squared)
              << "; paper Theorem 11(a): ST(O(log N), O(1), O(1)))\n\n";
  }
}

void RunQueryComplexityTable(const StorageOptions& storage) {
  // Theorem 11(a)'s c_Q made visible: deepen the query (chained unions
  // and differences) and fit scans ~ slope * log2(N) per depth. The
  // slope grows with the operator count and is independent of N — the
  // "constant number of sorts and scans per query" structure.
  Table table("E10b: the query-dependent constant c_Q",
              {"query depth (ops)", "slope (scans per log2 N)", "R^2"});
  for (int depth : {1, 2, 4, 8}) {
    Rng rng(4711);
    std::vector<double> ns;
    std::vector<double> scans;
    // Build a depth-op chain: ((R1 - R2) u (R2 - R1)) u ... alternating.
    RelAlgExprPtr query = Difference(Rel("R1"), Rel("R2"));
    for (int d = 1; d < depth; ++d) {
      query = d % 2 == 1 ? Union(query, Difference(Rel("R2"), Rel("R1")))
                         : Difference(query, Rel("R2"));
    }
    for (std::size_t size : {64u, 256u, 1024u}) {
      std::map<std::string, Relation> db = MakeDatabase(rng, size);
      const EngineRun run = RunCertified(storage, query, db);
      if (!run.ok) continue;
      ns.push_back(static_cast<double>(run.n));
      scans.push_back(static_cast<double>(run.scans));
    }
    if (ns.size() < 2) continue;
    const auto fit = FitLog2(ns, scans);
    table.AddRow({std::to_string(depth), FormatDouble(fit.slope, 1),
                  FormatDouble(fit.r_squared)});
  }
  table.Print(std::cout);
  std::cout << "  slope grows with the number of sort-requiring"
               " operators and not with N: c_Q is a property of the"
               " query alone (Theorem 11(a))\n\n";
}

void RunReductionTable(const StorageOptions& storage) {
  Table table(
      "E11: Theorem 11(b) — symdiff query decides SET-EQUALITY",
      {"m", "instances", "correct_decisions"});
  Rng rng(2026);
  for (std::size_t m : {8u, 32u, 128u}) {
    int correct = 0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      rstlab::problems::Instance inst =
          t % 2 == 0 ? rstlab::problems::EqualSets(m, 16, rng)
                     : rstlab::problems::PerturbedMultisets(m, 16, 1, rng);
      std::map<std::string, Relation> db;
      db["R1"].name = "R1";
      db["R2"].name = "R2";
      for (const auto& v : inst.first) {
        db["R1"].tuples.push_back({v.ToString()});
      }
      for (const auto& v : inst.second) {
        db["R2"].tuples.push_back({v.ToString()});
      }
      const EngineRun run =
          RunCertified(storage, SymmetricDifferenceQuery(), db);
      if (!run.ok) continue;
      correct += run.result.tuples.empty() ==
                 rstlab::problems::RefSetEquality(inst);
    }
    table.AddRow({std::to_string(m), std::to_string(trials),
                  std::to_string(correct) + "/" + std::to_string(trials)});
    if (correct != trials) {
      std::cout << "  ERROR: symdiff decided " << correct << "/" << trials
                << " instances correctly at m = " << m << "\n";
    }
  }
  table.Print(std::cout);
  std::cout << "  paper: Q' result empty iff R1 = R2, so evaluating Q'"
               " inherits the Omega(log N) random-access lower bound\n\n";
}

/// One engine run at the parsed options (timing loops).
void RunDefault(const RunOptions& run, const std::string& stream,
                const RelAlgExprPtr& query) {
  rstlab::stmodel::StContext ctx(1, run.storage);
  ctx.LoadInput(stream);
  engine::SharedScanOptions options;
  options.config.sort = run.sort;
  auto out = engine::ExecuteSharedScan(
      ctx, {engine::QueryRequest{query, ""}}, options);
  benchmark::DoNotOptimize(out);
}

void BM_SymmetricDifference(benchmark::State& state, const RunOptions& run) {
  Rng rng(8);
  std::map<std::string, Relation> db =
      MakeDatabase(rng, static_cast<std::size_t>(state.range(0)));
  const std::string stream = EncodeDatabaseStream(db);
  for (auto _ : state) RunDefault(run, stream, SymmetricDifferenceQuery());
  state.SetBytesProcessed(static_cast<std::int64_t>(
      stream.size() * static_cast<std::size_t>(state.iterations())));
}

void BM_Product(benchmark::State& state, const RunOptions& run) {
  Rng rng(9);
  std::map<std::string, Relation> db =
      MakeDatabase(rng, static_cast<std::size_t>(state.range(0)));
  const std::string stream = EncodeDatabaseStream(db);
  const RelAlgExprPtr query = Product(Rel("R1"), Rel("R2"));
  for (auto _ : state) RunDefault(run, stream, query);
}

}  // namespace

int main(int argc, char** argv) {
  // The tables run at the paper geometry (binary merges of one-field
  // runs; see RunCertified): at the default one, every size here is a
  // single formation run and the log fits would see no merge pass.
  return rstlab::bench::Main(
      argc, argv, "bench_relalg", [](rstlab::bench::Bench& b) {
        RunScalingTable(b.run.storage);
        RunQueryComplexityTable(b.run.storage);
        RunReductionTable(b.run.storage);
        benchmark::RegisterBenchmark("BM_SymmetricDifference",
                                     BM_SymmetricDifference, b.run)
            ->Arg(64)->Arg(256)->Arg(1024);
        benchmark::RegisterBenchmark("BM_Product", BM_Product, b.run)
            ->Arg(16)->Arg(64);
        return 0;
      });
}
