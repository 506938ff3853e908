// Experiment E17 (Section 9, concluding remarks): the DISJOINT-SETS
// problem — the open problem the paper closes with.
//
// What is measurable:
//  * the deterministic sort-based decider handles it at Theta(log N)
//    scans like the other problems (upper-bound side);
//  * the paper's fingerprinting recipe does NOT transfer: residue
//    membership tests have errors in the wrong direction and aggregate
//    polynomial identities cannot express "no individual collision" —
//    the table quantifies the failure modes of the natural attempts.

#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "fingerprint/prime.h"
#include "problems/disjoint_sets.h"
#include "sorting/deciders.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::FitLog2;
using rstlab::core::FormatDouble;
using rstlab::core::Table;

void RunDeciderTable(const rstlab::sorting::RunOptions& run) {
  // The paper geometry (binary merges of one-field runs): at the
  // default one, every size here is a single formation run.
  Table table("E17a: DISJOINT-SETS deterministic decider (k=2, L=1)",
              {"m", "N", "scans", "int.bits", "correct"});
  Rng rng(1717);
  std::vector<double> ns;
  std::vector<double> scans;
  for (std::size_t m : {16u, 64u, 256u, 1024u}) {
    const std::size_t n = 16;
    rstlab::problems::Instance inst =
        rstlab::problems::DisjointSets(m, n, rng);
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                   run.storage);
    ctx.LoadInput(inst.Encode());
    auto decided = rstlab::sorting::DecideDisjointOnTapes(
        ctx, rstlab::sorting::kPaperSortConfig);
    const bool correct = decided.ok() && decided.value();
    table.AddRow({std::to_string(m), std::to_string(inst.N()),
                  std::to_string(ctx.Report().scan_bound),
                  std::to_string(ctx.Report().internal_space),
                  correct ? "yes" : "NO"});
    ns.push_back(static_cast<double>(inst.N()));
    scans.push_back(static_cast<double>(ctx.Report().scan_bound));
  }
  table.Print(std::cout);
  const auto fit = FitLog2(ns, scans);
  std::cout << "  fit: scans = " << FormatDouble(fit.slope)
            << " * log2(N) + " << FormatDouble(fit.intercept)
            << " (R^2 = " << FormatDouble(fit.r_squared)
            << ") — the ST upper bound; neither a matching lower bound"
               " nor a 2-scan randomized algorithm is known (open)\n\n";
}

void RunResidueGuessTable() {
  Table table(
      "E17b: why Theorem 8(a)-style residues fail for disjointness",
      {"prime", "err(disjoint->intersecting)", "err(intersecting->disjoint)"});
  Rng rng(1718);
  const std::size_t m = 16;
  const std::size_t n = 20;
  for (std::uint64_t prime : {31ULL, 1009ULL, 1048583ULL}) {
    int err_yes = 0;
    int err_no = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
      rstlab::problems::Instance yes =
          rstlab::problems::DisjointSets(m, n, rng);
      if (!rstlab::problems::GuessDisjointnessByResidues(yes, prime)
               .guessed_disjoint) {
        ++err_yes;
      }
      rstlab::problems::Instance no =
          rstlab::problems::OverlappingSets(m, n, 1, rng);
      if (rstlab::problems::GuessDisjointnessByResidues(no, prime)
              .guessed_disjoint) {
        ++err_no;
      }
    }
    table.AddRow({std::to_string(prime),
                  FormatDouble(err_yes / static_cast<double>(trials)),
                  FormatDouble(err_no / static_cast<double>(trials))});
  }
  table.Print(std::cout);
  std::cout
      << "  shared values always share residues, so err(intersecting->"
         "disjoint) = 0 — but that is the WRONG one-sidedness for an\n"
      << "  RST algorithm answering \"disjoint\" (which must never accept"
         " falsely); err(disjoint->intersecting) shrinks with the prime\n"
      << "  but only reaches 0 at Omega(set size) residue bits — no"
         " sublinear-memory one-sided tester falls out of the recipe.\n\n";
}

void BM_DisjointDecider(benchmark::State& state,
                        const rstlab::sorting::RunOptions& run) {
  Rng rng(2);
  rstlab::problems::Instance inst = rstlab::problems::DisjointSets(
      static_cast<std::size_t>(state.range(0)), 16, rng);
  const std::string encoded = inst.Encode();
  for (auto _ : state) {
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                   run.storage);
    ctx.LoadInput(encoded);
    benchmark::DoNotOptimize(
        rstlab::sorting::DecideDisjointOnTapes(ctx, run.sort));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      encoded.size() * static_cast<std::size_t>(state.iterations())));
}

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_disjoint", [](rstlab::bench::Bench& b) {
        RunDeciderTable(b.run);
        RunResidueGuessTable();
        benchmark::RegisterBenchmark("BM_DisjointDecider",
                                     BM_DisjointDecider, b.run)
            ->Arg(64)->Arg(256)->Arg(1024);
        return 0;
      });
}
