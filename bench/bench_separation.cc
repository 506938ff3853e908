// Experiment E15 (Theorem 6 + Theorem 8 + Corollaries 9/10): the
// separation picture at a glance.
//
// One table per input size compares, for MULTISET-EQUALITY:
//  * the deterministic sort-based decider  — Theta(log N) scans (ST side,
//    tight by Theorem 6);
//  * the randomized fingerprint tester     — 2 scans, one-sided error
//    (co-RST side, Theorem 8(a));
//  * the nondeterministic verifier         — constant scans given a
//    guess (NST side, Theorem 8(b)).
//
// Theorem 6 says no RST machine with o(log N) scans and
// O(N^{1/4}/log N) internal bits exists for these problems; together
// with the rows below that separates ST, RST, co-RST and NST at these
// resource bounds (Corollary 9) and lifts to sorting (Corollary 10).

#include <iostream>

#include <benchmark/benchmark.h>

#include "core/complexity.h"
#include "core/experiment.h"
#include "driver.h"
#include "fingerprint/fingerprint.h"
#include "nst/certificate.h"
#include "nst/paper_verifier.h"
#include "problems/generators.h"
#include "sorting/deciders.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::sorting::RunOptions;

void RunSeparationTable(const RunOptions& run) {
  Table table("E15: separation summary for MULTISET-EQUALITY",
              {"machine", "m", "N", "scans", "int.bits", "error profile",
               "class (paper)"});
  Rng rng(1515);
  for (std::size_t m : {16u, 256u}) {
    const std::size_t n = 16;
    rstlab::problems::Instance inst =
        rstlab::problems::EqualMultisets(m, n, rng);
    const std::string encoded = inst.Encode();

    {
      rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                     run.storage);
      ctx.LoadInput(encoded);
      auto decided = rstlab::sorting::DecideOnTapes(
          rstlab::problems::Problem::kMultisetEquality, ctx, run.sort);
      const auto report = ctx.Report();
      table.AddRow({"deterministic sort+scan", std::to_string(m),
                    std::to_string(inst.N()),
                    std::to_string(report.scan_bound),
                    std::to_string(report.internal_space), "none",
                    "ST(O(log N), ., O(1)) - tight per Thm 6"});
    }
    {
      rstlab::stmodel::StContext ctx(1, run.storage);
      ctx.LoadInput(encoded);
      auto outcome =
          rstlab::fingerprint::TestMultisetEqualityOnTapes(ctx, rng);
      const auto report = ctx.Report();
      table.AddRow({"randomized fingerprint", std::to_string(m),
                    std::to_string(inst.N()),
                    std::to_string(report.scan_bound),
                    std::to_string(report.internal_space),
                    "false pos <= 1/2",
                    "co-RST(2, O(log N), 1) - Thm 8(a)"});
      (void)outcome;
    }
    if (m <= 16) {
      auto cert = rstlab::nst::FindHonestCertificate(
          rstlab::problems::Problem::kMultisetEquality, inst);
      rstlab::stmodel::StContext ctx(3, run.storage);
      ctx.LoadInput(encoded);
      auto run = rstlab::nst::RunPaperVerifier(
          rstlab::problems::Problem::kMultisetEquality, inst, *cert, ctx);
      const auto report = ctx.Report();
      table.AddRow({"nondeterministic verify", std::to_string(m),
                    std::to_string(inst.N()),
                    std::to_string(report.scan_bound),
                    std::to_string(report.internal_space),
                    "none (given guess)",
                    "NST(3, O(log N), 2) - Thm 8(b)"});
      (void)run;
    }
  }
  table.Print(std::cout);
  std::cout
      << "  Theorem 6 (lower bound): no RST(o(log N), O(N^{1/4}/log N),"
         " O(1)) machine decides any of the three problems; hence\n"
      << "  Corollary 9: ST < RST < NST and RST != co-RST at these"
         " bounds, and Corollary 10: sorting is not in"
         " LasVegas-RST(o(log N), O(N^{1/4}/log N), O(1)).\n\n";
}

void RunLowerBoundRegimeTable(const RunOptions& run) {
  // The Theorem 6 *regime* made concrete: the internal-memory budget
  // O(N^{1/4}/log N) against which the lower bound holds, tabulated so
  // the scale of the statement is visible.
  Table table("E15b: the Theorem 6 memory regime s(N) = N^{1/4}/log N",
              {"N", "s(N) bits", "deterministic scans (measured)"});
  Rng rng(99);
  auto s_of_n = rstlab::core::FourthRootOverLogSpace(1.0);
  for (std::size_t m : {64u, 256u, 1024u, 4096u}) {
    rstlab::problems::Instance inst =
        rstlab::problems::EqualMultisets(m, 16, rng);
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                   run.storage);
    ctx.LoadInput(inst.Encode());
    auto decided = rstlab::sorting::DecideOnTapes(
        rstlab::problems::Problem::kMultisetEquality, ctx, run.sort);
    (void)decided;
    table.AddRow({std::to_string(inst.N()),
                  std::to_string(s_of_n(inst.N())),
                  std::to_string(ctx.Report().scan_bound)});
  }
  table.Print(std::cout);
  std::cout << "  the measured Theta(log N) scans of the deterministic"
               " decider are optimal: with o(log N) scans even"
               " randomization (one-sided) cannot help below this memory"
               " budget\n\n";
}

void BM_DeterministicVsRandomized(benchmark::State& state,
                                  const RunOptions& run) {
  const bool randomized = state.range(1) == 1;
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  rstlab::problems::Instance inst =
      rstlab::problems::EqualMultisets(m, 16, rng);
  const std::string encoded = inst.Encode();
  for (auto _ : state) {
    if (randomized) {
      rstlab::stmodel::StContext ctx(1, run.storage);
      ctx.LoadInput(encoded);
      benchmark::DoNotOptimize(
          rstlab::fingerprint::TestMultisetEqualityOnTapes(ctx, rng));
    } else {
      rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                     run.storage);
      ctx.LoadInput(encoded);
      benchmark::DoNotOptimize(rstlab::sorting::DecideOnTapes(
          rstlab::problems::Problem::kMultisetEquality, ctx, run.sort));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_separation", [](rstlab::bench::Bench& b) {
        RunSeparationTable(b.run);
        RunLowerBoundRegimeTable(b.run);
        benchmark::RegisterBenchmark("BM_DeterministicVsRandomized",
                                     BM_DeterministicVsRandomized, b.run)
            ->Args({256, 0})
            ->Args({256, 1})
            ->Args({1024, 0})
            ->Args({1024, 1});
        return 0;
      });
}
