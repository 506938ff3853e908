// Experiment E14 (Corollary 7 / Appendix E): the reduction f(v) from
// CHECK-phi to the SHORT problem variants.
//
// Paper rows reproduced:
//  * f(v) preserves the answer for all three SHORT problems;
//  * |f(v)| = Theta(|v|) (measured blow-up just above 5x);
//  * f runs in ST(O(1), O(log N), 2): constant scans, logarithmic
//    internal bits, measured on the metered tape context.

#include <cmath>
#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "permutation/phi.h"
#include "problems/check_phi.h"
#include "problems/reference.h"
#include "problems/short_reduction.h"
#include "sorting/deciders.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using namespace rstlab::problems;

void RunReductionTable(const rstlab::extmem::StorageOptions& storage) {
  Table table("E14: Appendix E reduction f(v) to SHORT instances",
              {"m", "n", "N", "N'", "blowup", "record_bits", "scans",
               "int.bits", "answers_preserved"});
  Rng rng(1414);
  for (std::size_t m : {4u, 8u, 16u, 32u}) {
    const std::size_t n = 4 * m;
    CheckPhi problem(m, n,
                     rstlab::permutation::BitReversalPermutation(m));
    ShortReduction reduction(problem);

    bool preserved = true;
    std::uint64_t scans = 0;
    std::size_t internal_bits = 0;
    std::size_t n_in = 0;
    std::size_t n_out = 0;
    for (bool yes : {true, false}) {
      const Instance inst = yes ? problem.RandomYesInstance(rng)
                                : problem.RandomNoInstance(rng);
      const Instance reduced = reduction.Reduce(inst);
      n_in = inst.N();
      n_out = reduced.N();
      for (Problem p : {Problem::kSetEquality,
                        Problem::kMultisetEquality,
                        Problem::kCheckSort}) {
        preserved = preserved && RefDecide(p, reduced) == yes;
      }
      rstlab::stmodel::StContext ctx(2, storage);
      ctx.LoadInput(inst.Encode());
      if (!reduction.ReduceOnTapes(ctx).ok()) preserved = false;
      scans = ctx.Report().scan_bound;
      internal_bits = ctx.Report().internal_space;
    }
    table.AddRow(
        {std::to_string(m), std::to_string(n), std::to_string(n_in),
         std::to_string(n_out),
         FormatDouble(static_cast<double>(n_out) / n_in, 2),
         std::to_string(reduction.record_bits()), std::to_string(scans),
         std::to_string(internal_bits), preserved ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "  paper: |f(v)| = Theta(|v|), computable in"
               " ST(O(1), O(log N), 2); records of <= 5 log m"
               " <= 2 log m' bits\n\n";
}

void RunShortDeciderTable(const rstlab::sorting::RunOptions& run) {
  // Corollary 7 for the SHORT variants: with records of O(log m') bits,
  // the sort-based decider's record buffers shrink to O(log N), giving
  // the paper's ST(O(log N), O(log N), 3) profile end to end.
  Table table("E14b: deciding the reduced SHORT instances",
              {"m'", "N'", "record_bits", "scans", "int.bits",
               "log2(N')", "correct"});
  Rng rng(1415);
  for (std::size_t m : {8u, 16u, 32u, 64u}) {
    const std::size_t n = 4 * m;
    CheckPhi problem(m, n,
                     rstlab::permutation::BitReversalPermutation(m));
    ShortReduction reduction(problem);
    const Instance reduced =
        reduction.Reduce(problem.RandomYesInstance(rng));
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                   run.storage);
    ctx.LoadInput(reduced.Encode());
    auto decided = rstlab::sorting::DecideOnTapes(
        Problem::kMultisetEquality, ctx, run.sort);
    const auto report = ctx.Report();
    table.AddRow(
        {std::to_string(reduced.m()), std::to_string(reduced.N()),
         std::to_string(reduction.record_bits()),
         std::to_string(report.scan_bound),
         std::to_string(report.internal_space),
         FormatDouble(std::log2(static_cast<double>(reduced.N())), 1),
         decided.ok() && decided.value() ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "  paper: SHORT versions are in"
               " ST(O(log N), O(log N), 3) via standard merge sort —"
               " int.bits tracks a small multiple of log2(N')\n\n";
}

void BM_ShortReductionHost(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  CheckPhi problem(m, 4 * m,
                   rstlab::permutation::BitReversalPermutation(m));
  ShortReduction reduction(problem);
  const Instance inst = problem.RandomYesInstance(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduction.Reduce(inst));
  }
}
BENCHMARK(BM_ShortReductionHost)->Arg(8)->Arg(32)->Arg(128);

void BM_ShortReductionTapes(benchmark::State& state,
                            const rstlab::extmem::StorageOptions& storage) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  CheckPhi problem(m, 4 * m,
                   rstlab::permutation::BitReversalPermutation(m));
  ShortReduction reduction(problem);
  const std::string encoded = problem.RandomYesInstance(rng).Encode();
  for (auto _ : state) {
    rstlab::stmodel::StContext ctx(2, storage);
    ctx.LoadInput(encoded);
    benchmark::DoNotOptimize(reduction.ReduceOnTapes(ctx));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      encoded.size() * static_cast<std::size_t>(state.iterations())));
}

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_short_reduction", [](rstlab::bench::Bench& b) {
        RunReductionTable(b.run.storage);
        RunShortDeciderTable(b.run);
        benchmark::RegisterBenchmark("BM_ShortReductionTapes",
                                     BM_ShortReductionTapes, b.run.storage)
            ->Arg(8)->Arg(32)->Arg(128);
        return 0;
      });
}
