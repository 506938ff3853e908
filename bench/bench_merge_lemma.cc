// Experiment E7 (Lemmas 37/38, the merge lemma): an (r, t)-bounded list
// machine can compare at most t^{2r} * sortedness(phi) of the m pairs
// (i, m + phi(i)).
//
// The table pits machines with growing scan budgets against the
// bit-reversal permutation (sortedness ~ 2*sqrt(m)) and the identity
// permutation (sortedness m): measured compared-pair counts never exceed
// the bound, and for phi = bit-reversal they fall far short of m —
// the quantitative heart of the Theorem 6 lower bound.

#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "listmachine/analysis.h"
#include "listmachine/machines.h"
#include "permutation/phi.h"

namespace {

using rstlab::core::Table;
using namespace rstlab::listmachine;

std::vector<std::uint64_t> Iota(std::size_t count) {
  std::vector<std::uint64_t> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = i;
  return v;
}

void RunMergeLemmaTable() {
  Table table("E7: Lemma 38 merge-lemma bound",
              {"machine", "m", "phi", "r", "compared", "bound",
               "sortedness", "ok"});

  for (std::size_t m : {4u, 8u, 16u, 32u}) {
    for (const bool identity : {false, true}) {
      const auto phi =
          identity ? rstlab::permutation::Identity(m)
                   : rstlab::permutation::BitReversalPermutation(m);
      // The comparison machine (2 scans).
      {
        ReverseCompareMachine machine(m, m);
        ListMachineExecutor exec(&machine);
        std::vector<std::uint64_t> input(2 * m, 1);
        auto run = exec.RunDeterministic(input, 1000000);
        if (!run.ok()) continue;
        MergeLemmaCheck check = CheckMergeLemma(run.value(), phi);
        table.AddRow({"ReverseCompare", std::to_string(m),
                      identity ? "identity" : "bit-reversal",
                      std::to_string(run.value().ScanBound()),
                      std::to_string(check.compared_count),
                      std::to_string(check.bound),
                      std::to_string(check.sortedness),
                      check.within_bounds ? "yes" : "NO"});
      }
      // The constructive machine: decides identity alignment with 3
      // scans, realizing the full sortedness-m comparison budget.
      {
        IdentityCompareMachine machine(m);
        ListMachineExecutor exec(&machine);
        std::vector<std::uint64_t> input(2 * m, 1);
        auto run = exec.RunDeterministic(input, 1000000);
        if (!run.ok()) continue;
        MergeLemmaCheck check = CheckMergeLemma(run.value(), phi);
        table.AddRow({"IdentityCompare", std::to_string(m),
                      identity ? "identity" : "bit-reversal",
                      std::to_string(run.value().ScanBound()),
                      std::to_string(check.compared_count),
                      std::to_string(check.bound),
                      std::to_string(check.sortedness),
                      check.within_bounds ? "yes" : "NO"});
      }
      // A multi-sweep machine (more scans, more mixing).
      {
        ZigZagMachine machine(2, 4, 2 * m);
        ListMachineExecutor exec(&machine);
        auto run = exec.RunDeterministic(Iota(2 * m), 1000000);
        if (!run.ok()) continue;
        MergeLemmaCheck check = CheckMergeLemma(run.value(), phi);
        table.AddRow({"ZigZag(4 sweeps)", std::to_string(m),
                      identity ? "identity" : "bit-reversal",
                      std::to_string(run.value().ScanBound()),
                      std::to_string(check.compared_count),
                      std::to_string(check.bound),
                      std::to_string(check.sortedness),
                      check.within_bounds ? "yes" : "NO"});
      }
    }
  }
  table.Print(std::cout);
  std::cout << "  paper: compared pairs <= t^{2r} * sortedness(phi)"
               " (Lemma 38); for phi = bit-reversal this is o(m) when"
               " r = o(log m)\n\n";
}

void BM_ComparedPairs(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  ReverseCompareMachine machine(m, m);
  ListMachineExecutor exec(&machine);
  std::vector<std::uint64_t> input(2 * m, 1);
  auto run = exec.RunDeterministic(input, 1000000);
  const auto phi = rstlab::permutation::BitReversalPermutation(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckMergeLemma(run.value(), phi));
  }
}
BENCHMARK(BM_ComparedPairs)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_merge_lemma", [](rstlab::bench::Bench&) {
        RunMergeLemmaTable();
        return 0;
      });
}
