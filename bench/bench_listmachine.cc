// Experiments E6 and E16 (Lemmas 30/31/32): growth dynamics of list
// machines and the input-length independence of skeleton counts.
//
// Paper rows reproduced:
//  * Lemma 30: total list length <= (t+1)^r * m, cell size
//    <= 11 * max(t,2)^r;
//  * Lemma 31: run length <= k + k (t+1)^{r+1} m;
//  * Lemma 32: the number of distinct skeletons over many inputs stays
//    far below the (astronomical) bound and — the load-bearing fact —
//    does not grow with the value length n.

#include <iostream>
#include <set>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "listmachine/analysis.h"
#include "listmachine/machines.h"
#include "listmachine/skeleton.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using namespace rstlab::listmachine;

std::vector<std::uint64_t> Iota(std::size_t count, std::uint64_t start) {
  std::vector<std::uint64_t> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = start + i;
  return v;
}

void RunGrowthTable() {
  Table table("E6: Lemma 30/31 growth bounds on ZigZag machines",
              {"t", "sweeps", "m", "r", "lists", "bound", "cellsz",
               "bound", "runlen", "bound", "ok"});
  for (const auto& [t, sweeps, m] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {2, 1, 8},
           {2, 2, 8},
           {2, 4, 8},
           {3, 2, 8},
           {3, 4, 8},
           {4, 3, 16},
           {2, 6, 32}}) {
    ZigZagMachine machine(t, sweeps, m);
    ListMachineExecutor exec(&machine);
    auto run = exec.RunDeterministic(Iota(m, 0), 10000000);
    if (!run.ok()) continue;
    GrowthCheck growth = CheckGrowth(run.value(), m);
    const std::size_t k = sweeps * m + 2;
    RunShapeCheck shape = CheckRunShape(run.value(), m, k);
    table.AddRow(
        {std::to_string(t), std::to_string(sweeps), std::to_string(m),
         std::to_string(run.value().ScanBound()),
         std::to_string(growth.measured_total_list_length),
         std::to_string(growth.bound_total_list_length),
         std::to_string(growth.measured_max_cell_size),
         std::to_string(growth.bound_max_cell_size),
         std::to_string(shape.run_length),
         std::to_string(shape.bound_run_length),
         growth.within_bounds && shape.within_bounds ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void RunSkeletonCountTable() {
  Table table(
      "E16: Lemma 32 — skeleton count is independent of value length n",
      {"machine", "value_bits", "inputs", "distinct_skeletons",
       "log2(bound)"});
  Rng rng(5150);
  const std::size_t m = 4;
  for (std::size_t value_bits : {4u, 16u, 48u}) {
    ReverseCompareMachine machine(m, m);
    ListMachineExecutor exec(&machine);
    std::set<std::string> skeletons;
    const int inputs = 200;
    for (int i = 0; i < inputs; ++i) {
      std::vector<std::uint64_t> input(2 * m);
      for (auto& v : input) {
        v = rng.UniformBelow(std::uint64_t{1} << value_bits);
      }
      auto run = exec.RunDeterministic(input, 100000);
      if (!run.ok()) continue;
      skeletons.insert(BuildSkeleton(run.value()).Serialize());
    }
    // k for the reverse-compare machine: ~2m states + finals.
    const double log_bound = Lemma32LogBound(2 * m, 2 * m + 3, 2, 3);
    table.AddRow({"ReverseCompare(m=4)", std::to_string(value_bits),
                  std::to_string(inputs),
                  std::to_string(skeletons.size()),
                  FormatDouble(log_bound, 0)});
  }
  table.Print(std::cout);
  std::cout << "  paper: #skeletons <= (m+k+3)^{12m(t+1)^{2r+2}+24(t+1)^r},"
               " independent of n (step 8 of the Lemma 21 proof)\n\n";
}

void BM_ZigZagRun(benchmark::State& state) {
  const std::size_t sweeps = static_cast<std::size_t>(state.range(0));
  ZigZagMachine machine(2, sweeps, 16);
  ListMachineExecutor exec(&machine);
  const auto input = Iota(16, 0);
  for (auto _ : state) {
    auto run = exec.RunDeterministic(input, 10000000);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_ZigZagRun)->Arg(1)->Arg(3)->Arg(5);

void BM_SkeletonBuild(benchmark::State& state) {
  ReverseCompareMachine machine(8, 8);
  ListMachineExecutor exec(&machine);
  auto run = exec.RunDeterministic(Iota(16, 0), 100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSkeleton(run.value()).Serialize());
  }
}
BENCHMARK(BM_SkeletonBuild);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_listmachine", [](rstlab::bench::Bench&) {
        RunGrowthTable();
        RunSkeletonCountTable();
        return 0;
      });
}
