// Experiment E5 (Remark 20): the bit-reversal permutation phi_m has
// sortedness <= 2*sqrt(m) - 1, while random permutations sit at
// ~2*sqrt(m) (and never below sqrt(m), by Erdos-Szekeres).
//
// The low sortedness of phi_m is the combinatorial engine of the
// Theorem 6 lower bound: a machine mixing information along t^{2r}
// monotone subsequences (Lemma 38) can reach only t^{2r} * 2*sqrt(m)
// of the m pairs it would need to compare.

#include <iostream>

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/experiment.h"
#include "driver.h"
#include "permutation/phi.h"
#include "permutation/sortedness.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::FormatDouble;
using rstlab::core::Table;

void RunSortednessTable() {
  Table table("E5: Remark 20 — sortedness of phi_m vs random",
              {"m", "sortedness(phi)", "bound 2*sqrt(m)-1",
               "random_perm", "sqrt(m)"});
  Rng rng(4242);
  for (std::size_t m : {4u, 16u, 64u, 256u, 1024u, 4096u, 16384u,
                        65536u}) {
    const auto phi = rstlab::permutation::BitReversalPermutation(m);
    const std::size_t s_phi = rstlab::permutation::Sortedness(phi);
    const auto random_perm =
        rstlab::permutation::RandomPermutation(m, rng);
    const std::size_t s_rand =
        rstlab::permutation::Sortedness(random_perm);
    const double root = std::sqrt(static_cast<double>(m));
    table.AddRow({std::to_string(m), std::to_string(s_phi),
                  FormatDouble(2 * root - 1, 1), std::to_string(s_rand),
                  FormatDouble(root, 1)});
  }
  table.Print(std::cout);
  std::cout << "  paper: sortedness(phi_m) <= 2*sqrt(m)-1 (Remark 20);"
               " every permutation >= sqrt(m) (Erdos-Szekeres)\n\n";
}

void BM_Sortedness(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const auto phi = rstlab::permutation::BitReversalPermutation(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rstlab::permutation::Sortedness(phi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      m * static_cast<std::size_t>(state.iterations())));
}
BENCHMARK(BM_Sortedness)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_BitReversalConstruction(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rstlab::permutation::BitReversalPermutation(m));
  }
}
BENCHMARK(BM_BitReversalConstruction)->Arg(1 << 10)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_sortedness", [](rstlab::bench::Bench&) {
        RunSortednessTable();
        return 0;
      });
}
