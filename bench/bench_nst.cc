// Experiment E4 (Theorem 8(b)): nondeterministic guess-and-verify
// machines with a constant number of scans and O(log N) internal memory.
//
// Paper rows reproduced:
//  * completeness: on every "yes" instance some certificate is accepted
//    by the paper's copies-on-tape verifier;
//  * soundness (exhaustive for tiny m): on "no" instances NO certificate
//    is accepted;
//  * resource profile: a constant number of scans and O(log N) internal
//    bits, at external-space cost l * |u| (which is why the paper's
//    construction is a theoretical device, exercised here at toy scale).

#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "nst/certificate.h"
#include "nst/paper_verifier.h"
#include "permutation/sortedness.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::core::Table;
using rstlab::problems::Problem;

void RunVerifierTable(const rstlab::extmem::StorageOptions& storage) {
  Table table("E4: Theorem 8(b) paper verifier (3-tape layout)",
              {"problem", "m", "n", "copies", "|u|", "scans", "int.bits",
               "ext.cells", "verdict"});
  Rng rng(31337);
  for (Problem problem :
       {Problem::kMultisetEquality, Problem::kCheckSort,
        Problem::kSetEquality}) {
    for (std::size_t m : {2u, 4u, 6u}) {
      const std::size_t n = 6;
      rstlab::problems::Instance inst =
          problem == Problem::kCheckSort
              ? rstlab::problems::SortedPair(m, n, rng)
              : rstlab::problems::EqualMultisets(m, n, rng);
      auto cert = rstlab::nst::FindHonestCertificate(problem, inst);
      if (!cert.has_value()) continue;
      rstlab::stmodel::StContext ctx(3, storage);
      ctx.LoadInput(inst.Encode());
      auto run =
          rstlab::nst::RunPaperVerifier(problem, inst, *cert, ctx);
      if (!run.ok()) continue;
      const auto report = ctx.Report();
      table.AddRow({rstlab::problems::ProblemName(problem),
                    std::to_string(m), std::to_string(n),
                    std::to_string(run.value().copies_written),
                    std::to_string(run.value().copy_length),
                    std::to_string(report.scan_bound),
                    std::to_string(report.internal_space),
                    std::to_string(report.external_space),
                    run.value().accepted ? "accept" : "REJECT"});
    }
  }
  table.Print(std::cout);
  std::cout << "  paper: NST(3, O(log N), 2); measured: constant scans on"
               " a 3-tape layout, O(log N) internal bits\n\n";
}

void RunSoundnessTable() {
  Table table(
      "E4b: exhaustive certificate soundness (all pi for tiny m)",
      {"problem", "m", "instances", "agree_with_oracle"});
  Rng rng(999);
  for (Problem problem :
       {Problem::kMultisetEquality, Problem::kCheckSort,
        Problem::kSetEquality}) {
    const std::size_t m = 4;
    int agree = 0;
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
      rstlab::problems::Instance inst;
      switch (t % 4) {
        case 0:
          inst = rstlab::problems::EqualMultisets(m, 5, rng);
          break;
        case 1:
          inst = rstlab::problems::PerturbedMultisets(m, 5, 1, rng);
          break;
        case 2:
          inst = rstlab::problems::SortedPair(m, 5, rng);
          break;
        default:
          inst = rstlab::problems::MisorderedPair(m, 5, rng);
          break;
      }
      const bool exists =
          rstlab::nst::ExistsAcceptingCertificate(problem, inst);
      agree += exists == rstlab::problems::RefDecide(problem, inst);
    }
    table.AddRow({rstlab::problems::ProblemName(problem),
                  std::to_string(m), std::to_string(trials),
                  std::to_string(agree) + "/" + std::to_string(trials)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void BM_PaperVerifier(benchmark::State& state,
                      const rstlab::extmem::StorageOptions& storage) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  rstlab::problems::Instance inst =
      rstlab::problems::EqualMultisets(m, 6, rng);
  auto cert = rstlab::nst::FindHonestCertificate(
      Problem::kMultisetEquality, inst);
  for (auto _ : state) {
    rstlab::stmodel::StContext ctx(3, storage);
    ctx.LoadInput(inst.Encode());
    auto run = rstlab::nst::RunPaperVerifier(Problem::kMultisetEquality,
                                             inst, *cert, ctx);
    benchmark::DoNotOptimize(run);
  }
}

void BM_ExhaustiveCertificates(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  rstlab::problems::Instance inst =
      rstlab::problems::PerturbedMultisets(m, 5, 1, rng);
  for (auto _ : state) {
    bool exists = rstlab::nst::ExistsAcceptingCertificate(
        Problem::kMultisetEquality, inst);
    benchmark::DoNotOptimize(exists);
  }
}
BENCHMARK(BM_ExhaustiveCertificates)->Arg(4)->Arg(6)->Arg(7);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_nst", [](rstlab::bench::Bench& b) {
        RunVerifierTable(b.run.storage);
        RunSoundnessTable();
        benchmark::RegisterBenchmark("BM_PaperVerifier", BM_PaperVerifier,
                                     b.run.storage)
            ->Arg(2)->Arg(4)->Arg(8);
        return 0;
      });
}
