// Experiment E8 (Lemma 34 + the Lemma 21 proof skeleton): constructing
// fooling inputs for an under-resourced comparison machine.
//
// The machine compares the pairs its two scans can align but can never
// bring positions 0 and m together. Following the proof of Lemma 21:
// collect accepted inputs, group them by run skeleton, pick two that
// differ only at the uncompared positions, cross them over (Lemma 34)
// — the result is an accepted input that violates the predicate the
// machine was supposed to decide.

#include <chrono>
#include <iostream>
#include <map>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "listmachine/analysis.h"
#include "listmachine/machines.h"
#include "listmachine/skeleton.h"
#include "parallel/bench_recorder.h"
#include "parallel/seed_sequence.h"
#include "parallel/trial_runner.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::bench::SecondsSince;
using rstlab::core::Table;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;
using rstlab::parallel::SeedSequence;
using rstlab::parallel::TrialRunner;
using namespace rstlab::listmachine;

void RunFoolingTable(TrialRunner& runner, BenchRecorder& recorder) {
  Table table("E8: Lemma 34 fooling-pair construction",
              {"m", "accepted_inputs", "skeleton_classes",
               "fooling_pairs_tried", "fooled", "all_predicted"});
  for (std::size_t m : {2u, 4u, 8u, 16u}) {
    ReverseCompareMachine machine(m, m);
    ListMachineExecutor exec(&machine);
    const std::vector<ChoiceId> choices(8 * m + 16, 0);
    const auto start = std::chrono::steady_clock::now();

    // Sample predicate-satisfying ("yes") inputs; all are accepted.
    // Inputs come in families sharing a "spine" (the positions the
    // machine CAN compare) and varying only the blind-spot value
    // v_0 = v'_0 — exactly the step-7 conditioning of the Lemma 21
    // proof ("fix v_2..v_m, vary v_1"). One trial = one family; the
    // merge appends per-chunk results in chunk order, so the accepted
    // list (and everything derived from it) is schedule-independent.
    struct FamilyTally {
      std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
          found;  // (skeleton, accepted input)
      void Merge(const FamilyTally& o) {
        found.insert(found.end(), o.found.begin(), o.found.end());
      }
    };
    const std::uint64_t families = 10;
    const SeedSequence seeds(0xF001 + m);
    const FamilyTally family_tally = runner.RunSeeded<FamilyTally>(
        families, seeds,
        [&](std::uint64_t, Rng& rng, FamilyTally& local) {
          std::vector<std::uint64_t> base(2 * m);
          for (std::size_t j = 1; j < m; ++j) {
            base[j] = rng.UniformBelow(8);
          }
          for (std::size_t j = 1; j < m; ++j) base[m + j] = base[m - j];
          for (std::uint64_t blind = 0; blind < 6; ++blind) {
            std::vector<std::uint64_t> v = base;
            v[0] = blind;
            v[m] = blind;
            auto run = exec.RunWithChoices(v, choices, 1000000);
            if (!run.accepted) continue;
            local.found.emplace_back(BuildSkeleton(run).Serialize(),
                                     std::move(v));
          }
        });
    std::vector<std::vector<std::uint64_t>> accepted;
    std::map<std::string, std::vector<std::size_t>> by_skeleton;
    for (const auto& [skeleton, input] : family_tally.found) {
      by_skeleton[skeleton].push_back(accepted.size());
      accepted.push_back(input);
    }

    // Candidate pairs within a skeleton class that differ exactly at
    // the uncompared positions {0, m}; the crossover executions are
    // independent, so they form the second trial axis.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (const auto& [skel, indices] : by_skeleton) {
      for (std::size_t a = 0; a < indices.size(); ++a) {
        for (std::size_t b = a + 1; b < indices.size(); ++b) {
          const auto& v = accepted[indices[a]];
          const auto& w = accepted[indices[b]];
          bool differ_only_at_blind_spot = v[0] != w[0];
          for (std::size_t p = 0; p < 2 * m; ++p) {
            if (p == 0 || p == m) continue;
            if (v[p] != w[p]) differ_only_at_blind_spot = false;
          }
          if (differ_only_at_blind_spot) {
            pairs.emplace_back(indices[a], indices[b]);
          }
        }
      }
    }
    struct CrossoverTally {
      std::uint64_t tried = 0;
      std::uint64_t fooled = 0;
      std::uint64_t predicted = 0;
      void Merge(const CrossoverTally& o) {
        tried += o.tried;
        fooled += o.fooled;
        predicted += o.predicted;
      }
    };
    const CrossoverTally cross = runner.Run<CrossoverTally>(
        pairs.size(), [&](std::uint64_t t, CrossoverTally& local) {
          const auto& v = accepted[pairs[t].first];
          const auto& w = accepted[pairs[t].second];
          ++local.tried;
          CompositionOutcome outcome =
              TestComposition(exec, v, w, 0, m, choices, 1000000);
          if (outcome.preconditions_met && outcome.prediction_holds) {
            ++local.predicted;
            if (!ReverseCompareMachine::ReferencePredicate(
                    outcome.input_u, m)) {
              ++local.fooled;
            }
          }
        });
    recorder.Record(
        "E8.m=" + std::to_string(m), families + pairs.size(),
        SecondsSince(start),
        Checksum64({static_cast<std::uint64_t>(accepted.size()),
                    static_cast<std::uint64_t>(by_skeleton.size()),
                    cross.tried, cross.fooled, cross.predicted}));
    table.AddRow({std::to_string(m), std::to_string(accepted.size()),
                  std::to_string(by_skeleton.size()),
                  std::to_string(cross.tried),
                  std::to_string(cross.fooled),
                  cross.tried == cross.predicted ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "  paper: any machine whose skeleton never compares"
               " (i0, m+phi(i0)) accepts a crossed-over NO instance"
               " (steps 5-9 of the Lemma 21 proof)\n\n";
}

void RunRegimeTable() {
  Table table("E8b: the Lemma 21 parameter regime (where the lower bound"
              " bites)",
              {"t", "r", "m >= 24(t+1)^{4r}+1", "k = 2m+3",
               "log2(n) required"});
  for (std::size_t t : {2u, 3u}) {
    for (std::uint64_t r : {1u, 2u, 3u, 4u, 5u}) {
      const Lemma21Regime regime = ComputeLemma21Regime(t, r);
      if (regime.m_overflowed) {
        table.AddRow({std::to_string(t), std::to_string(r), "> 2^64",
                      "-", "-"});
        continue;
      }
      table.AddRow({std::to_string(t), std::to_string(r),
                    std::to_string(regime.m), std::to_string(regime.k),
                    rstlab::core::FormatDouble(regime.log2_n_required, 1)});
    }
  }
  table.Print(std::cout);
  std::cout << "  the explosion in m and n with r explains why the"
               " lower-bound regime (r = o(log N), n = m^3) is validated"
               " through its lemmas rather than exhaustive machine"
               " enumeration\n\n";
}

void BM_Composition(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  ReverseCompareMachine machine(m, m);
  ListMachineExecutor exec(&machine);
  std::vector<std::uint64_t> v(2 * m, 3);
  std::vector<std::uint64_t> w = v;
  w[0] = 4;
  w[m] = 4;
  const std::vector<ChoiceId> choices(8 * m + 16, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TestComposition(exec, v, w, 0, m, choices, 1000000));
  }
}
BENCHMARK(BM_Composition)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_fooling", [](rstlab::bench::Bench& b) {
        RunFoolingTable(b.runner, b.recorder);
        RunRegimeTable();
        return 0;
      });
}
