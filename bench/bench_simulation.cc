// Experiment E9 (Lemma 16, the Simulation Lemma): Turing machine runs
// transfer to list machine runs with identical acceptance behaviour,
// identical reversal counts, and a modest abstract-state census.
//
// Paper rows reproduced:
//  * acceptance probability preservation: for every choice sequence the
//    induced NLM run accepts iff the TM run accepts (Lemma 18 counting
//    then gives equal probabilities);
//  * (r, t)-boundedness transfer: NLM reversals == TM reversals;
//  * the state census stays small (bound (2) of Lemma 16).

#include <chrono>
#include <iostream>

#include <benchmark/benchmark.h>

#include <numeric>

#include "core/experiment.h"
#include "driver.h"
#include "listmachine/simulation.h"
#include "machine/machine_builder.h"
#include "machine/turing_machine.h"
#include "parallel/bench_recorder.h"
#include "parallel/trial_runner.h"

namespace {

using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;
using rstlab::parallel::TrialRunner;

rstlab::machine::TuringMachine Make(rstlab::machine::MachineSpec spec) {
  auto tm = rstlab::machine::TuringMachine::Create(std::move(spec));
  return std::move(tm).value();
}

void RunProbabilityTable(TrialRunner& runner, BenchRecorder& recorder) {
  Table table("E9a: acceptance probability preservation (Lemma 16)",
              {"machine", "input", "Pr[TM]", "Pr[NLM]", "equal"});
  struct Case {
    const char* name;
    rstlab::machine::MachineSpec spec;
    std::vector<std::string> fields;
  };
  std::vector<Case> cases;
  cases.push_back({"GuessFirstBit", rstlab::machine::zoo::GuessFirstBit(),
                   {"1"}});
  cases.push_back({"FairCoin", rstlab::machine::zoo::FairCoin(), {"0"}});
  cases.push_back({"BiasedCoin(3/4)",
                   rstlab::machine::zoo::BiasedCoin(3, 2), {"1"}});
  for (auto& c : cases) {
    rstlab::machine::TuringMachine tm = Make(std::move(c.spec));
    std::string word;
    for (const auto& f : c.fields) {
      word += f;
      word += '#';
    }
    const double tm_prob = tm.AcceptanceProbability(word, 100);
    // Enumerate choice sequences (Lemma 18): b' = lcm(1..b).
    const std::size_t b = tm.MaxBranching();
    std::size_t bp = 1;
    for (std::size_t i = 2; i <= b; ++i) bp = std::lcm(bp, i);
    const std::size_t len = 4;
    std::size_t total = 1;
    for (std::size_t i = 0; i < len; ++i) total *= bp;
    // Every choice sequence is an independent deterministic simulation:
    // the code axis maps straight onto the trial engine.
    struct AcceptTally {
      std::uint64_t accepting = 0;
      void Merge(const AcceptTally& o) { accepting += o.accepting; }
    };
    const auto start = std::chrono::steady_clock::now();
    const AcceptTally tally = runner.Run<AcceptTally>(
        total, [&](std::uint64_t code, AcceptTally& local) {
          std::vector<std::uint64_t> choices(len);
          std::size_t c2 = static_cast<std::size_t>(code);
          for (std::size_t i = 0; i < len; ++i) {
            choices[i] = c2 % bp;
            c2 /= bp;
          }
          auto sim = rstlab::listmachine::SimulateTmAsNlm(tm, c.fields,
                                                          choices, 100);
          if (sim.ok() && sim.value().run.accepted) ++local.accepting;
        });
    recorder.Record(std::string("E9a.") + c.name, total,
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count(),
                    Checksum64({tally.accepting,
                                static_cast<std::uint64_t>(total)}));
    const double nlm_prob = static_cast<double>(tally.accepting) /
                            static_cast<double>(total);
    table.AddRow({c.name, word, FormatDouble(tm_prob),
                  FormatDouble(nlm_prob),
                  std::abs(tm_prob - nlm_prob) < 1e-12 ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void RunResourceTable() {
  Table table("E9b: reversal and state-census transfer (Lemma 16)",
              {"machine", "fields", "TM_rev", "NLM_rev", "NLM_steps",
               "abstract_states"});
  rstlab::machine::TuringMachine tm =
      Make(rstlab::machine::zoo::TwoFieldEquality());
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    std::string v(n, '0');
    for (std::size_t i = 1; i < n; i += 2) v[i] = '1';
    auto tm_run = tm.RunWithChoices(
        v + "#" + v + "#", std::vector<std::uint64_t>(100000, 0), 100000);
    auto sim = rstlab::listmachine::SimulateTmAsNlm(tm, {v, v}, {},
                                                    100000);
    if (!sim.ok()) continue;
    std::uint64_t tm_rev = 0;
    for (auto r : tm_run.costs.external_reversals) tm_rev += r;
    std::uint64_t nlm_rev = 0;
    for (auto r : sim.value().run.reversals) nlm_rev += r;
    table.AddRow({"TwoFieldEquality", "2 x " + std::to_string(n),
                  std::to_string(tm_rev), std::to_string(nlm_rev),
                  std::to_string(sim.value().run.steps.size()),
                  std::to_string(sim.value().distinct_states)});
  }
  table.Print(std::cout);
  std::cout << "  paper: the NLM is (r(m(n+1)), t)-bounded with the"
               " TM's own r, and |A| <= 2^{d t^2 r s + 3t log(m(n+1))}\n\n";
}

void BM_Simulation(benchmark::State& state) {
  rstlab::machine::TuringMachine tm =
      Make(rstlab::machine::zoo::TwoFieldEquality());
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::string v(n, '1');
  for (auto _ : state) {
    auto sim =
        rstlab::listmachine::SimulateTmAsNlm(tm, {v, v}, {}, 1000000);
    benchmark::DoNotOptimize(sim);
  }
}
BENCHMARK(BM_Simulation)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_simulation", [](rstlab::bench::Bench& b) {
        RunProbabilityTable(b.runner, b.recorder);
        RunResourceTable();
        return 0;
      });
}
