// Ablation experiments for the Theorem 8(a) design choices.
//
// A1 — modulus-size ablation: the paper picks the prime bound
//      k = m^3 * n * log(m^3 * n). Shrinking k raises the residue
//      collision rate and with it the false-positive rate; the table
//      sweeps k' in {mn, m^2 n, paper}.
// A2 — fixed-prime adversary: if p1 is FIXED instead of random, the
//      instance {v, w} vs {v + p1, w - p1} (equal residues, equal
//      fingerprints) is accepted with probability 1 despite being a
//      "no" instance — randomness over p1 is load-bearing, not an
//      implementation detail.
// A3 — x-randomization ablation: with x fixed to 1 the fingerprint
//      degenerates to comparing multiset sizes; any same-size unequal
//      multisets are accepted. Randomizing x over {1..p2-1} is what
//      turns residue multisets into a polynomial identity test.

#include <chrono>
#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "extmem/storage.h"
#include "fingerprint/batch.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/prime.h"
#include "parallel/bench_recorder.h"
#include "parallel/seed_sequence.h"
#include "parallel/trial_runner.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "sorting/parallel_sort.h"
#include "stmodel/st_context.h"
#include "util/bitstring.h"
#include "util/random.h"
#include "util/simd.h"

namespace {

using rstlab::BitString;
using rstlab::Rng;
using rstlab::bench::SecondsSince;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::fingerprint::BatchFingerprintEngine;
using rstlab::fingerprint::BatchTally;
using rstlab::fingerprint::FingerprintParamBatch;
using rstlab::fingerprint::FingerprintParams;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;
using rstlab::parallel::SeedSequence;
using rstlab::parallel::TrialRunner;
using rstlab::simd::SimdLevel;

/// Integer tally of trials attempted / trials fooled, merged by sum.
struct FoolTally {
  std::uint64_t attempted = 0;
  std::uint64_t fooled = 0;
  void Merge(const FoolTally& o) {
    attempted += o.attempted;
    fooled += o.fooled;
  }
  double rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(fooled) /
                                static_cast<double>(attempted);
  }
};

/// Builds params with an explicitly chosen k (instead of the paper's).
rstlab::Result<FingerprintParams> ParamsWithK(std::uint64_t k, Rng& rng) {
  FingerprintParams params;
  params.k = std::max<std::uint64_t>(2, k);
  auto p1 = rstlab::fingerprint::RandomPrimeAtMost(params.k, rng);
  if (!p1.ok()) return p1.status();
  params.p1 = p1.value();
  auto p2 = rstlab::fingerprint::PrimeInBertrandInterval(params.k);
  if (!p2.ok()) return p2.status();
  params.p2 = p2.value();
  params.x = rng.UniformInRange(1, params.p2 - 1);
  return params;
}

void RunModulusAblation(SimdLevel simd, TrialRunner& runner,
                        BenchRecorder& recorder) {
  Table table("A1: fingerprint false-positive rate vs prime bound k",
              {"m", "n", "k choice", "k", "false_pos_rate", "paper bound"});
  const std::size_t m = 32;
  const std::size_t n = 24;
  struct Choice {
    const char* label;
    std::uint64_t k;
  };
  const std::uint64_t mn = static_cast<std::uint64_t>(m) * n;
  const std::uint64_t paper_k =
      static_cast<std::uint64_t>(m) * m * m * n * 25;  // ~ m^3 n log
  std::size_t choice_index = 0;
  for (const Choice& choice :
       {Choice{"m*n (tiny)", mn}, Choice{"m^2*n", mn * m},
        Choice{"m^3*n*log (paper)", paper_k}}) {
    const std::uint64_t trials = 400;
    const SeedSequence seeds(0xAB1000 + choice_index++);
    const auto start = std::chrono::steady_clock::now();
    // Each trial evaluates an 8-lane batch of independent parameter
    // draws at the chosen k in one pass over the instance values.
    const std::uint64_t lanes = 8;
    const FoolTally tally = runner.RunSeeded<FoolTally>(
        trials, seeds, [&](std::uint64_t, Rng& rng, FoolTally& local) {
          rstlab::problems::Instance inst =
              rstlab::problems::PerturbedMultisets(m, n, 1, rng);
          FingerprintParamBatch batch;
          for (std::uint64_t lane = 0; lane < lanes; ++lane) {
            auto params = ParamsWithK(choice.k, rng);
            if (!params.ok()) continue;
            batch.PushLane(params.value());
          }
          const BatchFingerprintEngine engine(batch, simd);
          const BatchTally outcome = engine.Evaluate(inst);
          local.attempted += batch.lanes();
          local.fooled += outcome.accepted_count();
        });
    recorder.Record("A1.k=" + std::to_string(choice.k), trials,
                    SecondsSince(start),
                    Checksum64({tally.attempted, tally.fooled}));
    table.AddRow({std::to_string(m), std::to_string(n), choice.label,
                  std::to_string(choice.k), FormatDouble(tally.rate()),
                  "<= 0.5 at the paper's k"});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

void RunFixedPrimeAdversary(SimdLevel simd, TrialRunner& runner,
                            BenchRecorder& recorder) {
  Table table("A2: adversarial instance against a FIXED prime p1",
              {"p1 policy", "trials", "false_pos_rate", "note"});
  const std::size_t n = 40;
  const std::uint64_t fixed_p1 = 1009;  // any fixed prime
  const std::uint64_t trials = 300;

  // Adversarial construction: second list shifts one value up by p1 and
  // another down by p1 — all residues mod p1 unchanged, so the
  // fingerprint of the two lists is IDENTICAL for every x, yet the
  // multisets differ.
  auto adversarial = [&](Rng& r) {
    rstlab::problems::Instance inst;
    const std::uint64_t a =
        r.UniformInRange(fixed_p1 + 1, (1ULL << 30));
    const std::uint64_t b =
        r.UniformInRange(fixed_p1 + 1, (1ULL << 30));
    inst.first = {BitString::FromUint64(a, n),
                  BitString::FromUint64(b, n)};
    inst.second = {BitString::FromUint64(a + fixed_p1, n),
                   BitString::FromUint64(b - fixed_p1, n)};
    return inst;
  };

  // The Bertrand prime for the fixed policy is a constant of the
  // experiment; compute it once outside the trial loop.
  const std::uint64_t fixed_p2 =
      rstlab::fingerprint::PrimeInBertrandInterval(fixed_p1).value();
  struct A2Tally {
    std::uint64_t fooled_fixed = 0;
    std::uint64_t fooled_random = 0;
    void Merge(const A2Tally& o) {
      fooled_fixed += o.fooled_fixed;
      fooled_random += o.fooled_random;
    }
  };
  const SeedSequence seeds(0xAB2);
  const auto start = std::chrono::steady_clock::now();
  const A2Tally tally = runner.RunSeeded<A2Tally>(
      trials, seeds, [&](std::uint64_t, Rng& rng, A2Tally& local) {
        rstlab::problems::Instance inst = adversarial(rng);
        // Both policies ride one 2-lane batch: lane 0 fixes p1, lane 1
        // samples the paper's random p1 — a single pass over the values
        // evaluates the adversary against both.
        FingerprintParams fixed;
        fixed.k = fixed_p1;
        fixed.p1 = fixed_p1;
        fixed.p2 = fixed_p2;
        fixed.x = rng.UniformInRange(1, fixed.p2 - 1);
        FingerprintParamBatch batch;
        batch.PushLane(fixed);
        auto random_params =
            rstlab::fingerprint::SampleFingerprintParams(inst.m(), n, rng);
        if (random_params.ok()) batch.PushLane(random_params.value());
        const BatchTally outcome =
            BatchFingerprintEngine(batch, simd).Evaluate(inst);
        local.fooled_fixed += outcome.lane_accepted[0];
        if (batch.lanes() > 1) {
          local.fooled_random += outcome.lane_accepted[1];
        }
      });
  recorder.Record("A2", trials, SecondsSince(start),
                  Checksum64({tally.fooled_fixed, tally.fooled_random}));
  table.AddRow(
      {"fixed p1 = 1009", std::to_string(trials),
       FormatDouble(tally.fooled_fixed / static_cast<double>(trials)),
       "adversary wins every time"});
  table.AddRow(
      {"random p1 <= k (paper)", std::to_string(trials),
       FormatDouble(tally.fooled_random / static_cast<double>(trials)),
       "adversary defeated"});
  table.Print(std::cout);
  std::cout << "  randomizing the prime is what defeats residue-aligned"
               " adversaries (step 2 of Theorem 8(a))\n\n";
}

void RunFixedXAblation(SimdLevel simd, TrialRunner& runner,
                       BenchRecorder& recorder) {
  Table table("A3: x randomization ablation",
              {"x policy", "false_pos_rate", "note"});
  const std::size_t m = 16;
  const std::size_t n = 24;
  const std::uint64_t trials = 300;
  struct A3Tally {
    std::uint64_t fooled_fixed_x = 0;
    std::uint64_t fooled_random_x = 0;
    void Merge(const A3Tally& o) {
      fooled_fixed_x += o.fooled_fixed_x;
      fooled_random_x += o.fooled_random_x;
    }
  };
  const SeedSequence seeds(0xAB3);
  const auto start = std::chrono::steady_clock::now();
  const A3Tally tally = runner.RunSeeded<A3Tally>(
      trials, seeds, [&](std::uint64_t, Rng& rng, A3Tally& local) {
        // Unequal multisets of the same size.
        rstlab::problems::Instance inst =
            rstlab::problems::PerturbedMultisets(m, n, 1, rng);
        auto params =
            rstlab::fingerprint::SampleFingerprintParams(m, n, rng);
        if (!params.ok()) return;
        FingerprintParams with_fixed_x = params.value();
        with_fixed_x.x = 1;  // degenerate: counts elements only
        // Both x policies share one 2-lane batch evaluation.
        FingerprintParamBatch batch;
        batch.PushLane(with_fixed_x);
        batch.PushLane(params.value());
        const BatchTally outcome =
            BatchFingerprintEngine(batch, simd).Evaluate(inst);
        local.fooled_fixed_x += outcome.lane_accepted[0];
        local.fooled_random_x += outcome.lane_accepted[1];
      });
  recorder.Record(
      "A3", trials, SecondsSince(start),
      Checksum64({tally.fooled_fixed_x, tally.fooled_random_x}));
  table.AddRow(
      {"x = 1 (fixed)",
       FormatDouble(tally.fooled_fixed_x / static_cast<double>(trials)),
       "sum x^e == m always: accepts every same-size instance"});
  table.AddRow(
      {"x uniform in {1..p2-1} (paper)",
       FormatDouble(tally.fooled_random_x / static_cast<double>(trials)),
       "polynomial identity test"});
  table.Print(std::cout);
  std::cout << "\n";
}

void RunKWayAblation(const rstlab::extmem::StorageOptions& storage) {
  Table table("A4: k-way merge sort — tapes vs scans (Definition 1"
              " accounting, run length 1)",
              {"k (fanout)", "passes", "scan bound r", "int.bits"});
  Rng rng(0xAB4);
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < 1024; ++i) {
    fields.push_back(BitString::Random(16, rng).ToString());
  }
  std::string input;
  for (const auto& f : fields) {
    input += f;
    input += '#';
  }
  for (std::size_t k : {2u, 3u, 4u, 6u, 8u, 12u}) {
    rstlab::sorting::SortConfig config = rstlab::sorting::kPaperSortConfig;
    config.fanout = k;
    rstlab::stmodel::StContext ctx(1, storage);
    ctx.LoadInput(input);
    rstlab::sorting::ParallelSortStats stats;
    if (!rstlab::sorting::ParallelSortFieldsOnTape(ctx, 0, config, &stats)
             .ok()) {
      continue;
    }
    table.AddRow({std::to_string(k), std::to_string(stats.merge_passes),
                  std::to_string(ctx.Report().scan_bound),
                  std::to_string(ctx.Report().internal_space)});
  }
  table.Print(std::cout);
  std::cout << "  passes shrink as ceil(log_k m), but r sums reversals"
               " over ALL 2k tapes of the canonical merge machine, so each"
               " pass costs 4k reversals — the measured optimum sits at"
               " small k, a trade-off the model's own cost definition"
               " makes visible.\n\n";
}

void BM_ParamsSampling(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rstlab::fingerprint::SampleFingerprintParams(
        static_cast<std::size_t>(state.range(0)), 32, rng));
  }
}
BENCHMARK(BM_ParamsSampling)->Arg(64)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_ablation", [](rstlab::bench::Bench& b) {
        RunModulusAblation(b.run.simd, b.runner, b.recorder);
        RunFixedPrimeAdversary(b.run.simd, b.runner, b.recorder);
        RunFixedXAblation(b.run.simd, b.runner, b.recorder);
        RunKWayAblation(b.run.storage);
        return 0;
      });
}
