// Experiment E3 (Corollary 7, upper-bound side): CHECK-SORT,
// SET-EQUALITY and MULTISET-EQUALITY are decidable deterministically
// with Theta(log N) sequential scans on a constant number of tapes.
//
// The E3a-E3c tables report measured scans vs input size and the
// least-squares fit scans ~= a*log2(N) + b at the paper geometry
// (binary merges of one-field runs); the paper predicts a positive
// constant slope (tightness of the Theorem 6 lower bound at
// r = Theta(log N)).
//
// The E3d/E3e tables measure the k-way external sort: thread scaling
// at a fixed reversal budget against the paper-geometry baseline (the
// measured (r, s) and the output checksum must be identical at every
// thread count), and a single-thread fanout sweep. E3d's field count
// scales via RSTLAB_SORT_BENCH_FIELDS — the GB-scale runs in
// EXPERIMENTS.md set it to tens of millions.

#include <chrono>
#include <cstdlib>
#include <iostream>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "obs/ring_sink.h"
#include "obs/timeline.h"
#include "parallel/bench_recorder.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "sorting/deciders.h"
#include "sorting/parallel_sort.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::bench::SecondsSince;
using rstlab::core::FitLog2;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;
using rstlab::sorting::RunOptions;

std::size_t EnvFields(std::size_t fallback) {
  const char* value = std::getenv("RSTLAB_SORT_BENCH_FIELDS");
  if (value == nullptr || *value == '\0') return fallback;
  const std::size_t parsed = std::strtoull(value, nullptr, 10);
  return parsed > 0 ? parsed : fallback;
}

/// `m` random '#'-terminated 0/1 fields of length `n` in one string.
std::string RandomFields(std::size_t m, std::size_t n, Rng& rng) {
  std::string out;
  out.reserve(m * (n + 1));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t b = 0; b < n; ++b) {
      out.push_back(rng.Bernoulli(0.5) ? '1' : '0');
    }
    out.push_back('#');
  }
  return out;
}

/// Order-sensitive FNV-1a over the sorted tape content, so bit-identity
/// across thread counts is visible in the JSON rows.
std::uint64_t ContentChecksum(rstlab::stmodel::StContext& ctx,
                              std::size_t index) {
  rstlab::tape::Tape& t = ctx.tape(index);
  std::uint64_t h = 1469598103934665603ull;
  const std::size_t cells = t.cells_used();
  t.Seek(0);
  std::size_t read = 0;
  while (read < cells) {
    const std::string chunk =
        t.ReadForward(std::min<std::size_t>(1 << 20, cells - read));
    read += chunk.size();
    for (const char c : chunk) {
      if (c == '_') break;
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

/// E3d: thread scaling of the k-way sort at a fixed reversal budget.
/// The paper geometry (fanout 2, run length 1, one thread) is the
/// baseline; the k=16 rows must agree with each other in scans,
/// int.bits and output checksum at every thread count — only the wall
/// time may move.
void RunParallelSortTable(const rstlab::extmem::StorageOptions& storage,
                          BenchRecorder& recorder) {
  const std::size_t m = EnvFields(1u << 17);
  const std::size_t n = 16;
  Table table("E3d: parallel k-way sort, m=" + std::to_string(m) +
                  " n=" + std::to_string(n) + " (k=16)",
              {"config", "threads", "sec", "speedup", "scans", "int.bits",
               "checksum"});
  Rng rng(0xE3D);
  const std::string input = RandomFields(m, n, rng);

  double paper_wall = 0.0;
  {
    rstlab::stmodel::StContext ctx(1, storage);
    ctx.LoadInput(input);
    const auto start = std::chrono::steady_clock::now();
    if (rstlab::Status s = rstlab::sorting::ParallelSortFieldsOnTape(
            ctx, 0, rstlab::sorting::kPaperSortConfig);
        !s.ok()) {
      std::cerr << "E3d paper-geometry sort: " << s << "\n";
      return;
    }
    paper_wall = SecondsSince(start);
    const auto report = ctx.Report();
    const std::uint64_t checksum = ContentChecksum(ctx, 0);
    table.AddRow({"paper geometry k=2 L=1", "1", FormatDouble(paper_wall),
                  "1.0", std::to_string(report.scan_bound),
                  std::to_string(report.internal_space),
                  std::to_string(checksum % 100000)});
    recorder.Record("E3d_paper_geometry_m" + std::to_string(m),
                    /*trials=*/m, paper_wall,
                    Checksum64({checksum, report.scan_bound,
                                report.internal_space}));
  }

  std::uint64_t base_scans = 0;
  std::uint64_t base_checksum = 0;
  std::size_t base_bits = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    rstlab::sorting::SortConfig config;
    config.fanout = 16;
    config.threads = threads;
    config.run_length = 4096;
    rstlab::stmodel::StContext ctx(1, storage);
    ctx.LoadInput(input);
    const auto start = std::chrono::steady_clock::now();
    if (rstlab::Status s =
            rstlab::sorting::ParallelSortFieldsOnTape(ctx, 0, config);
        !s.ok()) {
      std::cerr << "E3d parallel sort: " << s << "\n";
      return;
    }
    const double wall = SecondsSince(start);
    const auto report = ctx.Report();
    const std::uint64_t checksum = ContentChecksum(ctx, 0);
    if (threads == 1) {
      base_scans = report.scan_bound;
      base_bits = report.internal_space;
      base_checksum = checksum;
    } else if (report.scan_bound != base_scans ||
               report.internal_space != base_bits ||
               checksum != base_checksum) {
      std::cout << "  WARNING: thread count changed the measured run at "
                << threads << " threads\n";
    }
    table.AddRow({"k-way loser tree", std::to_string(threads),
                  FormatDouble(wall), FormatDouble(paper_wall / wall),
                  std::to_string(report.scan_bound),
                  std::to_string(report.internal_space),
                  std::to_string(checksum % 100000)});
    recorder.Record(
        "E3d_parallel_sort_t" + std::to_string(threads) + "_m" +
            std::to_string(m),
        /*trials=*/m, wall,
        Checksum64({checksum, report.scan_bound, report.internal_space}));
  }
  table.Print(std::cout);
  std::cout << "  (scans, int.bits and checksum are thread-count "
               "invariant: the (r, s) certificate is fixed while wall "
               "time scales)\n\n";
}

/// E3e: the loser-tree k-way merge at one thread across fanouts at
/// fixed m and run length — the single-thread algorithmic trade-off,
/// isolated from thread scaling.
void RunLoserTreeTable(const rstlab::extmem::StorageOptions& storage,
                       BenchRecorder& recorder) {
  const std::size_t m = 1u << 15;
  const std::size_t n = 16;
  Table table("E3e: 1-thread merge engine, m=" + std::to_string(m),
              {"engine", "fanout", "sec", "scans", "passes"});
  Rng rng(0xE3E);
  const std::string input = RandomFields(m, n, rng);
  for (const std::size_t fanout : {2u, 4u, 8u, 16u}) {
    rstlab::sorting::SortConfig config;
    config.fanout = fanout;
    config.threads = 1;
    config.run_length = 1024;
    rstlab::stmodel::StContext ctx(1, storage);
    ctx.LoadInput(input);
    rstlab::sorting::ParallelSortStats stats;
    const auto start = std::chrono::steady_clock::now();
    if (rstlab::Status s = rstlab::sorting::ParallelSortFieldsOnTape(
            ctx, 0, config, &stats);
        !s.ok()) {
      std::cerr << "E3e parallel sort: " << s << "\n";
      return;
    }
    const double wall = SecondsSince(start);
    table.AddRow({"loser tree", std::to_string(fanout), FormatDouble(wall),
                  std::to_string(ctx.Report().scan_bound),
                  std::to_string(stats.merge_passes)});
    recorder.Record(
        "E3e_loser_tree_k" + std::to_string(fanout) + "_m" +
            std::to_string(m),
        /*trials=*/m, wall,
        Checksum64({ctx.Report().scan_bound, stats.merge_passes}));
  }
  table.Print(std::cout);
  std::cout << "  (higher fanout buys fewer passes, but each pass bills "
               "4k scratch reversals, so here the scan bill rises with k "
               "while wall time stays about flat; the loser tree keeps "
               "each pass at log2(k) compares per field)\n\n";
}

void RunScalingTable(const rstlab::extmem::StorageOptions& storage,
                     rstlab::problems::Problem problem, const char* title) {
  // The paper geometry (binary merges of one-field runs): at the
  // default one, every size here is a single formation run and the fit
  // would see no merge pass.
  Table table(title, {"m", "N", "scans", "int.bits", "correct"});
  Rng rng(0xC0FFEE);
  std::vector<double> ns;
  std::vector<double> scans;
  for (std::size_t m : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    const std::size_t n = 16;
    rstlab::problems::Instance inst =
        problem == rstlab::problems::Problem::kCheckSort
            ? rstlab::problems::SortedPair(m, n, rng)
            : rstlab::problems::EqualMultisets(m, n, rng);
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes, storage);
    ctx.LoadInput(inst.Encode());
    auto decided = rstlab::sorting::DecideOnTapes(
        problem, ctx, rstlab::sorting::kPaperSortConfig);
    const bool correct =
        decided.ok() &&
        decided.value() == rstlab::problems::RefDecide(problem, inst);
    const auto report = ctx.Report();
    table.AddRow({std::to_string(m), std::to_string(inst.N()),
                  std::to_string(report.scan_bound),
                  std::to_string(report.internal_space),
                  correct ? "yes" : "NO"});
    ns.push_back(static_cast<double>(inst.N()));
    scans.push_back(static_cast<double>(report.scan_bound));
  }
  table.Print(std::cout);
  const auto fit = FitLog2(ns, scans);
  std::cout << "  fit: scans = " << FormatDouble(fit.slope) << " * log2(N) + "
            << FormatDouble(fit.intercept)
            << "  (R^2 = " << FormatDouble(fit.r_squared)
            << "; paper: Theta(log N) scans, Corollary 7)\n\n";
}

// With --trace (or --metrics) active, runs one small CHECK-SORT decide
// with tape-level tracing: the merge-sort passes show up as alternating
// scan segments across the five decider tapes.
void RunTracedExemplar(const RunOptions& run,
                       rstlab::obs::ObsSession& obs) {
  if (obs.sink() == nullptr) return;
  Rng rng(42);
  rstlab::problems::Instance inst =
      rstlab::problems::SortedPair(8, 8, rng);
  rstlab::obs::RingSink ring;
  rstlab::obs::TeeSink tee(obs.sink(), &ring);
  rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                 run.storage);
  ctx.AttachTrace(&tee);
  ctx.LoadInput(inst.Encode());
  auto decided = rstlab::sorting::DecideOnTapes(
      rstlab::problems::Problem::kCheckSort, ctx, run.sort);
  ctx.FlushTrace();
  std::cout << "traced exemplar (CHECK-SORT decide, m=8 n=8, "
            << (decided.ok() && decided.value() ? "yes" : "no")
            << "):\n"
            << rstlab::obs::RenderScanTimeline(ring.Snapshot()) << "\n";
}

void BM_Decider(benchmark::State& state, const RunOptions& run) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  rstlab::problems::Instance inst =
      rstlab::problems::EqualMultisets(m, 16, rng);
  const std::string encoded = inst.Encode();
  for (auto _ : state) {
    rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                   run.storage);
    ctx.LoadInput(encoded);
    auto decided = rstlab::sorting::DecideOnTapes(
        rstlab::problems::Problem::kMultisetEquality, ctx, run.sort);
    benchmark::DoNotOptimize(decided);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      encoded.size() * static_cast<std::size_t>(state.iterations())));
}

}  // namespace

int main(int argc, char** argv) {
  return rstlab::bench::Main(
      argc, argv, "bench_checksort",
      [](rstlab::bench::Bench& b) {
        using rstlab::problems::Problem;
        const rstlab::extmem::StorageOptions& storage = b.run.storage;
        RunScalingTable(storage, Problem::kCheckSort,
                        "E3a: CHECK-SORT in ST(O(log N), O(n + log N), 5) "
                        "(k=2, L=1)");
        RunScalingTable(
            storage, Problem::kMultisetEquality,
            "E3b: MULTISET-EQUALITY in ST(O(log N), O(n + log N), 5) "
            "(k=2, L=1)");
        RunScalingTable(storage, Problem::kSetEquality,
                        "E3c: SET-EQUALITY in ST(O(log N), O(n + log N), 5) "
                        "(k=2, L=1)");
        RunParallelSortTable(storage, b.recorder);
        RunLoserTreeTable(storage, b.recorder);
        RunTracedExemplar(b.run, b.obs);
        benchmark::RegisterBenchmark("BM_Decider", BM_Decider, b.run)
            ->Arg(64)->Arg(256)->Arg(1024);
        return 0;
      },
      /*recorder_threads=*/8);
}
