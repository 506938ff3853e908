// Experiment E18: the out-of-core tape backend. Two questions:
//
//   (a) What does the first forward scan cost per cell? The append path
//       used to resize the cell vector on every head move; growth is now
//       block-deferred in the storage layer, so mem and file backends
//       both pay O(1) amortized per move.
//   (b) What does running a decider out-of-core cost, and does the
//       cache behave? The E18b table runs the CHECK-SORT decider at the
//       paper's sort geometry, so its merge passes go through the file
//       backend, with per-tape RAM capped at cache_blocks * block_size
//       cells. It reports wall time, the paper's (r, s) — which must
//       match the in-memory run bit for bit — plus block I/O counters
//       and the readahead hit rate (≈ 1.0 on scan-shaped access).

#include <chrono>
#include <iostream>
#include <string>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "driver.h"
#include "extmem/storage.h"
#include "parallel/bench_recorder.h"
#include "problems/generators.h"
#include "problems/instance.h"
#include "sorting/deciders.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "tape/tape.h"
#include "util/random.h"

namespace {

using rstlab::Rng;
using rstlab::bench::SecondsSince;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;

rstlab::extmem::StorageOptions FileBackend(std::size_t block_size,
                                           std::size_t cache_blocks) {
  rstlab::extmem::StorageOptions options;
  options.backend = rstlab::extmem::BackendKind::kFile;
  options.block_size = block_size;
  options.cache_blocks = cache_blocks;
  return options;
}

rstlab::tape::Tape MakeTape(const rstlab::extmem::StorageOptions& options) {
  auto storage = rstlab::extmem::CreateStorage(options);
  if (!storage.ok()) {
    std::cerr << "extmem bench: " << storage.status() << "\n";
    return rstlab::tape::Tape();
  }
  return rstlab::tape::Tape(std::move(storage).value());
}

/// E18a: cost of the first forward scan (append) per cell, mem vs file.
/// This is the path the old per-move `resize(head+1)` made quadratic in
/// the worst case; both backends should now be flat in N.
void RunAppendTable(BenchRecorder& recorder) {
  Table table("E18a: first-scan append cost (ns/cell)",
              {"N", "mem", "file(4KiB x 64)"});
  for (std::size_t n : {1u << 16, 1u << 18, 1u << 20}) {
    double per_backend[2] = {0.0, 0.0};
    for (int which = 0; which < 2; ++which) {
      rstlab::tape::Tape tape =
          which == 0 ? rstlab::tape::Tape()
                     : MakeTape(FileBackend(4096, 64));
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        tape.Write('1');
        tape.MoveRight();
      }
      per_backend[which] =
          SecondsSince(start) * 1e9 / static_cast<double>(n);
      recorder.Record(std::string("E18a_append_") +
                          tape.storage().backend_name() + "_" +
                          std::to_string(n),
                      /*trials=*/n, SecondsSince(start),
                      Checksum64({tape.cells_used(), tape.reversals()}));
    }
    table.AddRow({std::to_string(n), FormatDouble(per_backend[0]),
                  FormatDouble(per_backend[1])});
  }
  table.Print(std::cout);
  std::cout << "  (block-deferred growth: per-move cost is one "
               "comparison on both backends)\n\n";
}

/// E18b: the CHECK-SORT decider out-of-core. The file rows cap per-tape
/// RAM at cache_blocks * block_size cells — far below the tape length —
/// and must reproduce the mem row's verdict and (r, s) exactly. The
/// table runs at the paper geometry, so every sort makes ceil(log2 m)
/// merge passes through the block cache (at the default geometry these
/// sizes are one formation run each and no merge pass).
void RunOutOfCoreTable(BenchRecorder& recorder) {
  Table table(
      "E18b: CHECK-SORT out-of-core (per-tape cache 4 x 64 cells, k=2, "
      "L=1)",
      {"m", "N", "backend", "ms", "scans", "int.bits", "reads", "writes",
       "hit%", "ra%"});
  Rng rng(0xE18);
  for (std::size_t m : {64u, 256u, 1024u}) {
    const rstlab::problems::Instance inst =
        rstlab::problems::SortedPair(m, 16, rng);
    const std::string encoded = inst.Encode();
    std::uint64_t mem_scans = 0;
    std::size_t mem_bits = 0;
    for (int which = 0; which < 2; ++which) {
      rstlab::extmem::StorageOptions options;
      if (which == 1) options = FileBackend(64, 4);
      rstlab::stmodel::StContext ctx(rstlab::sorting::kDeciderTapes,
                                     options);
      ctx.LoadInput(encoded);
      const auto start = std::chrono::steady_clock::now();
      auto decided = rstlab::sorting::DecideOnTapes(
          rstlab::problems::Problem::kCheckSort, ctx,
          rstlab::sorting::kPaperSortConfig);
      const double wall = SecondsSince(start);
      const auto report = ctx.Report();
      const auto io = ctx.IoStatsTotal();
      const char* backend =
          rstlab::extmem::BackendName(ctx.backend());
      if (which == 0) {
        mem_scans = report.scan_bound;
        mem_bits = report.internal_space;
      } else if (mem_scans != report.scan_bound ||
                 mem_bits != report.internal_space) {
        std::cout << "  WARNING: file backend diverged from mem "
                     "metering at m="
                  << m << "\n";
      }
      table.AddRow({std::to_string(m), std::to_string(inst.N()), backend,
                    FormatDouble(wall * 1e3),
                    std::to_string(report.scan_bound),
                    std::to_string(report.internal_space),
                    std::to_string(io.block_reads),
                    std::to_string(io.block_writes),
                    FormatDouble(100.0 * io.HitRate()),
                    FormatDouble(100.0 * io.ReadaheadHitRate())});
      recorder.Record(
          std::string("E18b_checksort_") + backend + "_" +
              std::to_string(m),
          /*trials=*/1, wall,
          Checksum64({decided.ok() && decided.value() ? 1u : 0u,
                      report.scan_bound, report.internal_space,
                      io.block_reads, io.block_writes}));
    }
  }
  table.Print(std::cout);
  std::cout << "  (mem and file rows must agree in scans and int.bits: "
               "the paper's metering is backend-independent)\n\n";
}

void BM_FirstScanAppendMem(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rstlab::tape::Tape tape;
    for (std::size_t i = 0; i < n; ++i) {
      tape.Write('1');
      tape.MoveRight();
    }
    benchmark::DoNotOptimize(tape.cells_used());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FirstScanAppendMem)->Arg(1 << 14)->Arg(1 << 17);

void BM_FirstScanAppendFile(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rstlab::tape::Tape tape = MakeTape(FileBackend(4096, 64));
    for (std::size_t i = 0; i < n; ++i) {
      tape.Write('1');
      tape.MoveRight();
    }
    benchmark::DoNotOptimize(tape.cells_used());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FirstScanAppendFile)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

int main(int argc, char** argv) {
  // Both tables choose each row's backend themselves: they compare the
  // two.
  return rstlab::bench::Main(
      argc, argv, "bench_extmem",
      [](rstlab::bench::Bench& b) {
        RunAppendTable(b.recorder);
        RunOutOfCoreTable(b.recorder);
        return 0;
      },
      /*recorder_threads=*/1);
}
