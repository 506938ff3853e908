// The one driver of every bench binary: flag parsing, the observability
// session, the trial engine, the bench-row recorder and google-benchmark.

#ifndef RSTLAB_BENCH_DRIVER_H_
#define RSTLAB_BENCH_DRIVER_H_

#include <chrono>
#include <cstddef>
#include <functional>

#include "obs/flags.h"
#include "parallel/bench_recorder.h"
#include "parallel/trial_runner.h"
#include "sorting/run_options.h"

namespace rstlab::bench {

/// One bench invocation as its tables see it: the parsed flags and the
/// session objects the driver owns.
struct Bench {
  /// The common flags; `run.storage.metrics` is the `--metrics`
  /// registry, so every context built on `run.storage` folds its block
  /// I/O into the metrics.
  sorting::RunOptions run;
  /// `--small`: the reduced sizes CI runs.
  bool small;
  obs::ObsSession& obs;
  /// `--threads=N` workers (else RSTLAB_THREADS, else the hardware
  /// count), traced into `obs`.
  parallel::TrialRunner& runner;
  parallel::BenchRecorder& recorder;
};

/// Runs bench binary `name`:
///
///   1. parses the common flags (`sorting::ParseRunOptions`) and the
///      bench flags `--trace=FILE`, `--metrics`, `--threads=N` and
///      `--small`; any other `--` flag that is not google-benchmark's
///      own (`--benchmark_*`, `--v=`) prints usage and exits 2;
///   2. prints the trial-engine line and runs `tables`, which may
///      register timing loops with `benchmark::RegisterBenchmark`;
///   3. writes the recorder's rows, if it holds any, with thread count
///      `recorder_threads` (0: `threads`) to the file RSTLAB_BENCH_JSON
///      names (with it unset, prints one line saying they were not
///      written), and finishes the observability session;
///   4. returns a nonzero result of `tables` as the exit code, or else
///      runs google-benchmark's timing loops.
int Main(int argc, char** argv, const char* name,
         const std::function<int(Bench&)>& tables,
         std::size_t recorder_threads = 0);

/// Wall seconds since `start`, the benches' timing unit.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace rstlab::bench

#endif  // RSTLAB_BENCH_DRIVER_H_
