#include "driver.h"

#include <cstdlib>
#include <iostream>
#include <string_view>

#include <benchmark/benchmark.h>

#include "util/simd.h"

namespace rstlab::bench {

namespace {

int Usage(const char* name) {
  std::cerr << "usage: " << name
            << " [--trace=FILE] [--metrics] [--threads=N] [--small]"
               " [common flags] [--benchmark_*]\ncommon flags:\n"
            << sorting::kRunOptionsUsage;
  return 2;
}

}  // namespace

int Main(int argc, char** argv, const char* name,
         const std::function<int(Bench&)>& tables,
         std::size_t recorder_threads) {
  sorting::RunOptions run = sorting::ParseRunOptions(&argc, argv);
  obs::ObsOptions obs_options;
  std::size_t cli_threads = 0;
  bool small = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--trace=")) {
      obs_options.trace_path = arg.substr(8);
    } else if (arg == "--metrics") {
      obs_options.metrics = true;
    } else if (arg.starts_with("--threads=")) {
      // A value that is not a whole number leaves the choice to
      // ResolveThreadCount, like 0.
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(argv[i] + 10, &end, 10);
      cli_threads = *end == '\0' ? parsed : 0;
    } else if (arg == "--small") {
      small = true;
    } else if (arg.starts_with("--") && !arg.starts_with("--benchmark_") &&
               !arg.starts_with("--v=")) {
      std::cerr << "unknown flag " << arg << " for " << name << "\n";
      return Usage(name);
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  argc = out;

  const std::size_t threads = parallel::ResolveThreadCount(cli_threads);
  obs::ObsSession obs(obs_options, name);
  run.storage.metrics = obs.metrics();
  parallel::TrialRunner runner(threads);
  runner.set_trace(obs.sink());
  parallel::BenchRecorder recorder(
      name, recorder_threads == 0 ? threads : recorder_threads);
  recorder.set_metrics(obs.metrics());
  std::cout << "trial engine: threads=" << threads
            << " simd=" << simd::SimdLevelName(run.simd) << "\n\n";

  Bench bench{run, small, obs, runner, recorder};
  const int result = tables(bench);
  if (!recorder.entries().empty()) {
    if (auto written = recorder.Write(); written.ok()) {
      std::cout << "trial timings -> " << written.value() << "\n\n";
    } else {
      std::cerr << "trial timings not written: " << written.status() << "\n";
    }
  }
  obs.Finish(std::cout);
  if (result != 0) return result;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace rstlab::bench
