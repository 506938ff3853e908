#include "sorting/run_options.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rstlab::sorting {

namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) {
    std::fprintf(stderr,
                 "rstlab sorting: ignoring %s=%s (want a non-negative "
                 "integer)\n",
                 name, value);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

/// The one fanout rule for flag and environment alike: a fanout below 2
/// is no merge, so warn and keep `*fanout`.
void SetFanout(const char* source, std::size_t value, std::size_t* fanout) {
  if (value >= 2) {
    *fanout = value;
    return;
  }
  std::fprintf(stderr,
               "rstlab sorting: ignoring %s=%zu (want a merge fanout >= 2); "
               "keeping %zu\n",
               source, value, *fanout);
}

/// The value of `arg` if it spells `prefix` (which ends in '='), else
/// nullptr.
const char* FlagValue(const char* arg, const char* prefix) {
  const std::size_t length = std::strlen(prefix);
  return std::strncmp(arg, prefix, length) == 0 ? arg + length : nullptr;
}

/// Parses a flag's size value: a number of at least `min`, else a
/// warning (prefixed `module`) and `fallback`.
std::size_t FlagSize(const char* module, const char* arg, const char* value,
                     std::size_t fallback, std::size_t min = 0) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || parsed < min) {
    std::fprintf(stderr, "rstlab %s: ignoring %s\n", module, arg);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

SortConfig DefaultSortConfig() {
  SortConfig config;
  config.threads =
      std::max<std::size_t>(1, EnvSize("RSTLAB_SORT_THREADS", config.threads));
  SetFanout("RSTLAB_MERGE_FANOUT",
            EnvSize("RSTLAB_MERGE_FANOUT", config.fanout), &config.fanout);
  config.run_length = std::max<std::size_t>(
      1, EnvSize("RSTLAB_RUN_LENGTH", config.run_length));
  return config;
}

RunOptions ParseRunOptions(int* argc, char** argv) {
  RunOptions run;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (const char* value = FlagValue(arg, "--tape-backend=")) {
      if (std::strcmp(value, "file") == 0) {
        run.storage.backend = extmem::BackendKind::kFile;
      } else if (std::strcmp(value, "mem") == 0) {
        run.storage.backend = extmem::BackendKind::kMem;
      } else {
        std::fprintf(stderr,
                     "rstlab extmem: ignoring --tape-backend=%s "
                     "(want mem or file)\n",
                     value);
      }
    } else if (const char* value = FlagValue(arg, "--cache-blocks=")) {
      run.storage.cache_blocks =
          FlagSize("extmem", arg, value, run.storage.cache_blocks, 1);
    } else if (const char* value = FlagValue(arg, "--readahead-blocks=")) {
      run.storage.readahead_blocks =
          FlagSize("extmem", arg, value, run.storage.readahead_blocks, 1);
    } else if (const char* value = FlagValue(arg, "--sort-threads=")) {
      run.sort.threads = std::max<std::size_t>(
          1, FlagSize("sorting", arg, value, run.sort.threads));
    } else if (const char* value = FlagValue(arg, "--merge-fanout=")) {
      SetFanout("--merge-fanout",
                FlagSize("sorting", arg, value, run.sort.fanout),
                &run.sort.fanout);
    } else if (const char* value = FlagValue(arg, "--run-length=")) {
      run.sort.run_length = std::max<std::size_t>(
          1, FlagSize("sorting", arg, value, run.sort.run_length));
    } else if (const char* value = FlagValue(arg, "--simd=")) {
      run.simd = simd::ParseSimdLevelName(value);
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;
  return run;
}

const char kRunOptionsUsage[] =
    "  --tape-backend=<mem|file>               mem (default) keeps tapes"
    " in RAM;\n"
    "                                          file runs them"
    " out-of-core\n"
    "  --cache-blocks=<K>                      per-tape cache budget"
    " (file backend)\n"
    "  --readahead-blocks=<K>                  blocks prefetched ahead on"
    " scans\n"
    "  --sort-threads=<T>                      worker threads for the"
    " k-way sort\n"
    "  --merge-fanout=<K>                      runs merged per group"
    " (>= 2, default 8)\n"
    "  --run-length=<L>                        fields per formation run\n"
    "  --simd=<off|4|8|auto>                   lane width for the batched\n"
    "                                          fingerprint engine"
    " (RSTLAB_SIMD)\n";

}  // namespace rstlab::sorting
