#include "sorting/sort_config.h"

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

SortConfig* ProcessConfigSlot() {
  static SortConfig slot;
  return &slot;
}

bool g_process_config_set = false;

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

/// Parses the value of `--name=` flags; returns fallback (with a
/// warning) on garbage.
std::size_t FlagSize(const char* arg, const char* value,
                     std::size_t fallback) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) {
    std::fprintf(stderr, "rstlab sorting: ignoring %s\n", arg);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

void SetProcessSortConfig(const SortConfig& config) {
  *ProcessConfigSlot() = config;
  g_process_config_set = true;
}

SortConfig DefaultSortConfig() {
  if (g_process_config_set) return *ProcessConfigSlot();
  SortConfig config;
  config.threads =
      std::max<std::size_t>(1, EnvSize("RSTLAB_SORT_THREADS", config.threads));
  SetFanout("RSTLAB_MERGE_FANOUT",
            EnvSize("RSTLAB_MERGE_FANOUT", config.fanout), &config.fanout);
  config.run_length = std::max<std::size_t>(
      1, EnvSize("RSTLAB_RUN_LENGTH", config.run_length));
  return config;
}

SortConfig ParseSortFlags(int* argc, char** argv) {
  SortConfig config = DefaultSortConfig();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sort-threads=", 15) == 0) {
      config.threads =
          std::max<std::size_t>(1, FlagSize(arg, arg + 15, config.threads));
      continue;
    }
    if (std::strncmp(arg, "--merge-fanout=", 15) == 0) {
      SetFanout("--merge-fanout", FlagSize(arg, arg + 15, config.fanout),
                &config.fanout);
      continue;
    }
    if (std::strncmp(arg, "--run-length=", 13) == 0) {
      config.run_length =
          std::max<std::size_t>(1, FlagSize(arg, arg + 13, config.run_length));
      continue;
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;
  return config;
}

}  // namespace rstlab::sorting
