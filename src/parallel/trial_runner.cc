#include "parallel/trial_runner.h"

#include <cstdlib>
#include <thread>

namespace rstlab::parallel {

std::vector<TrialRunner::ChunkBounds> TrialRunner::PartitionTrials(
    std::uint64_t trials) const {
  std::vector<ChunkBounds> chunks;
  if (trials == 0) return chunks;
  const std::uint64_t count =
      std::min<std::uint64_t>(trials, chunks_hint_);
  chunks.reserve(static_cast<std::size_t>(count));
  // Near-equal split: the first (trials % count) chunks get one extra.
  const std::uint64_t base = trials / count;
  const std::uint64_t extra = trials % count;
  std::uint64_t begin = 0;
  for (std::uint64_t c = 0; c < count; ++c) {
    const std::uint64_t size = base + (c < extra ? 1 : 0);
    chunks.push_back({begin, begin + size});
    begin += size;
  }
  return chunks;
}

std::size_t ResolveThreadCount(std::size_t cli_threads) {
  if (cli_threads > 0) return cli_threads;
  if (const char* env = std::getenv("RSTLAB_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace rstlab::parallel
