#!/usr/bin/env bash
# Builds everything, runs the test suite and every experiment binary,
# capturing test_output.txt and bench_output.txt at the repo root.
#
# Every argument is passed to every bench binary. --threads=N sizes the
# Monte-Carlo trial engine (default RSTLAB_THREADS, else all hardware
# threads); tallies are bit-identical for any value, only wall clock
# changes. The common flags (--tape-backend, --merge-fanout, ...) reach
# every bench too.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja when available, else fall back to CMake's default
# generator (what the tier-1 command uses).
if [ ! -f build/CMakeCache.txt ]; then
  if command -v ninja > /dev/null 2>&1; then
    cmake -B build -G Ninja
  else
    cmake -B build
  fi
else
  cmake -B build
fi
cmake --build build -j "$(nproc)"
ctest --test-dir build 2>&1 | tee test_output.txt

# Bench binaries merge their trial-engine timings into one JSON file.
export RSTLAB_BENCH_JSON="build/BENCH_trials.json"
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] && "$b" "$@"
done 2>&1 | tee bench_output.txt

# Keep the perf-trajectory snapshot visible at the repo root.
if [ -f "$RSTLAB_BENCH_JSON" ]; then
  cp "$RSTLAB_BENCH_JSON" BENCH_trials.json
fi

# Surface the out-of-core comparison (E18b: mem vs file wall time, block
# I/O counters and readahead hit rate) at the end of the run, so the
# cost of running tapes from disk is visible without digging through
# bench_output.txt.
echo
echo "=== out-of-core summary (from bench_extmem) ==="
sed -n '/E18b:/,/^$/p' bench_output.txt
