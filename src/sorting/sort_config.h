#ifndef RSTLAB_SORTING_SORT_CONFIG_H_
#define RSTLAB_SORTING_SORT_CONFIG_H_

#include <cstddef>

namespace rstlab::sorting {

/// Geometry of the k-way external merge sort — the knob set behind
/// `--sort-threads` / `--merge-fanout` / `--run-length` and their
/// environment fallbacks (`RSTLAB_SORT_THREADS`, `RSTLAB_MERGE_FANOUT`,
/// `RSTLAB_RUN_LENGTH`).
///
/// Everything that shapes the *algorithm* (fanout, run_length,
/// merge_width) is thread-count-independent, so the sorted output, the
/// run/slice structure and the measured (r, s) bill are bit-identical
/// at every thread count; `threads` only decides how many workers chew
/// on the deterministic task list.
struct SortConfig {
  /// Worker threads for run formation and merging (1 = everything runs
  /// inline on the calling thread).
  std::size_t threads = 1;
  /// Merge fanout k (runs merged per group), >= 2.
  std::size_t fanout = 8;
  /// Fields per formation run. Constant with respect to N, which is
  /// what keeps the internal-memory bill at O(1) in N (Corollary 7
  /// shape); the pass count is then ceil(log_fanout(m / run_length)).
  std::size_t run_length = 1024;
  /// Number of slices the merge work is split into by binary-search
  /// splitting once fewer than this many groups remain. Constant and
  /// thread-count-independent so the slice structure is deterministic.
  std::size_t merge_width = 8;
  /// Test hook: fail (Status) after run formation, before merging —
  /// exercises the temp-tape cleanup-on-error path. Never set by flag
  /// or environment parsing.
  bool inject_failure_before_merge = false;
};

/// Corollary 7's sort as the paper states it: binary merges of
/// one-field runs on one thread, so the sort makes ceil(log2 m) merge
/// passes and every doubling of m adds one. The Theta(log N) tests and
/// fits run at this geometry: at the default one, every input of up to
/// `run_length` fields is a single formation run and no merge pass.
inline constexpr SortConfig kPaperSortConfig{
    .threads = 1, .fanout = 2, .run_length = 1};

/// The default geometry: RSTLAB_SORT_THREADS / RSTLAB_MERGE_FANOUT /
/// RSTLAB_RUN_LENGTH read from the environment over the `SortConfig`
/// defaults. A pure function of the environment; a parsed `--merge-fanout`
/// and friends reach a sort only as a value (`ParseRunOptions`, defined
/// beside it in `run_options.cc` because both apply one fanout rule).
/// The deciders default to it, which is how CI pushes the whole decider
/// suite through another geometry without touching each test.
SortConfig DefaultSortConfig();

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_SORT_CONFIG_H_
