#ifndef RSTLAB_SORTING_PARALLEL_SORT_H_
#define RSTLAB_SORTING_PARALLEL_SORT_H_

#include <cstddef>
#include <cstdint>

#include "extmem/io_stats.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::sorting {

/// Statistics of one sort as the decision procedures see it.
struct SortStats {
  /// Passes over the data: run formation plus the k-way merge passes
  /// (0 when there is at most one field).
  std::size_t passes = 0;
  /// Number of '#'-terminated fields sorted.
  std::size_t num_fields = 0;
  /// Block I/O of the source tape plus every spill lane, delta over the
  /// sort (all zero on the in-memory backend).
  extmem::IoStats io;
};

/// Statistics of one parallel k-way external sort.
struct ParallelSortStats {
  /// Number of '#'-terminated fields sorted.
  std::size_t num_fields = 0;
  /// Longest field payload seen.
  std::size_t max_field_len = 0;
  /// Formation runs R = ceil(m / run_length).
  std::size_t num_runs = 0;
  /// k-way merge passes P = ceil(log_fanout(R)).
  std::size_t merge_passes = 0;
  /// The canonical scratch-tape reversal bill charged to the context
  /// (4 * fanout * P + 2; see DESIGN.md).
  std::uint64_t scratch_reversals = 0;
  /// The scratch external-space bill (two lane generations in flight).
  std::size_t scratch_cells = 0;
  /// Block I/O of the source tape plus every spill lane, delta over the
  /// sort; includes the reader-level prefetch_issued/prefetch_hits
  /// counters of the double-buffered run readers.
  extmem::IoStats io;
};

/// Sorts the '#'-terminated fields of tape `src` in ascending
/// lexicographic order by k-way external merge sort (`config.fanout`
/// >= 2 required) — the one external sort, behind every decider, query
/// and serve request:
///
///   1. run formation — the input is cut into runs of
///      `config.run_length` fields, sorted in internal memory by the
///      worker pool and written to spill lanes (raw `extmem` storages
///      on the context's own backend);
///   2. repeated k-way merge passes — groups of `fanout` runs are
///      merged through a tournament (loser) tree, one task per group,
///      and once fewer than `merge_width` groups remain each group is
///      additionally split into slices by binary-search splitting so
///      every worker stays busy down to the final pass;
///   3. a final sequential scan concatenates the surviving run back
///      onto `src`.
///
/// The paper's binary merge sort is the geometry `kPaperSortConfig`
/// (fanout 2, run length 1, one thread): ceil(log2 m) merge passes.
///
/// The sorted output, the run/slice structure and the measured (r, s)
/// are bit-identical at every `config.threads` and on both storage
/// backends: the context's tapes are only ever driven by the calling
/// thread, worker tasks touch nothing but their own spill-lane ranges,
/// and the scratch bill is the canonical serial 2k-tape machine's
/// (charged via `StContext::ChargeScratch`, a closed formula in m,
/// fanout and run_length — see DESIGN.md "Spill billing"). The profile
/// stays the Corollary 7 shape: O(log N) scans, internal memory
/// independent of N for constant-length fields.
///
/// On return the sorted fields are on `src`. Every spill lane is
/// destroyed (and, on the file backend, unlinked) on success and
/// failure paths alike.
Status ParallelSortFieldsOnTape(stmodel::StContext& ctx, std::size_t src,
                                const SortConfig& config,
                                ParallelSortStats* stats = nullptr);

/// `ParallelSortFieldsOnTape` at geometry `sort`, reporting the
/// decider-level `SortStats`. The k-way sort spills to its own lanes,
/// so `aux1` and `aux2` (the decider layout's working tapes) are left
/// untouched.
Status SortForDecider(stmodel::StContext& ctx, std::size_t src,
                      std::size_t aux1, std::size_t aux2,
                      SortStats* stats = nullptr,
                      const SortConfig& sort = DefaultSortConfig());

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_PARALLEL_SORT_H_
