#ifndef RSTLAB_STMODEL_ST_CONTEXT_H_
#define RSTLAB_STMODEL_ST_CONTEXT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "extmem/io_stats.h"
#include "extmem/storage.h"
#include "obs/trace.h"
#include "stmodel/internal_arena.h"
#include "tape/resource_meter.h"
#include "tape/tape.h"

namespace rstlab::stmodel {

/// Execution context for an algorithm in the ST model (Section 2):
/// `t` external tapes (tape 0 is the input tape) plus metered internal
/// memory. Algorithms read and write only through the tapes and declare
/// internal state via `arena()`; afterwards `Report()` yields the run's
/// measured (r, s, t) costs for compliance checking against a class such
/// as ST(O(log N), O(1), 2).
///
/// Storage backend: every tape of the context is created from one
/// `extmem::StorageOptions` — in-RAM cells, or file-backed block
/// storage so runs are not bounded by machine memory. The plain
/// constructor uses `extmem::DefaultStorageOptions()`, i.e. the
/// `RSTLAB_TAPE_BACKEND` / `RSTLAB_CACHE_BLOCKS` environment, which is
/// how CI pushes the whole suite through the file backend. Measured
/// (r, s, t) is backend-independent; only `IoStatsTotal()` and wall
/// time differ.
class StContext {
 public:
  /// A context with `num_external_tapes` empty tapes on the default
  /// storage backend (`extmem::DefaultStorageOptions()`).
  explicit StContext(std::size_t num_external_tapes);

  /// A context whose tapes use the given storage backend. If a backing
  /// file cannot be created the context falls back to the in-memory
  /// backend with a warning on stderr (the library does not throw);
  /// `backend()` reports what was actually built.
  StContext(std::size_t num_external_tapes,
            const extmem::StorageOptions& options);

  StContext(const StContext&) = delete;
  StContext& operator=(const StContext&) = delete;

  /// Number of external tapes t.
  std::size_t num_tapes() const { return tapes_.size(); }

  /// External tape `i` (0 = input tape).
  tape::Tape& tape(std::size_t i);
  const tape::Tape& tape(std::size_t i) const;

  /// The internal-memory accounting arena.
  InternalArena& arena() { return arena_; }

  /// Installs `content` on the input tape (tape 0) and records the input
  /// size N = content.size(). Resets all accounting.
  void LoadInput(std::string content);

  /// Input size N of the current run.
  std::size_t input_size() const { return input_size_; }

  /// The run's measured costs so far.
  tape::ResourceReport Report() const;

  /// The backend the tapes actually run on.
  extmem::BackendKind backend() const { return backend_; }

  /// The options this context's tapes were created from — the recipe an
  /// algorithm uses to create matching scratch storage (the parallel
  /// sort's spill lanes live on the same backend as the tapes).
  const extmem::StorageOptions& storage_options() const { return options_; }

  /// Bills scratch-device usage that does not live on the context's own
  /// tapes: `reversals` extra head-direction changes and `cells` extra
  /// external cells, folded into `Report()` (scan_bound and
  /// external_space respectively). The parallel sort charges the
  /// canonical temp-tape machine's bill here — a deterministic formula,
  /// so the measured (r, s) stays backend- and thread-count-independent.
  /// Reset by `LoadInput`.
  void ChargeScratch(std::uint64_t reversals, std::size_t cells);

  /// Folds scratch-device block I/O into `IoStatsTotal()` (observability
  /// only; not part of the model's (r, s, t)).
  void ChargeScratchIo(const extmem::IoStats& io);

  /// Scratch reversals charged so far (diagnostics).
  std::uint64_t scratch_reversals() const { return scratch_reversals_; }

  /// Sum of the tapes' block-level I/O counters (all zero on the
  /// in-memory backend).
  extmem::IoStats IoStatsTotal() const;

  /// Installs `sink` (nullptr detaches) on every tape (tape i's events
  /// carry tape_id = i) and on the arena, and emits a kRunBegin event.
  /// Subsequent LoadInput calls emit a fresh kRunBegin with the new N.
  void AttachTrace(obs::TraceSink* sink);

  /// Closes every tape's open scan segment (emitting its kScanEnd) and
  /// emits kRunEnd. Call at the end of a traced run, before rendering
  /// or replaying the event stream.
  void FlushTrace();

 private:
  std::vector<tape::Tape> tapes_;
  InternalArena arena_;
  std::size_t input_size_ = 0;
  extmem::BackendKind backend_ = extmem::BackendKind::kMem;
  extmem::StorageOptions options_;
  std::uint64_t scratch_reversals_ = 0;
  std::size_t scratch_cells_ = 0;
  extmem::IoStats scratch_io_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace rstlab::stmodel

#endif  // RSTLAB_STMODEL_ST_CONTEXT_H_
