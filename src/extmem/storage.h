#ifndef RSTLAB_EXTMEM_STORAGE_H_
#define RSTLAB_EXTMEM_STORAGE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "extmem/io_stats.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace rstlab::extmem {

/// The blank symbol every never-written cell reads as. `tape::kBlank`
/// aliases this constant, so the storage layer and the machine model
/// agree without the storage layer depending on the tape library.
inline constexpr char kBlankCell = '_';

/// Where a tape's cells live (paper Section 2: the external-memory
/// device under one tape of the ST-machine).
///
/// A storage holds a logical sequence of `size()` cells; indices at or
/// beyond `size()` read as `kBlankCell`. Growth is explicit via
/// `Reserve`, which only extends the logical length — backends defer
/// physical allocation to block granularity, which is the fix for the
/// old per-move `resize(head_+1)` append path.
///
/// Implementations do not throw across this boundary; fallible
/// construction returns `Status` from the backend factories, and
/// runtime device errors on an already-validated file are fatal
/// (reported and aborted) rather than silently served as data.
class TapeStorage {
 public:
  virtual ~TapeStorage() = default;

  /// The symbol at `index` (`kBlankCell` at or beyond `size()`).
  virtual char ReadCell(std::size_t index) = 0;

  /// Overwrites the symbol at `index`, growing the logical length to
  /// at least `index + 1`.
  virtual void WriteCell(std::size_t index, char symbol) = 0;

  /// Number of cells used (written or reserved).
  virtual std::size_t size() const = 0;

  /// Grows the logical length to at least `cells` (new cells blank).
  virtual void Reserve(std::size_t cells) = 0;

  /// Replaces the whole content with `content` (length becomes
  /// `content.size()`, previous cells discarded).
  virtual void Assign(std::string content) = 0;

  /// The `count` cells starting at `pos`, clamped to `size()`.
  virtual std::string ReadRange(std::size_t pos, std::size_t count) = 0;

  /// The cells from `index` on that sit contiguously in memory: at
  /// least one cell when `index < size()`, empty at or beyond it. The
  /// view stays valid until the next call on this storage. It is what
  /// `tape::Tape`'s bulk walk reads through, one call per run of cells
  /// instead of one `ReadCell` per cell; a backend charges the cells it
  /// exposes exactly as it charges reading them one by one.
  virtual std::string_view ContiguousCells(std::size_t index) = 0;

  /// Overwrites the `data.size()` cells starting at `pos`, growing the
  /// logical length to at least `pos + data.size()`. The bulk dual of
  /// `ReadRange`: backends override it to move whole blocks at a time
  /// (the default loops over WriteCell), which is what keeps the sort's
  /// run writers off the per-cell virtual path.
  virtual void WriteRange(std::size_t pos, std::string_view data);

  /// Hints the head's current scan direction (+1 right, -1 left) so a
  /// caching backend can prefetch ahead of the head. No-op by default.
  virtual void SetDirectionHint(int direction) { (void)direction; }

  /// Forces dirty state down to the backing device (no-op in memory).
  virtual Status Flush() { return Status::OK(); }

  /// Block-level I/O counters (all zero for memory backends).
  virtual IoStats io_stats() const { return IoStats{}; }

  /// Short backend name, e.g. "mem" or "file".
  virtual const char* backend_name() const = 0;
};

/// The in-RAM backend: today's `std::vector`-of-cells behavior behind
/// the storage interface. The buffer grows geometrically and is kept
/// blank-filled past the logical length, so the per-append cost is one
/// comparison on the hot path (`EnsureLength`) instead of a
/// `resize(head+1)` per head move.
///
/// The cell accessors are non-virtual and inline; `tape::Tape` keeps a
/// typed pointer to its MemStorage and calls these directly, keeping
/// virtual dispatch off the per-cell fast path.
class MemStorage final : public TapeStorage {
 public:
  MemStorage() = default;
  explicit MemStorage(std::string content)
      : cells_(std::move(content)), length_(cells_.size()) {}

  /// The symbol at `i`, blank at or beyond the logical length.
  char CellOrBlank(std::size_t i) const {
    return i < length_ ? cells_[i] : kBlankCell;
  }

  /// Overwrites cell `i`, growing the logical length as needed.
  void SetCell(std::size_t i, char symbol) {
    if (i >= length_) Grow(i + 1);
    cells_[i] = symbol;
  }

  /// Grows the logical length to at least `cells`; one comparison when
  /// already long enough (the per-move fast path).
  void EnsureLength(std::size_t cells) {
    if (cells > length_) Grow(cells);
  }

  char ReadCell(std::size_t index) override { return CellOrBlank(index); }
  void WriteCell(std::size_t index, char symbol) override {
    SetCell(index, symbol);
  }
  std::size_t size() const override { return length_; }
  void Reserve(std::size_t cells) override { EnsureLength(cells); }
  void Assign(std::string content) override;
  std::string ReadRange(std::size_t pos, std::size_t count) override;
  /// The rest of the buffer: cells `index .. size()-1`.
  std::string_view ContiguousCells(std::size_t index) override {
    if (index >= length_) return {};
    return std::string_view(cells_.data() + index, length_ - index);
  }
  void WriteRange(std::size_t pos, std::string_view data) override;
  const char* backend_name() const override { return "mem"; }

 private:
  void Grow(std::size_t cells);

  std::string cells_;        // physical buffer, blank-filled past length_
  std::size_t length_ = 0;   // logical cells used
};

/// Which backend a storage factory should build.
enum class BackendKind {
  kMem,   // in-RAM cells (the default)
  kFile,  // checksummed block file behind a BlockCache
};

/// Short name for `kind` ("mem" / "file").
const char* BackendName(BackendKind kind);

/// Configuration for creating tape storages — the knob set behind
/// `--tape-backend` / `--cache-blocks` / `--readahead-blocks` and their
/// environment fallbacks.
struct StorageOptions {
  BackendKind backend = BackendKind::kMem;
  /// Cells per block of the file backend (rounded up to a power of 2).
  std::size_t block_size = 4096;
  /// Cache capacity in blocks (per tape). The cache *budget* in cells
  /// is block_size * cache_blocks; experiments run out-of-core when a
  /// tape's content exceeds it.
  std::size_t cache_blocks = 64;
  /// Blocks prefetched ahead of the head on sequential scans. The knob
  /// behind `--readahead-blocks` / `RSTLAB_READAHEAD_BLOCKS`.
  std::size_t readahead_blocks = 4;
  /// Directory for backing files ("" = system temp dir + "rstlab-tapes").
  std::string dir;
  /// When set, each file storage publishes its IoStats here (as
  /// `extmem.*` counters) on destruction, folding block I/O into the
  /// `--metrics` output and `BENCH_trials.json`.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Builds a storage for `options` — a MemStorage, or a FileStorage on a
/// fresh uniquely-named temp file (deleted when the storage dies).
/// Fails (Status, no exception) when the backing file cannot be created.
Result<std::unique_ptr<TapeStorage>> CreateStorage(
    const StorageOptions& options);

/// The default options: `RSTLAB_TAPE_BACKEND` (mem|file),
/// `RSTLAB_CACHE_BLOCKS`, `RSTLAB_BLOCK_SIZE`, `RSTLAB_READAHEAD_BLOCKS`
/// and `RSTLAB_TAPE_DIR` read from the environment over the
/// `StorageOptions` defaults. A pure function of the environment; a
/// parsed `--tape-backend` reaches a context only as a value
/// (`sorting::ParseRunOptions`). `stmodel::StContext`'s plain
/// constructor uses this, which is how CI forces the whole test suite
/// through the file backend without touching each test.
StorageOptions DefaultStorageOptions();

}  // namespace rstlab::extmem

#endif  // RSTLAB_EXTMEM_STORAGE_H_
