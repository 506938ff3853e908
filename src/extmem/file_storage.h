#ifndef RSTLAB_EXTMEM_FILE_STORAGE_H_
#define RSTLAB_EXTMEM_FILE_STORAGE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "extmem/block_cache.h"
#include "extmem/block_file.h"
#include "extmem/io_stats.h"
#include "extmem/storage.h"

namespace rstlab::extmem {

/// The out-of-core backend: tape cells live in a checksummed block
/// file (see block_file.h for the format) behind a `BlockCache`, so a
/// tape's RAM footprint is `cache_blocks * block_size` cells no matter
/// how long the tape grows — the "external" device of the paper's
/// model made literal.
///
/// Per-cell access memoizes the current block's payload pointer (valid
/// because the cache pins the last-acquired block), so the per-cell
/// cost between block boundaries is a shift, a compare and an indexed
/// load — block-cache traffic happens once per block crossed, which on
/// the paper's scan-shaped access patterns is once per `block_size`
/// head moves. `ContiguousCells` hands out the rest of that block as
/// one view, so a bulk walk pays one virtual call per block instead
/// of several per cell.
///
/// `Create`/`Open` return Status (never throw): `Open` validates the
/// header and every block checksum, rejecting truncated files, bad
/// magic and checksum mismatches by name before any cell is served.
class FileStorage final : public TapeStorage {
 public:
  /// Backend knobs (block/cache geometry and lifecycle).
  struct FileOptions {
    /// Cells per block; rounded up to a power of two.
    std::size_t block_size = 4096;
    /// Cache capacity in blocks (≥ 2).
    std::size_t cache_blocks = 64;
    /// Prefetch depth in blocks.
    std::size_t readahead_blocks = 4;
    /// Unlink the backing file on destruction (temp-tape mode). Set to
    /// false for tapes that must persist and be `Open`ed again.
    bool delete_on_close = true;
    /// When set, the final IoStats are published here (as `extmem.*`
    /// counters) on destruction.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Creates (or truncates) the tape file at `path`, initially empty.
  static Result<std::unique_ptr<FileStorage>> Create(
      std::string path, const FileOptions& options);

  /// Opens an existing tape file, fully validated; the stored logical
  /// length is restored.
  static Result<std::unique_ptr<FileStorage>> Open(
      std::string path, const FileOptions& options);

  /// Flushes (when persistent), publishes metrics, closes and — in
  /// temp-tape mode — unlinks the backing file.
  ~FileStorage() override;

  char ReadCell(std::size_t index) override {
    if (index >= length_) return kBlankCell;
    return BlockFor(index, /*for_write=*/false)[index & cell_mask_];
  }

  void WriteCell(std::size_t index, char symbol) override {
    if (index >= length_) length_ = index + 1;
    BlockFor(index, /*for_write=*/true)[index & cell_mask_] = symbol;
  }

  std::size_t size() const override { return length_; }

  void Reserve(std::size_t cells) override {
    // Growth is block-deferred: only the logical length moves; blocks
    // materialize when written (absent blocks read blank).
    if (cells > length_) length_ = cells;
  }

  void Assign(std::string content) override;
  std::string ReadRange(std::size_t pos, std::size_t count) override;

  /// The rest of the block holding `index`, clamped to `size()`. The
  /// block is taken through the same memo as `ReadCell`, so a walk over
  /// the view acquires exactly the blocks a per-cell walk would, in the
  /// same order; the cache never evicts the block last acquired, so the
  /// view stays valid until the next call on this storage.
  std::string_view ContiguousCells(std::size_t index) override {
    if (index >= length_) return {};
    const std::size_t offset = index & cell_mask_;
    const std::size_t count =
        std::min(cell_mask_ + 1 - offset, length_ - index);
    return std::string_view(BlockFor(index, /*for_write=*/false) + offset,
                            count);
  }

  void WriteRange(std::size_t pos, std::string_view data) override;
  void SetDirectionHint(int direction) override {
    cache_.SetDirectionHint(direction);
  }
  Status Flush() override;
  IoStats io_stats() const override;
  const char* backend_name() const override { return "file"; }

  const std::string& path() const { return file_->path(); }
  std::size_t block_size() const { return file_->block_size(); }
  const BlockCache& cache() const { return cache_; }

 private:
  FileStorage(std::unique_ptr<BlockFile> file, const FileOptions& options);

  /// Payload of the block containing `index`, memoized across calls.
  char* BlockFor(std::size_t index, bool for_write) {
    const std::size_t block = index >> block_shift_;
    if (block != current_block_ || (for_write && !current_writable_)) {
      current_ = cache_.Acquire(block, for_write);
      current_block_ = block;
      current_writable_ = for_write;
    }
    return current_;
  }

  void ForgetCurrent() {
    current_ = nullptr;
    current_block_ = static_cast<std::size_t>(-1);
    current_writable_ = false;
  }

  std::unique_ptr<BlockFile> file_;
  BlockCache cache_;
  std::size_t block_shift_;   // log2(block size)
  std::size_t cell_mask_;     // block size - 1
  std::size_t length_ = 0;    // logical cells used
  bool delete_on_close_;
  obs::MetricsRegistry* metrics_;
  IoStats direct_;            // bulk I/O done around the cache (Assign)

  char* current_ = nullptr;   // memoized payload of current_block_
  std::size_t current_block_ = static_cast<std::size_t>(-1);
  bool current_writable_ = false;
};

}  // namespace rstlab::extmem

#endif  // RSTLAB_EXTMEM_FILE_STORAGE_H_
