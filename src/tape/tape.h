#ifndef RSTLAB_TAPE_TAPE_H_
#define RSTLAB_TAPE_TAPE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "extmem/io_stats.h"
#include "extmem/storage.h"
#include "obs/trace.h"

namespace rstlab::tape {

/// The blank symbol present on every unwritten cell (paper: the square
/// symbol in Sigma). Aliases the storage layer's blank so both layers
/// agree on what a never-written cell reads as.
inline constexpr char kBlank = extmem::kBlankCell;

/// Head movement directions.
enum class Direction : int {
  kLeft = -1,
  kRight = +1,
};

/// One external-memory tape of an ST-machine (paper Section 2).
///
/// The tape is one-sided infinite (cells numbered from 0, growing on
/// demand), holds `char` symbols, and meters exactly the quantity the
/// paper's cost model charges for: the number of head-direction changes
/// `rev(rho, i)` (Definition 1). Sequential scans are free; each change of
/// direction increments `reversals()`. A random access is expressible as
/// `Seek`, which costs at most two direction changes — mirroring the
/// paper's observation that random access can be simulated by head
/// movement.
///
/// The head starts at cell 0 moving right. Reads and writes never move the
/// head; movement is explicit via MoveLeft/MoveRight/Seek.
///
/// Storage: where the cells live is delegated to an
/// `extmem::TapeStorage` backend — in RAM by default, or a
/// checksummed block file behind an LRU + readahead cache
/// (`extmem::FileStorage`), which lets experiments run at N larger
/// than RAM. The reversal and space accounting is backend-independent:
/// a run's measured (r, s, t) is bit-identical across backends. The
/// in-memory backend is accessed through a typed pointer with inline
/// cell accessors, so the common case pays no virtual dispatch per
/// cell; the head's scan direction is forwarded to the backend (once
/// per reversal) to steer the file backend's readahead.
///
/// Observability: `AttachTrace` installs an event sink. The traced tape
/// emits scan-segment begin/end events (with the segment's head-position
/// envelope) and one kReversal per direction change. Untraced tapes pay
/// a single null-pointer check per direction change and nothing per move.
class Tape {
 public:
  /// An empty tape (all blanks) on the in-memory backend.
  Tape() : Tape(std::string()) {}

  /// A tape whose cells 0..content.size()-1 hold `content`, in memory.
  explicit Tape(std::string content);

  /// A tape over an explicit storage backend (its existing content, if
  /// any, is the tape content). `storage` must not be null.
  explicit Tape(std::unique_ptr<extmem::TapeStorage> storage);

  Tape(Tape&& other) noexcept;
  Tape& operator=(Tape&& other) noexcept;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Replaces the entire tape content and rewinds the head to cell 0
  /// moving right, resetting reversal accounting (and, when traced,
  /// opening scan segment 0).
  void Reset(std::string content);

  /// The symbol under the head.
  char Read() const {
    if (mem_ != nullptr) return mem_->CellOrBlank(head_);
    return storage_->ReadCell(head_);
  }

  /// Overwrites the symbol under the head (the head does not move).
  void Write(char symbol) {
    if (mem_ != nullptr) {
      mem_->SetCell(head_, symbol);
      return;
    }
    storage_->WriteCell(head_, symbol);
  }

  /// Moves the head one cell to the right, growing the tape with blanks
  /// as needed (block-granular in the storage layer; the per-move cost
  /// is one comparison).
  void MoveRight() {
    RecordDirection(Direction::kRight);
    ++head_;
    ReserveThroughHead();
  }

  /// Moves the head one cell to the left. At cell 0 the head cannot move
  /// (the tape is one-sided) and the call is a no-op: Definition 1 counts
  /// direction changes of the head's actual trajectory, so a blocked
  /// move charges no reversal and leaves the recorded direction as-is.
  void MoveLeft() {
    if (head_ == 0) return;
    RecordDirection(Direction::kLeft);
    --head_;
  }

  /// Moves the head to absolute cell `position` — the model's "random
  /// access". It is one jump, metered exactly as the |position - head()|
  /// single moves it stands for: at most one direction change (whose
  /// trace events carry the position the turn started at), and a
  /// rightward seek grows the tape to `position + 1` cells.
  void Seek(std::size_t position);

  /// Moves the head right until it rests on the first cell holding
  /// `stop` or the blank, appending every cell it passes to `*passed`
  /// (when not null); returns how many it passed. Metered exactly as
  /// that many MoveRight() calls: one direction check, the same head
  /// and the same growth, and nothing at all when the head already
  /// rests on a stop. The head never passes a blank, so the walk ends
  /// at the end of the content at the latest. The cells are fetched a
  /// contiguous run at a time (`TapeStorage::ContiguousCells`), which
  /// is what keeps field walks off the per-cell virtual path. There is
  /// deliberately no way to look at cells without moving over them.
  std::size_t MoveRightUntil(char stop, std::string* passed);

  /// Reads the `count` cells starting at the head while moving the head
  /// `count` cells to the right — exactly equivalent to `count`
  /// Read()+MoveRight() pairs (same final head position, same tape
  /// growth, at most one metered direction change, cells past the
  /// content read blank) but one bulk storage call, which keeps the
  /// per-cell virtual dispatch off the sort's scan paths.
  std::string ReadForward(std::size_t count);

  /// Writes `data` rightwards from the head, leaving the head one past
  /// the last written cell — equivalent to data.size() Write()+
  /// MoveRight() pairs, as one bulk storage call.
  void WriteForward(std::string_view data);

  /// Current head position.
  std::size_t head() const { return head_; }

  /// Current head direction (the direction of the most recent move;
  /// right initially).
  Direction direction() const { return direction_; }

  /// Number of head-direction changes so far: rev(rho, i) of Definition 1.
  std::uint64_t reversals() const { return reversals_; }

  /// Number of cells ever used (written or visited): space(rho, i).
  std::size_t cells_used() const { return storage_->size(); }

  /// The first `cells_used()` cells as a string (diagnostics and result
  /// extraction; not part of the machine model).
  std::string contents() const {
    return storage_->ReadRange(0, storage_->size());
  }

  /// True iff the symbol under the head is blank.
  bool AtBlank() const { return Read() == kBlank; }

  /// The storage backend underneath (for I/O inspection and flushing).
  extmem::TapeStorage& storage() { return *storage_; }
  const extmem::TapeStorage& storage() const { return *storage_; }

  /// Block-level I/O counters of the backend (all zero in memory).
  extmem::IoStats io_stats() const { return storage_->io_stats(); }

  /// Installs `sink` (nullptr detaches) and tags this tape's events with
  /// `tape_id`. Resets segment bookkeeping and opens scan segment 0 at
  /// the current head position.
  void AttachTrace(obs::TraceSink* sink, std::int32_t tape_id);

  /// Emits the kScanEnd event for the currently open scan segment, so a
  /// consumer sees the final segment's envelope. Idempotent; a no-op
  /// when untraced. Call at the end of a traced run.
  void FlushTrace();

 private:
  /// Fast path of the per-move direction check; the reversal
  /// bookkeeping, trace emission and readahead hint live out of line.
  void RecordDirection(Direction d) {
    if (d != direction_) RecordDirectionSlow(d);
  }
  void RecordDirectionSlow(Direction d);
  /// Grows the logical length to cover the cell under the head.
  void ReserveThroughHead() {
    if (mem_ != nullptr) {
      mem_->EnsureLength(head_ + 1);
      return;
    }
    storage_->Reserve(head_ + 1);
  }
  void EmitScanBegin();
  void EmitScanEnd();

  std::unique_ptr<extmem::TapeStorage> storage_;
  extmem::MemStorage* mem_ = nullptr;  // typed alias when in-memory
  std::size_t head_ = 0;
  Direction direction_ = Direction::kRight;
  std::uint64_t reversals_ = 0;

  obs::TraceSink* trace_ = nullptr;
  std::int32_t trace_tape_id_ = -1;
  std::uint64_t scan_index_ = 0;       // current segment number
  std::size_t segment_start_ = 0;      // head position the segment began at
  bool segment_open_ = false;          // an un-flushed segment exists
};

}  // namespace rstlab::tape

#endif  // RSTLAB_TAPE_TAPE_H_
