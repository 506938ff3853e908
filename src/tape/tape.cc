#include "tape/tape.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rstlab::tape {

namespace {

extmem::MemStorage* AsMem(extmem::TapeStorage* storage) {
  return dynamic_cast<extmem::MemStorage*>(storage);
}

}  // namespace

Tape::Tape(std::string content)
    : storage_(std::make_unique<extmem::MemStorage>(std::move(content))) {
  mem_ = static_cast<extmem::MemStorage*>(storage_.get());
}

Tape::Tape(std::unique_ptr<extmem::TapeStorage> storage)
    : storage_(std::move(storage)) {
  assert(storage_ != nullptr);
  mem_ = AsMem(storage_.get());
}

Tape::Tape(Tape&& other) noexcept
    : storage_(std::move(other.storage_)),
      mem_(std::exchange(other.mem_, nullptr)),
      head_(other.head_),
      direction_(other.direction_),
      reversals_(other.reversals_),
      trace_(other.trace_),
      trace_tape_id_(other.trace_tape_id_),
      scan_index_(other.scan_index_),
      segment_start_(other.segment_start_),
      segment_open_(other.segment_open_) {}

Tape& Tape::operator=(Tape&& other) noexcept {
  if (this == &other) return *this;
  storage_ = std::move(other.storage_);
  mem_ = std::exchange(other.mem_, nullptr);
  head_ = other.head_;
  direction_ = other.direction_;
  reversals_ = other.reversals_;
  trace_ = other.trace_;
  trace_tape_id_ = other.trace_tape_id_;
  scan_index_ = other.scan_index_;
  segment_start_ = other.segment_start_;
  segment_open_ = other.segment_open_;
  return *this;
}

void Tape::Reset(std::string content) {
  storage_->Assign(std::move(content));
  head_ = 0;
  direction_ = Direction::kRight;
  reversals_ = 0;
  scan_index_ = 0;
  segment_start_ = 0;
  if (mem_ == nullptr) storage_->SetDirectionHint(+1);
  if (trace_ != nullptr) {
    segment_open_ = true;
    EmitScanBegin();
  }
}

void Tape::AttachTrace(obs::TraceSink* sink, std::int32_t tape_id) {
  trace_ = sink;
  trace_tape_id_ = tape_id;
  scan_index_ = 0;
  segment_start_ = head_;
  segment_open_ = trace_ != nullptr;
  if (trace_ != nullptr) EmitScanBegin();
}

void Tape::EmitScanBegin() {
  obs::TraceEvent event;
  event.kind = obs::EventKind::kScanBegin;
  event.tape_id = trace_tape_id_;
  event.scan = scan_index_;
  event.position = head_;
  event.direction = static_cast<int>(direction_);
  trace_->OnEvent(event);
}

void Tape::EmitScanEnd() {
  obs::TraceEvent event;
  event.kind = obs::EventKind::kScanEnd;
  event.tape_id = trace_tape_id_;
  event.scan = scan_index_;
  event.position = head_;
  event.lo = std::min(segment_start_, head_);
  event.hi = std::max(segment_start_, head_);
  event.direction = static_cast<int>(direction_);
  trace_->OnEvent(event);
}

void Tape::FlushTrace() {
  if (trace_ == nullptr || !segment_open_) return;
  EmitScanEnd();
  segment_open_ = false;
}

void Tape::RecordDirectionSlow(Direction d) {
  if (trace_ != nullptr) {
    if (segment_open_) EmitScanEnd();
    obs::TraceEvent event;
    event.kind = obs::EventKind::kReversal;
    event.tape_id = trace_tape_id_;
    event.scan = scan_index_;
    event.position = head_;
    event.direction = static_cast<int>(d);
    trace_->OnEvent(event);
  }
  ++reversals_;
  direction_ = d;
  // Steer the file backend's readahead; once per reversal, so the
  // hint is off the per-move path.
  if (mem_ == nullptr) storage_->SetDirectionHint(static_cast<int>(d));
  if (trace_ != nullptr) {
    ++scan_index_;
    segment_start_ = head_;
    segment_open_ = true;
    EmitScanBegin();
  }
}

void Tape::Seek(std::size_t position) {
  if (position > head_) {
    RecordDirection(Direction::kRight);
    head_ = position;
    ReserveThroughHead();
  } else if (position < head_) {
    RecordDirection(Direction::kLeft);
    head_ = position;
  }
}

std::size_t Tape::MoveRightUntil(char stop, std::string* passed) {
  const auto cells_from = [this](std::size_t index) {
    return mem_ != nullptr ? mem_->ContiguousCells(index)
                           : storage_->ContiguousCells(index);
  };
  std::size_t moved = 0;
  for (std::string_view cells = cells_from(head_);;
       cells = cells_from(head_ + moved)) {
    std::size_t run = 0;
    while (run < cells.size() && cells[run] != stop && cells[run] != kBlank) {
      ++run;
    }
    if (run > 0) {
      // Turn before the next run is fetched, as the per-cell walk turns
      // on its first move: the file backend's readahead follows the
      // direction when it acquires the next block.
      if (moved == 0) RecordDirection(Direction::kRight);
      if (passed != nullptr) passed->append(cells.data(), run);
      moved += run;
    }
    if (run < cells.size() || cells.empty()) break;
  }
  if (moved == 0) return 0;
  head_ += moved;
  ReserveThroughHead();
  return moved;
}

std::string Tape::ReadForward(std::size_t count) {
  if (count == 0) return std::string();
  RecordDirection(Direction::kRight);
  std::string out = storage_->ReadRange(head_, count);
  out.resize(count, kBlank);
  head_ += count;
  ReserveThroughHead();
  return out;
}

void Tape::WriteForward(std::string_view data) {
  if (data.empty()) return;
  RecordDirection(Direction::kRight);
  storage_->WriteRange(head_, data);
  head_ += data.size();
  ReserveThroughHead();
}

}  // namespace rstlab::tape
