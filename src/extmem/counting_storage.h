#ifndef RSTLAB_EXTMEM_COUNTING_STORAGE_H_
#define RSTLAB_EXTMEM_COUNTING_STORAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "extmem/storage.h"

namespace rstlab::extmem {

/// TapeStorage decorator counting every cell access — the
/// instrumentation behind the "reads each cell exactly once per scan"
/// regression pins (the fingerprint tape tester's and the XML event
/// reader's). Deliberately NOT a MemStorage subclass: Tape only takes
/// its zero-virtual-call fast path for MemStorage, so wrapping keeps
/// every Read on the virtual path where it can be counted. Its
/// `ContiguousCells` serves one cell per call and counts that call as
/// one read, so a bulk walk over a counting tape reads, and is
/// counted, cell by cell like the per-cell walk it replaces.
class CountingStorage final : public TapeStorage {
 public:
  explicit CountingStorage(std::string content)
      : inner_(std::move(content)) {}

  char ReadCell(std::size_t index) override {
    ++reads;
    return inner_.ReadCell(index);
  }
  void WriteCell(std::size_t index, char symbol) override {
    ++writes;
    inner_.WriteCell(index, symbol);
  }
  std::size_t size() const override { return inner_.size(); }
  void Reserve(std::size_t cells) override { inner_.Reserve(cells); }
  void Assign(std::string content) override {
    inner_.Assign(std::move(content));
  }
  std::string ReadRange(std::size_t pos, std::size_t count) override {
    return inner_.ReadRange(pos, count);
  }
  std::string_view ContiguousCells(std::size_t index) override {
    ++reads;
    return inner_.ContiguousCells(index).substr(0, 1);
  }
  void WriteRange(std::size_t pos, std::string_view data) override {
    inner_.WriteRange(pos, data);
  }
  const char* backend_name() const override { return "counting"; }

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

 private:
  MemStorage inner_;
};

}  // namespace rstlab::extmem

#endif  // RSTLAB_EXTMEM_COUNTING_STORAGE_H_
