#include "extmem/storage.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <unistd.h>

#include "extmem/file_storage.h"

namespace rstlab::extmem {

void TapeStorage::WriteRange(std::size_t pos, std::string_view data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    WriteCell(pos + i, data[i]);
  }
}

void MemStorage::Grow(std::size_t cells) {
  length_ = cells;
  if (cells > cells_.size()) {
    // Geometric buffer growth keeps the amortized append cost at O(1)
    // and the blank-fill off the per-move path; the logical length
    // stays exact for space accounting.
    cells_.resize(std::max(cells, cells_.size() + cells_.size() / 2),
                  kBlankCell);
  }
}

void MemStorage::Assign(std::string content) {
  cells_ = std::move(content);
  length_ = cells_.size();
}

std::string MemStorage::ReadRange(std::size_t pos, std::size_t count) {
  if (pos >= length_) return std::string();
  return cells_.substr(pos, std::min(count, length_ - pos));
}

void MemStorage::WriteRange(std::size_t pos, std::string_view data) {
  if (data.empty()) return;
  EnsureLength(pos + data.size());
  std::memcpy(cells_.data() + pos, data.data(), data.size());
}

const char* BackendName(BackendKind kind) {
  return kind == BackendKind::kFile ? "file" : "mem";
}

namespace {

std::string DefaultTapeDir() {
  std::error_code ec;
  std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) tmp = ".";
  return (tmp / "rstlab-tapes").string();
}

/// Uniquely named backing file under `dir` (per process and per tape).
std::string NextTapePath(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/tape-" + std::to_string(static_cast<long>(::getpid())) +
         "-" + std::to_string(counter.fetch_add(1)) + ".rstape";
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || parsed == 0) {
    std::fprintf(stderr, "rstlab extmem: ignoring %s=%s (want a positive integer)\n",
                 name, value);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

Result<std::unique_ptr<TapeStorage>> CreateStorage(
    const StorageOptions& options) {
  if (options.backend == BackendKind::kMem) {
    return std::unique_ptr<TapeStorage>(std::make_unique<MemStorage>());
  }
  const std::string dir = options.dir.empty() ? DefaultTapeDir() : options.dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::NotFound("extmem: cannot create tape directory " + dir +
                            ": " + ec.message());
  }
  FileStorage::FileOptions file_options;
  file_options.block_size = options.block_size;
  file_options.cache_blocks = options.cache_blocks;
  file_options.readahead_blocks = options.readahead_blocks;
  file_options.delete_on_close = true;
  file_options.metrics = options.metrics;
  Result<std::unique_ptr<FileStorage>> storage =
      FileStorage::Create(NextTapePath(dir), file_options);
  if (!storage.ok()) return storage.status();
  return std::unique_ptr<TapeStorage>(std::move(storage).value());
}

StorageOptions DefaultStorageOptions() {
  StorageOptions options;
  if (const char* backend = std::getenv("RSTLAB_TAPE_BACKEND")) {
    if (std::strcmp(backend, "file") == 0) {
      options.backend = BackendKind::kFile;
    } else if (std::strcmp(backend, "mem") != 0 && *backend != '\0') {
      std::fprintf(stderr,
                   "rstlab extmem: ignoring RSTLAB_TAPE_BACKEND=%s "
                   "(want mem or file)\n",
                   backend);
    }
  }
  options.block_size = EnvSize("RSTLAB_BLOCK_SIZE", options.block_size);
  options.cache_blocks = EnvSize("RSTLAB_CACHE_BLOCKS", options.cache_blocks);
  options.readahead_blocks =
      EnvSize("RSTLAB_READAHEAD_BLOCKS", options.readahead_blocks);
  if (const char* dir = std::getenv("RSTLAB_TAPE_DIR")) {
    if (*dir != '\0') options.dir = dir;
  }
  return options;
}

}  // namespace rstlab::extmem
