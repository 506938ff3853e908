#include "extmem/block_file.h"

#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

#include "extmem/storage.h"

namespace rstlab::extmem {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void PutU32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void PutU64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t GetU32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

std::string PathError(const std::string& path, const char* what) {
  std::string message = "extmem: ";
  message += what;
  message += " (";
  message += path;
  message += "): ";
  message += std::strerror(errno);
  return message;
}

}  // namespace

std::uint64_t Fnv1a64(const char* data, std::size_t size) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t BlockChecksum64(const char* data, std::size_t size) {
  // One load per word (byte-swapped on big-endian hosts, so the value
  // is the same everywhere) and four independent multiply chains.
  const auto word = [data](std::size_t pos) {
    std::uint64_t w;
    std::memcpy(&w, data + pos, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  };
  std::uint64_t h0 = kFnvOffsetBasis;
  std::uint64_t h1 = kFnvOffsetBasis + 1;
  std::uint64_t h2 = kFnvOffsetBasis + 2;
  std::uint64_t h3 = kFnvOffsetBasis + 3;
  const std::size_t body = size - size % 32;
  for (std::size_t pos = 0; pos < body; pos += 32) {
    h0 = (h0 ^ word(pos)) * kFnvPrime;
    h1 = (h1 ^ word(pos + 8)) * kFnvPrime;
    h2 = (h2 ^ word(pos + 16)) * kFnvPrime;
    h3 = (h3 ^ word(pos + 24)) * kFnvPrime;
  }
  std::uint64_t out = Fnv1a64(data + body, size - body);
  for (const std::uint64_t lane : {h0, h1, h2, h3}) {
    out = out * kFnvPrime + lane;
  }
  return out;
}

void EncodeTapeFileHeader(const TapeFileHeader& header, char* out) {
  std::memset(out, 0, kTapeFileHeaderSize);
  std::memcpy(out, kTapeFileMagic, sizeof(kTapeFileMagic));
  PutU32(out + 8, kTapeFileVersion);
  PutU32(out + 12, header.block_size);
  PutU64(out + 16, header.length);
  PutU64(out + 24, header.num_blocks);
  PutU64(out + 56, Fnv1a64(out, 56));
}

Result<TapeFileHeader> DecodeTapeFileHeader(const char* data) {
  if (std::memcmp(data, kTapeFileMagic, sizeof(kTapeFileMagic)) != 0) {
    return Status::InvalidArgument("extmem: bad magic (not a tape file)");
  }
  if (GetU32(data + 8) != kTapeFileVersion) {
    return Status::InvalidArgument("extmem: unsupported tape file version");
  }
  if (GetU64(data + 56) != Fnv1a64(data, 56)) {
    return Status::Internal("extmem: header checksum mismatch");
  }
  TapeFileHeader header;
  header.block_size = GetU32(data + 12);
  header.length = GetU64(data + 16);
  header.num_blocks = GetU64(data + 24);
  if (header.block_size == 0) {
    return Status::Internal("extmem: corrupt header (zero block size)");
  }
  if (header.length > header.num_blocks *
                          static_cast<std::uint64_t>(header.block_size)) {
    return Status::Internal(
        "extmem: corrupt header (length exceeds block extent)");
  }
  return header;
}

BlockFile::~BlockFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<BlockFile>> BlockFile::Create(std::string path,
                                                     std::size_t block_size) {
  if (block_size == 0 || block_size > (1u << 30)) {
    return Status::InvalidArgument("extmem: bad block size");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb+");
  if (file == nullptr) {
    return Status::NotFound(PathError(path, "cannot create tape file"));
  }
  auto result = std::unique_ptr<BlockFile>(
      new BlockFile(std::move(path), file, block_size, 0, 0));
  RSTLAB_RETURN_IF_ERROR(result->WriteHeader(0));
  return result;
}

Result<std::unique_ptr<BlockFile>> BlockFile::Open(std::string path) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) {
    return Status::NotFound(PathError(path, "cannot open tape file"));
  }
  auto owner = std::unique_ptr<BlockFile>(
      new BlockFile(std::move(path), file, 1, 0, 0));

  char raw[kTapeFileHeaderSize];
  if (std::fread(raw, 1, kTapeFileHeaderSize, file) != kTapeFileHeaderSize) {
    return Status::Internal("extmem: truncated file (short header)");
  }
  Result<TapeFileHeader> header = DecodeTapeFileHeader(raw);
  if (!header.ok()) return header.status();
  const std::size_t block_size = header.value().block_size;
  const std::size_t num_blocks =
      static_cast<std::size_t>(header.value().num_blocks);
  const std::size_t record = block_size + 8;

  // The file must hold exactly the records the header announces: a
  // write killed mid-flush leaves a short tail, which must surface as
  // corruption instead of being served as data.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::Internal(PathError(owner->path_, "seek failed"));
  }
  const long end = std::ftell(file);
  const long expected = static_cast<long>(kTapeFileHeaderSize) +
                        static_cast<long>(num_blocks * record);
  if (end < expected) {
    return Status::Internal("extmem: truncated file (block records cut short)");
  }
  if (end > expected) {
    return Status::Internal("extmem: trailing bytes after last block record");
  }

  owner->block_size_ = block_size;
  owner->num_blocks_ = num_blocks;
  owner->header_length_ = header.value().length;

  // Validate every record checksum up front, so post-Open reads of a
  // validated file cannot silently return garbage.
  std::vector<char> payload(block_size);
  for (std::size_t i = 0; i < num_blocks; ++i) {
    RSTLAB_RETURN_IF_ERROR(owner->ReadBlock(i, payload.data()));
  }
  return owner;
}

long BlockFile::RecordOffset(std::size_t index) const {
  return static_cast<long>(kTapeFileHeaderSize) +
         static_cast<long>(index * (block_size_ + 8));
}

Status BlockFile::ReadBlock(std::size_t index, char* out) {
  if (index >= num_blocks_) {
    std::memset(out, kBlankCell, block_size_);
    return Status::OK();
  }
  if (std::fseek(file_, RecordOffset(index), SEEK_SET) != 0) {
    return Status::Internal(PathError(path_, "seek failed"));
  }
  char trailer[8];
  if (std::fread(out, 1, block_size_, file_) != block_size_ ||
      std::fread(trailer, 1, 8, file_) != 8) {
    return Status::Internal("extmem: truncated file (block records cut short)");
  }
  if (GetU64(trailer) != BlockChecksum64(out, block_size_)) {
    return Status::Internal("extmem: checksum mismatch (block " +
                            std::to_string(index) + ")");
  }
  return Status::OK();
}

Status BlockFile::WriteBlock(std::size_t index, const char* data) {
  // Fill any gap with blank records so the extent check of Open stays
  // exact (never-written *trailing* blocks alone stay absent).
  if (index > num_blocks_) {
    std::vector<char> blanks(block_size_, kBlankCell);
    for (std::size_t i = num_blocks_; i < index; ++i) {
      RSTLAB_RETURN_IF_ERROR(WriteBlock(i, blanks.data()));
    }
  }
  if (std::fseek(file_, RecordOffset(index), SEEK_SET) != 0) {
    return Status::Internal(PathError(path_, "seek failed"));
  }
  char trailer[8];
  PutU64(trailer, BlockChecksum64(data, block_size_));
  if (std::fwrite(data, 1, block_size_, file_) != block_size_ ||
      std::fwrite(trailer, 1, 8, file_) != 8) {
    return Status::Internal(PathError(path_, "write failed"));
  }
  if (index >= num_blocks_) num_blocks_ = index + 1;
  return Status::OK();
}

Status BlockFile::WriteHeader(std::uint64_t length) {
  TapeFileHeader header;
  header.block_size = static_cast<std::uint32_t>(block_size_);
  header.length = length;
  header.num_blocks = num_blocks_;
  char raw[kTapeFileHeaderSize];
  EncodeTapeFileHeader(header, raw);
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::Internal(PathError(path_, "seek failed"));
  }
  if (std::fwrite(raw, 1, kTapeFileHeaderSize, file_) !=
      kTapeFileHeaderSize) {
    return Status::Internal(PathError(path_, "header write failed"));
  }
  header_length_ = length;
  return Status::OK();
}

Status BlockFile::Sync(std::uint64_t length) {
  RSTLAB_RETURN_IF_ERROR(WriteHeader(length));
  if (std::fflush(file_) != 0) {
    return Status::Internal(PathError(path_, "flush failed"));
  }
  return Status::OK();
}

Status BlockFile::Truncate() {
  std::FILE* reopened = std::freopen(path_.c_str(), "wb+", file_);
  if (reopened == nullptr) {
    file_ = nullptr;
    return Status::Internal(PathError(path_, "truncate failed"));
  }
  file_ = reopened;
  num_blocks_ = 0;
  return WriteHeader(0);
}

}  // namespace rstlab::extmem
