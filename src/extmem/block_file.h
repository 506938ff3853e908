#ifndef RSTLAB_EXTMEM_BLOCK_FILE_H_
#define RSTLAB_EXTMEM_BLOCK_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/status.h"

namespace rstlab::extmem {

/// FNV-1a 64-bit hash of `data` — the header checksum of the tape file
/// format, and the tail step of `BlockChecksum64`. Not cryptographic;
/// it detects the torn and bit-rotted writes the crash-safety tests
/// simulate.
std::uint64_t Fnv1a64(const char* data, std::size_t size);

/// The block-record checksum of the tape file format (version 2): a
/// 64-bit hash over little-endian 8-byte words in four independent
/// lanes, each updated as `h = (h ^ w) * P` with P the (odd) FNV prime,
/// so it runs at about one multiply per word instead of FNV-1a's one
/// serial multiply per byte. The tail of under 32 bytes goes through
/// FNV-1a, and the lanes are folded into that as `out = out * P + lane`.
/// Every step is a bijection of the changed value, so any change
/// confined to one aligned word (in particular any single flipped
/// byte) changes the checksum — FNV-1a's single-byte guarantee.
std::uint64_t BlockChecksum64(const char* data, std::size_t size);

/// On-disk layout of a tape file (all integers little-endian):
///
///   header (64 bytes):
///     [0..8)   magic "RSTLEXT1"
///     [8..12)  format version (= 2)
///     [12..16) block size in cells
///     [16..24) logical tape length in cells
///     [24..32) number of block records present
///     [32..56) reserved (zero)
///     [56..64) FNV-1a of bytes [0..56)
///   block record i at offset 64 + i * (block_size + 8):
///     [0..block_size)  cell payload
///     [.. + 8)         BlockChecksum64 of the payload
///
/// Version 1 files carried FNV-1a block checksums; `Open` rejects them
/// as an unsupported version. Only temp tapes are created outside
/// tests, and they are deleted when their storage dies, so no file
/// outlives the process that wrote it.
///
/// Blocks never written are absent from the file and read as blank;
/// `num_blocks` counts the records physically present, which `Open`
/// cross-checks against the file size (a torn final record is a
/// "truncated file" error, a flipped payload byte a "checksum
/// mismatch", a foreign file a "bad magic").
inline constexpr char kTapeFileMagic[8] = {'R', 'S', 'T', 'L',
                                           'E', 'X', 'T', '1'};
inline constexpr std::uint32_t kTapeFileVersion = 2;
inline constexpr std::size_t kTapeFileHeaderSize = 64;

/// Decoded header fields.
struct TapeFileHeader {
  std::uint32_t block_size = 0;
  std::uint64_t length = 0;
  std::uint64_t num_blocks = 0;
};

/// Serializes `header` into `out[kTapeFileHeaderSize]`.
void EncodeTapeFileHeader(const TapeFileHeader& header, char* out);

/// Parses and validates `data[kTapeFileHeaderSize]`: checks magic,
/// version and the header checksum, returning named errors.
Result<TapeFileHeader> DecodeTapeFileHeader(const char* data);

/// A validated, checksummed block file: the raw device under the
/// FileStorage cache. One block record per `block_size` cells.
///
/// `Create` starts an empty file (truncating any previous content);
/// `Open` validates an existing one — header, exact file size, and
/// every block checksum — so that after a successful Open, block reads
/// cannot serve corrupted data. Both return Status instead of throwing.
class BlockFile {
 public:
  ~BlockFile();
  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  /// Creates (or truncates) `path` as an empty tape file.
  static Result<std::unique_ptr<BlockFile>> Create(std::string path,
                                                   std::size_t block_size);

  /// Opens and fully validates an existing tape file. Rejects bad
  /// magic/version, size mismatches (truncated or trailing bytes) and
  /// per-block checksum mismatches with a named error.
  static Result<std::unique_ptr<BlockFile>> Open(std::string path);

  /// Reads block `index` into `out` (`block_size()` bytes); blocks at
  /// or beyond `num_blocks()` come back all-blank. Verifies the
  /// record's checksum again at read time.
  Status ReadBlock(std::size_t index, char* out);

  /// Writes block `index` (payload + fresh checksum), extending the
  /// file with blank records if `index >= num_blocks()`.
  Status WriteBlock(std::size_t index, const char* data);

  /// Rewrites the header with `length` and flushes libc buffers to the
  /// OS. Call after write-backs to make the file reopenable.
  Status Sync(std::uint64_t length);

  /// Discards all blocks and resets the logical length to zero.
  Status Truncate();

  std::size_t block_size() const { return block_size_; }
  std::size_t num_blocks() const { return num_blocks_; }
  /// Logical tape length recorded in the header at Open/Sync time.
  std::uint64_t header_length() const { return header_length_; }
  const std::string& path() const { return path_; }

 private:
  BlockFile(std::string path, std::FILE* file, std::size_t block_size,
            std::size_t num_blocks, std::uint64_t header_length)
      : path_(std::move(path)),
        file_(file),
        block_size_(block_size),
        num_blocks_(num_blocks),
        header_length_(header_length) {}

  long RecordOffset(std::size_t index) const;
  Status WriteHeader(std::uint64_t length);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t block_size_ = 0;
  std::size_t num_blocks_ = 0;
  std::uint64_t header_length_ = 0;
};

}  // namespace rstlab::extmem

#endif  // RSTLAB_EXTMEM_BLOCK_FILE_H_
