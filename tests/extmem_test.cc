#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "extmem/block_cache.h"
#include "extmem/block_file.h"
#include "extmem/file_storage.h"
#include "extmem/io_stats.h"
#include "extmem/storage.h"
#include "obs/metrics.h"

namespace rstlab::extmem {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

FileStorage::FileOptions SmallFileOptions() {
  FileStorage::FileOptions options;
  options.block_size = 16;
  options.cache_blocks = 4;
  options.readahead_blocks = 2;
  return options;
}

// ---------------------------------------------------------------------
// MemStorage

TEST(MemStorageTest, FreshStorageReadsBlank) {
  MemStorage storage;
  EXPECT_EQ(storage.size(), 0u);
  EXPECT_EQ(storage.ReadCell(0), kBlankCell);
  EXPECT_EQ(storage.ReadCell(1000), kBlankCell);
}

TEST(MemStorageTest, WriteGrowsLogicalLength) {
  MemStorage storage;
  storage.WriteCell(5, 'x');
  EXPECT_EQ(storage.size(), 6u);
  EXPECT_EQ(storage.ReadCell(5), 'x');
  // The gap reads blank.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(storage.ReadCell(i), kBlankCell);
}

TEST(MemStorageTest, ReserveExtendsWithBlanks) {
  MemStorage storage(std::string("abc"));
  storage.Reserve(10);
  EXPECT_EQ(storage.size(), 10u);
  EXPECT_EQ(storage.ReadCell(2), 'c');
  EXPECT_EQ(storage.ReadCell(9), kBlankCell);
  // Reserving less than the current length is a no-op.
  storage.Reserve(1);
  EXPECT_EQ(storage.size(), 10u);
}

TEST(MemStorageTest, AssignReplacesContent) {
  MemStorage storage(std::string("old content here"));
  storage.Assign("new");
  EXPECT_EQ(storage.size(), 3u);
  EXPECT_EQ(storage.ReadRange(0, 100), "new");
}

TEST(MemStorageTest, ReadRangeClampsToLength) {
  MemStorage storage(std::string("abcdef"));
  EXPECT_EQ(storage.ReadRange(2, 3), "cde");
  EXPECT_EQ(storage.ReadRange(4, 100), "ef");
  EXPECT_EQ(storage.ReadRange(6, 4), "");
  EXPECT_EQ(storage.ReadRange(100, 4), "");
}

TEST(MemStorageTest, IoStatsAreAllZero) {
  MemStorage storage(std::string("abc"));
  storage.WriteCell(100, 'x');
  const IoStats stats = storage.io_stats();
  EXPECT_EQ(stats.block_reads, 0u);
  EXPECT_EQ(stats.block_writes, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

// ---------------------------------------------------------------------
// Checksums and the header codec

TEST(BlockFileTest, Fnv1a64MatchesReferenceVector) {
  // Offset basis for the empty input; "a" from the published FNV test
  // vectors.
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(BlockFileTest, BlockChecksumMatchesReferenceVectors) {
  // Pinned from an independent implementation of the format-2 rule:
  // four lanes h = (h ^ w) * P over little-endian words, the FNV-1a
  // tail, folded as out = out * P + lane.
  std::string counting(64, '\0');
  for (std::size_t i = 0; i < counting.size(); ++i) {
    counting[i] = static_cast<char>(i);
  }
  EXPECT_EQ(BlockChecksum64(counting.data(), counting.size()),
            0x39934f3966b78d3full);
  const std::string fox = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(BlockChecksum64(fox.data(), fox.size()), 0xcec81ebb858daa7cull);
  EXPECT_EQ(BlockChecksum64(std::string(16, kBlankCell).data(), 16),
            0x5e94ae708d90bc5full);
  EXPECT_EQ(BlockChecksum64(std::string(4096, kBlankCell).data(), 4096),
            0x78295ea3deba232full);
}

TEST(BlockFileTest, BlockChecksumSeesEverySingleByteChange) {
  // A 4096-byte block is 128 four-word strides; a 16-byte block is all
  // tail. Either way, changing any one byte changes the checksum.
  for (const std::size_t size : {std::size_t{4096}, std::size_t{16}}) {
    std::string block(size, kBlankCell);
    for (std::size_t i = 0; i < size; ++i) {
      block[i] = "01#_"[(i * 7 + i / 5) % 4];
    }
    const std::uint64_t clean = BlockChecksum64(block.data(), size);
    for (std::size_t i = 0; i < size; ++i) {
      for (const unsigned char flip : {0x01, 0x80, 0xff}) {
        block[i] = static_cast<char>(block[i] ^ flip);
        ASSERT_NE(BlockChecksum64(block.data(), size), clean)
            << "size " << size << ", byte " << i << ", xor " << int{flip};
        block[i] = static_cast<char>(block[i] ^ flip);
      }
    }
  }
}

TEST(BlockFileTest, HeaderRoundTrips) {
  TapeFileHeader header;
  header.block_size = 4096;
  header.length = 170000;  // fits the 42-block extent
  header.num_blocks = 42;
  char buffer[kTapeFileHeaderSize];
  EncodeTapeFileHeader(header, buffer);
  Result<TapeFileHeader> decoded = DecodeTapeFileHeader(buffer);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().block_size, 4096u);
  EXPECT_EQ(decoded.value().length, 170000u);
  EXPECT_EQ(decoded.value().num_blocks, 42u);
}

TEST(BlockFileTest, HeaderRejectsBadMagic) {
  TapeFileHeader header;
  header.block_size = 64;
  char buffer[kTapeFileHeaderSize];
  EncodeTapeFileHeader(header, buffer);
  buffer[0] = 'X';
  Result<TapeFileHeader> decoded = DecodeTapeFileHeader(buffer);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("bad magic"), std::string::npos);
}

TEST(BlockFileTest, HeaderRejectsChecksumMismatch) {
  TapeFileHeader header;
  header.block_size = 64;
  header.length = 7;
  char buffer[kTapeFileHeaderSize];
  EncodeTapeFileHeader(header, buffer);
  buffer[20] ^= 0x01;  // flip a bit inside the checksummed region
  Result<TapeFileHeader> decoded = DecodeTapeFileHeader(buffer);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------
// BlockFile device

TEST(BlockFileTest, WriteReadRoundTripAndBlankBeyondExtent) {
  const std::string path = TempPath("blockfile_roundtrip.rstape");
  auto file = BlockFile::Create(path, 16);
  ASSERT_TRUE(file.ok()) << file.status();
  std::unique_ptr<BlockFile> owned = std::move(file).value();
  BlockFile& device = *owned;

  std::string payload(16, 'q');
  ASSERT_TRUE(device.WriteBlock(2, payload.data()).ok());
  EXPECT_EQ(device.num_blocks(), 3u);  // gap blocks materialized blank

  char out[16];
  ASSERT_TRUE(device.ReadBlock(2, out).ok());
  EXPECT_EQ(std::string(out, 16), payload);
  ASSERT_TRUE(device.ReadBlock(0, out).ok());
  EXPECT_EQ(std::string(out, 16), std::string(16, kBlankCell));
  // Beyond the extent: synthesized blank, no error.
  ASSERT_TRUE(device.ReadBlock(100, out).ok());
  EXPECT_EQ(std::string(out, 16), std::string(16, kBlankCell));

  owned.reset();
  std::remove(path.c_str());
}

TEST(BlockFileTest, SyncThenOpenRestoresState) {
  const std::string path = TempPath("blockfile_reopen.rstape");
  {
    auto file = BlockFile::Create(path, 16);
    ASSERT_TRUE(file.ok()) << file.status();
    std::string payload(16, 'z');
    ASSERT_TRUE(file.value()->WriteBlock(0, payload.data()).ok());
    ASSERT_TRUE(file.value()->Sync(10).ok());
  }
  auto reopened = BlockFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::unique_ptr<BlockFile> device = std::move(reopened).value();
  EXPECT_EQ(device->block_size(), 16u);
  EXPECT_EQ(device->num_blocks(), 1u);
  EXPECT_EQ(device->header_length(), 10u);
  char out[16];
  ASSERT_TRUE(device->ReadBlock(0, out).ok());
  EXPECT_EQ(std::string(out, 16), std::string(16, 'z'));
  device.reset();
  std::remove(path.c_str());
}

TEST(BlockFileTest, OpenRejectsForeignFile) {
  const std::string path = TempPath("blockfile_foreign.rstape");
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(200, 'A');
  }
  auto opened = BlockFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BlockFileTest, OpenRejectsShortHeader) {
  const std::string path = TempPath("blockfile_short.rstape");
  {
    std::ofstream out(path, std::ios::binary);
    out << "RSTL";  // 4 bytes: not even a full header
  }
  auto opened = BlockFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

// A crash between writing a block record and fflush can leave a partial
// record on disk; the next Open must call that out rather than read it.
TEST(BlockFileTest, OpenRejectsTruncatedBlockRecords) {
  const std::string path = TempPath("blockfile_torn.rstape");
  {
    auto file = BlockFile::Create(path, 16);
    ASSERT_TRUE(file.ok()) << file.status();
    std::string payload(16, 'k');
    ASSERT_TRUE(file.value()->WriteBlock(0, payload.data()).ok());
    ASSERT_TRUE(file.value()->WriteBlock(1, payload.data()).ok());
    ASSERT_TRUE(file.value()->Sync(32).ok());
  }
  // Kill the tail of the second record (simulated mid-flush crash).
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 5);
  auto opened = BlockFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BlockFileTest, OpenRejectsFlippedPayloadByte) {
  const std::string path = TempPath("blockfile_bitrot.rstape");
  {
    auto file = BlockFile::Create(path, 16);
    ASSERT_TRUE(file.ok()) << file.status();
    std::string payload(16, 'm');
    ASSERT_TRUE(file.value()->WriteBlock(0, payload.data()).ok());
    ASSERT_TRUE(file.value()->Sync(16).ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kTapeFileHeaderSize) + 3);
    f.put('M');  // flip one payload byte under its checksum
  }
  auto opened = BlockFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("checksum mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(BlockFileTest, OpenRejectsVersionOneFile) {
  // Format 1 checksummed blocks with FNV-1a; a file whose (otherwise
  // valid) header says version 1 is refused before any block is read.
  const std::string path = TempPath("blockfile_v1.rstape");
  {
    auto file = BlockFile::Create(path, 16);
    ASSERT_TRUE(file.ok()) << file.status();
    std::string payload(16, 'v');
    ASSERT_TRUE(file.value()->WriteBlock(0, payload.data()).ok());
    ASSERT_TRUE(file.value()->Sync(16).ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char header[kTapeFileHeaderSize];
    ASSERT_TRUE(f.read(header, sizeof(header)));
    header[8] = 1;  // little-endian version field [8..12)
    header[9] = header[10] = header[11] = 0;
    const std::uint64_t checksum = Fnv1a64(header, 56);
    for (int i = 0; i < 8; ++i) {
      header[56 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
    }
    f.seekp(0);
    f.write(header, sizeof(header));
  }
  auto opened = BlockFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported tape file version"),
            std::string::npos)
      << opened.status();
  std::remove(path.c_str());
}

TEST(BlockFileTest, OpenRejectsTrailingGarbage) {
  const std::string path = TempPath("blockfile_trailing.rstape");
  {
    auto file = BlockFile::Create(path, 16);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file.value()->Sync(0).ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  auto opened = BlockFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("trailing"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// FileStorage

TEST(FileStorageTest, WriteReadRoundTrip) {
  const std::string path = TempPath("filestorage_roundtrip.rstape");
  auto storage = FileStorage::Create(path, SmallFileOptions());
  ASSERT_TRUE(storage.ok()) << storage.status();
  FileStorage& fs = *storage.value();
  EXPECT_STREQ(fs.backend_name(), "file");

  const std::string content = "the quick brown fox jumps over the lazy dog";
  for (std::size_t i = 0; i < content.size(); ++i) {
    fs.WriteCell(i, content[i]);
  }
  EXPECT_EQ(fs.size(), content.size());
  for (std::size_t i = 0; i < content.size(); ++i) {
    EXPECT_EQ(fs.ReadCell(i), content[i]) << "cell " << i;
  }
  EXPECT_EQ(fs.ReadRange(0, content.size()), content);
  EXPECT_EQ(fs.ReadCell(content.size() + 500), kBlankCell);
}

TEST(FileStorageTest, DeleteOnCloseRemovesBackingFile) {
  const std::string path = TempPath("filestorage_temp.rstape");
  {
    auto storage = FileStorage::Create(path, SmallFileOptions());
    ASSERT_TRUE(storage.ok()) << storage.status();
    storage.value()->WriteCell(0, 'x');
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FileStorageTest, PersistentStorageReopens) {
  const std::string path = TempPath("filestorage_persist.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.delete_on_close = false;
  const std::string content = "persist me across storage lifetimes!";
  {
    auto storage = FileStorage::Create(path, options);
    ASSERT_TRUE(storage.ok()) << storage.status();
    for (std::size_t i = 0; i < content.size(); ++i) {
      storage.value()->WriteCell(i, content[i]);
    }
  }  // destructor flushes
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    auto reopened = FileStorage::Open(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    std::unique_ptr<FileStorage> fs = std::move(reopened).value();
    EXPECT_EQ(fs->size(), content.size());
    EXPECT_EQ(fs->ReadRange(0, content.size()), content);
  }
  std::remove(path.c_str());
}

TEST(FileStorageTest, ReopenAfterCleanCloseRoundTripsModifications) {
  // Three storage lifetimes over one file: create + explicit Flush,
  // reopen + mutate + extend, reopen + verify. A clean close must
  // round-trip not just the original content but modifications made in
  // a later lifetime, including growth past the original size.
  const std::string path = TempPath("filestorage_reopen_rt.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.delete_on_close = false;
  {
    auto storage = FileStorage::Create(path, options);
    ASSERT_TRUE(storage.ok()) << storage.status();
    storage.value()->Assign("0101");
    ASSERT_TRUE(storage.value()->Flush().ok());
  }
  {
    auto reopened = FileStorage::Open(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    std::unique_ptr<FileStorage> fs = std::move(reopened).value();
    ASSERT_EQ(fs->ReadRange(0, fs->size()), "0101");
    fs->WriteCell(0, '1');
    fs->Reserve(6);
    fs->WriteCell(5, 'x');
  }  // destructor flushes
  {
    auto reopened = FileStorage::Open(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    std::unique_ptr<FileStorage> fs = std::move(reopened).value();
    EXPECT_EQ(fs->size(), 6u);
    EXPECT_EQ(fs->ReadRange(0, 6),
              std::string("1101") + kBlankCell + "x");
  }
  std::remove(path.c_str());
}

TEST(FileStorageTest, LruEvictionPreservesContentLargerThanCache) {
  // 4-block cache over a tape spanning 64 blocks: every cell still
  // reads back what was written, through eviction and write-back.
  const std::string path = TempPath("filestorage_evict.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.readahead_blocks = 0;
  auto storage = FileStorage::Create(path, options);
  ASSERT_TRUE(storage.ok()) << storage.status();
  FileStorage& fs = *storage.value();

  const std::size_t cells = 64 * options.block_size;
  for (std::size_t i = 0; i < cells; ++i) {
    fs.WriteCell(i, static_cast<char>('a' + (i % 26)));
  }
  // Backward scan to force reloads of evicted blocks.
  fs.SetDirectionHint(-1);
  for (std::size_t i = cells; i-- > 0;) {
    ASSERT_EQ(fs.ReadCell(i), static_cast<char>('a' + (i % 26)))
        << "cell " << i;
  }
  const IoStats stats = fs.io_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.block_writes, 0u);
  EXPECT_GT(stats.block_reads, 0u);
}

TEST(FileStorageTest, SequentialScanReadaheadHitRateIsHigh) {
  const std::string path = TempPath("filestorage_readahead.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.delete_on_close = false;
  const std::size_t cells = 128 * options.block_size;
  {
    auto storage = FileStorage::Create(path, options);
    ASSERT_TRUE(storage.ok()) << storage.status();
    for (std::size_t i = 0; i < cells; ++i) {
      storage.value()->WriteCell(i, static_cast<char>('0' + (i % 10)));
    }
  }
  // A cold sequential scan over the reopened file: all but the first
  // block should arrive via readahead, and nearly all prefetched blocks
  // get used.
  auto reopened = FileStorage::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::unique_ptr<FileStorage> fs = std::move(reopened).value();
  fs->SetDirectionHint(+1);
  for (std::size_t i = 0; i < cells; ++i) {
    ASSERT_EQ(fs->ReadCell(i), static_cast<char>('0' + (i % 10)));
  }
  const IoStats stats = fs->io_stats();
  EXPECT_GT(stats.readahead_blocks, 0u);
  EXPECT_GE(stats.ReadaheadHitRate(), 0.9)
      << "readahead=" << stats.readahead_blocks
      << " hits=" << stats.readahead_hits;
  EXPECT_GE(stats.HitRate(), 0.9);
  fs.reset();
  std::remove(path.c_str());
}

TEST(FileStorageTest, BackwardScanReadaheadFollowsDirectionHint) {
  const std::string path = TempPath("filestorage_backward.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.delete_on_close = false;
  const std::size_t cells = 64 * options.block_size;
  {
    auto storage = FileStorage::Create(path, options);
    ASSERT_TRUE(storage.ok()) << storage.status();
    for (std::size_t i = 0; i < cells; ++i) {
      storage.value()->WriteCell(i, static_cast<char>('A' + (i % 26)));
    }
  }
  auto reopened = FileStorage::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::unique_ptr<FileStorage> fs = std::move(reopened).value();
  fs->SetDirectionHint(-1);
  for (std::size_t i = cells; i-- > 0;) {
    ASSERT_EQ(fs->ReadCell(i), static_cast<char>('A' + (i % 26)));
  }
  const IoStats stats = fs->io_stats();
  EXPECT_GT(stats.readahead_blocks, 0u);
  EXPECT_GE(stats.ReadaheadHitRate(), 0.9);
  fs.reset();
  std::remove(path.c_str());
}

TEST(FileStorageTest, ReserveReadsBlankWithoutDeviceTraffic) {
  const std::string path = TempPath("filestorage_reserve.rstape");
  auto storage = FileStorage::Create(path, SmallFileOptions());
  ASSERT_TRUE(storage.ok()) << storage.status();
  FileStorage& fs = *storage.value();
  fs.Reserve(10000);
  EXPECT_EQ(fs.size(), 10000u);
  EXPECT_EQ(fs.ReadCell(9999), kBlankCell);
  // Absent blocks are synthesized blank in the cache, not read from
  // the device.
  EXPECT_EQ(fs.io_stats().block_reads, 0u);
}

TEST(FileStorageTest, AssignReplacesContentAndResetsFile) {
  const std::string path = TempPath("filestorage_assign.rstape");
  auto storage = FileStorage::Create(path, SmallFileOptions());
  ASSERT_TRUE(storage.ok()) << storage.status();
  FileStorage& fs = *storage.value();
  for (std::size_t i = 0; i < 1000; ++i) fs.WriteCell(i, 'x');
  fs.Assign("short");
  EXPECT_EQ(fs.size(), 5u);
  EXPECT_EQ(fs.ReadRange(0, 5), "short");
  EXPECT_EQ(fs.ReadCell(999), kBlankCell);
}

TEST(FileStorageTest, FlushMakesFileReopenable) {
  const std::string path = TempPath("filestorage_flush.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.delete_on_close = false;
  auto storage = FileStorage::Create(path, options);
  ASSERT_TRUE(storage.ok()) << storage.status();
  std::unique_ptr<FileStorage> fs = std::move(storage).value();
  for (std::size_t i = 0; i < 100; ++i) fs->WriteCell(i, 'f');
  ASSERT_TRUE(fs->Flush().ok());
  {
    // The on-disk image is valid while the storage is still live.
    auto opened = BlockFile::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened.value()->header_length(), 100u);
  }
  // Writes after a Flush still land (the memoized block pointer must
  // not skip the re-dirtying).
  fs->WriteCell(0, 'g');
  ASSERT_TRUE(fs->Flush().ok());
  {
    auto again = FileStorage::Open(path, options);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again.value()->ReadCell(0), 'g');
  }
  fs.reset();
  std::remove(path.c_str());
}

TEST(FileStorageTest, PublishesIoStatsToMetricsOnDestruction) {
  obs::MetricsRegistry metrics;
  const std::string path = TempPath("filestorage_metrics.rstape");
  FileStorage::FileOptions options = SmallFileOptions();
  options.metrics = &metrics;
  {
    auto storage = FileStorage::Create(path, options);
    ASSERT_TRUE(storage.ok()) << storage.status();
    for (std::size_t i = 0; i < 64 * options.block_size; ++i) {
      storage.value()->WriteCell(i, 'p');
    }
  }
  EXPECT_GT(metrics.counter("extmem.block_writes"), 0u);
  EXPECT_GT(metrics.counter("extmem.cache_misses"), 0u);
}

// ---------------------------------------------------------------------
// IoStats arithmetic

TEST(IoStatsTest, DeltaSinceSubtractsCounterWise) {
  IoStats earlier;
  earlier.block_reads = 10;
  earlier.cache_hits = 100;
  IoStats later = earlier;
  later.block_reads = 25;
  later.cache_hits = 180;
  later.evictions = 3;
  const IoStats delta = later.DeltaSince(earlier);
  EXPECT_EQ(delta.block_reads, 15u);
  EXPECT_EQ(delta.cache_hits, 80u);
  EXPECT_EQ(delta.evictions, 3u);
}

TEST(IoStatsTest, RatesAreOneWhenIdle) {
  const IoStats stats;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ReadaheadHitRate(), 1.0);
}

// ---------------------------------------------------------------------
// Factory and options plumbing

TEST(StorageFactoryTest, CreatesMemBackendByDefault) {
  StorageOptions options;
  auto storage = CreateStorage(options);
  ASSERT_TRUE(storage.ok()) << storage.status();
  EXPECT_STREQ(storage.value()->backend_name(), "mem");
}

TEST(StorageFactoryTest, CreatesFileBackendInRequestedDirectory) {
  StorageOptions options;
  options.backend = BackendKind::kFile;
  options.block_size = 16;
  options.cache_blocks = 4;
  options.dir = TempPath("factory-tapes");
  auto storage = CreateStorage(options);
  ASSERT_TRUE(storage.ok()) << storage.status();
  EXPECT_STREQ(storage.value()->backend_name(), "file");
  std::unique_ptr<TapeStorage> owned = std::move(storage).value();
  owned->WriteCell(0, 'y');
  EXPECT_EQ(owned->ReadCell(0), 'y');
  // Temp-tape mode: the backing file is gone once the storage dies.
  owned.reset();
  EXPECT_TRUE(std::filesystem::is_empty(options.dir));
  std::filesystem::remove_all(options.dir);
}

}  // namespace
}  // namespace rstlab::extmem
