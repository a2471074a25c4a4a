// Byte-level corruption sweeps over the block file that holds spill runs.
// Every flipped byte, truncation, swapped file, stale file and oversized
// length field must read back as exactly the rows written or fail with a
// classified kCorruption / kIoError: never as OK with different rows, and
// never by allocating from an unchecked length.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "presto/common/bytes.h"
#include "presto/common/compression.h"
#include "presto/common/crc32c.h"
#include "presto/exec/spill.h"
#include "presto/fs/memory_file_system.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

// While a thread counts, the allocation functions below record the largest
// size asked of them on that thread. The whole non-aligned family is
// replaced so that no allocation pairs one of these with a sanitizer's or
// the library's own deallocation.
thread_local bool t_count_allocations = false;
thread_local size_t t_largest_allocation = 0;

void* CountedAlloc(size_t size) {
  if (t_count_allocations && size > t_largest_allocation) {
    t_largest_allocation = size;
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace
}  // namespace presto

// The replacements pair malloc with free; GCC cannot see that both sides of
// each pair are replaced together.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(size_t size) {
  if (void* p = presto::CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return presto::CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return presto::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace presto {
namespace {

using Rows = std::vector<std::string>;

// `rows` rows of BIGINT (with nulls), VARCHAR, DOUBLE, BOOLEAN and
// ARRAY(BIGINT), so every column encoding of a block is swept.
Page MakePage(int64_t first, int rows) {
  VectorBuilder keys(Type::Bigint());
  VectorBuilder names(Type::Varchar());
  VectorBuilder values(Type::Double());
  VectorBuilder flags(Type::Boolean());
  VectorBuilder lists(Type::Array(Type::Bigint()));
  for (int i = 0; i < rows; ++i) {
    int64_t k = first + i;
    if (i % 5 == 0) {
      keys.AppendNull();
    } else {
      EXPECT_TRUE(keys.Append(Value::Int(k)).ok());
    }
    EXPECT_TRUE(names.Append(Value::String("n" + std::to_string(k))).ok());
    EXPECT_TRUE(values.Append(Value::Double(k / 4.0)).ok());
    EXPECT_TRUE(flags.Append(Value::Bool(k % 3 == 0)).ok());
    EXPECT_TRUE(
        lists.Append(Value::Array({Value::Int(k), Value::Int(-k)})).ok());
  }
  return Page({keys.Build(), names.Build(), values.Build(), flags.Build(),
               lists.Build()});
}

void AppendRows(const Page& page, Rows* out) {
  for (size_t r = 0; r < page.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < page.num_columns(); ++c) {
      row += page.column(c)->GetValue(r).ToString() + "|";
    }
    out->push_back(std::move(row));
  }
}

// Reads every run of `spiller` to its end, in run order.
Result<Rows> ReadAllRuns(Spiller* spiller) {
  ASSIGN_OR_RETURN(auto readers, spiller->OpenAllRuns());
  Rows rows;
  int64_t bytes = 0;
  for (auto& reader : readers) {
    while (true) {
      ASSIGN_OR_RETURN(std::optional<Page> page, reader->Next(&bytes));
      if (!page.has_value()) break;
      AppendRows(*page, &rows);
    }
  }
  return rows;
}

bool Classified(const Status& status) {
  return status.code() == StatusCode::kCorruption ||
         status.code() == StatusCode::kIoError;
}

// The sweep's rule: exact rows or a classified failure. Returns true when
// the read failed.
bool ExpectExactOrClassified(const Result<Rows>& got, const Rows& expected,
                             const std::string& what) {
  if (got.ok()) {
    EXPECT_EQ(*got, expected) << what << " read OK with different rows";
    return false;
  }
  EXPECT_TRUE(Classified(got.status()))
      << what << ": " << got.status().ToString();
  return true;
}

std::string OnlyFile(FileSystem* fs, const std::string& dir) {
  auto files = fs->ListFiles(dir);
  EXPECT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
  return files->empty() ? "" : files->front().path;
}

std::vector<uint8_t> ReadBytes(FileSystem* fs, const std::string& path) {
  auto file = fs->OpenForRead(path);
  EXPECT_TRUE(file.ok());
  auto bytes = (*file)->ReadAll();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

// A frame is u32 seq, u8 codec, u32 stored_len, u32 checksum, then the
// stored bytes; the file is the header frame, then the block frames.
constexpr size_t kHeaderFrameOffset = 0;
constexpr size_t kCodecOffset = 4;      // within a frame
constexpr size_t kStoredLenOffset = 5;  // within a frame
constexpr size_t kChecksumOffset = 9;   // within a frame

size_t FrameEnd(const std::vector<uint8_t>& file, size_t frame) {
  uint32_t stored_len = 0;
  std::memcpy(&stored_len, file.data() + frame + kStoredLenOffset, 4);
  return frame + 13 + stored_len;
}

size_t FirstBlockOffset(const std::vector<uint8_t>& file) {
  return FrameEnd(file, kHeaderFrameOffset);
}

void PutU32At(std::vector<uint8_t>* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, 4);
}

// Three runs of two pages each, spilled by `spiller`; returns their rows.
Rows SpillThreeRuns(Spiller* spiller, int64_t key_base) {
  Rows rows;
  for (int r = 0; r < 3; ++r) {
    std::vector<Page> run = {MakePage(key_base + r * 100, 20),
                             MakePage(key_base + r * 100 + 50, 13)};
    for (const Page& page : run) AppendRows(page, &rows);
    EXPECT_TRUE(spiller->SpillRun(run).ok());
  }
  return rows;
}

// Every single-byte flip of a multi-run spill file, two masks per byte, and
// every truncation (each block boundary and every point inside a block)
// fails classified: every byte of the file is checked.
TEST(BlockFileTest, SpilledRunsSurviveEveryFlipAndTruncation) {
  MemoryFileSystem fs;
  Spiller spiller(&fs, "spill/sweep", nullptr);
  const Rows expected = SpillThreeRuns(&spiller, 0);
  auto clean = ReadAllRuns(&spiller);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(*clean, expected);
  const std::string path = OnlyFile(&fs, "spill/sweep");
  const std::vector<uint8_t> original = ReadBytes(&fs, path);

  size_t flips = 0;
  size_t failed = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    for (uint8_t mask : {static_cast<uint8_t>(1u << (i % 8)), uint8_t{0xFF}}) {
      std::vector<uint8_t> bytes = original;
      bytes[i] ^= mask;
      ASSERT_TRUE(fs.WriteFile(path, bytes).ok());
      ++flips;
      failed += ExpectExactOrClassified(ReadAllRuns(&spiller), expected,
                                        "flip at " + std::to_string(i));
    }
  }
  EXPECT_EQ(failed, flips) << "a flipped byte went unnoticed";

  for (size_t len = 0; len < original.size(); ++len) {
    std::vector<uint8_t> bytes(original.begin(), original.begin() + len);
    ASSERT_TRUE(fs.WriteFile(path, bytes).ok());
    auto got = ReadAllRuns(&spiller);
    ASSERT_FALSE(got.ok()) << "truncated to " << len << " bytes read OK";
    EXPECT_TRUE(Classified(got.status())) << got.status().ToString();
  }
}

// Two spillers with the same column types and the same run shapes: swapped,
// each file is intact and well formed, so only the nonce can tell.
TEST(BlockFileTest, SwappedSpillAreasFailOnTheNonce) {
  MemoryFileSystem fs;
  Spiller a(&fs, "spill/a", nullptr);
  Spiller b(&fs, "spill/b", nullptr);
  // Keys of equal width, so both files have the same layout.
  SpillThreeRuns(&a, 100000);
  SpillThreeRuns(&b, 200000);
  ASSERT_TRUE(ReadAllRuns(&a).ok());
  ASSERT_TRUE(ReadAllRuns(&b).ok());
  const std::string path_a = OnlyFile(&fs, "spill/a");
  const std::string path_b = OnlyFile(&fs, "spill/b");
  const std::vector<uint8_t> bytes_a = ReadBytes(&fs, path_a);
  const std::vector<uint8_t> bytes_b = ReadBytes(&fs, path_b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  ASSERT_TRUE(fs.WriteFile(path_a, bytes_b).ok());
  ASSERT_TRUE(fs.WriteFile(path_b, bytes_a).ok());
  for (Spiller* spiller : {&a, &b}) {
    auto got = ReadAllRuns(spiller);
    ASSERT_FALSE(got.ok()) << "a swapped file read OK";
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
        << got.status().ToString();
  }
}

// A block length of 4 GiB, and a header length of 4 GiB, are refused before
// anything is allocated from them: no buffer outgrows the file.
TEST(BlockFileTest, HugeLengthFieldsAllocateNothingLarge) {
  MemoryFileSystem fs;
  Spiller spiller(&fs, "spill/huge", nullptr);
  SpillThreeRuns(&spiller, 0);
  ASSERT_TRUE(ReadAllRuns(&spiller).ok());
  const std::string path = OnlyFile(&fs, "spill/huge");
  const std::vector<uint8_t> original = ReadBytes(&fs, path);

  std::vector<uint8_t> block_len = original;
  PutU32At(&block_len, FirstBlockOffset(original) + kStoredLenOffset,
           0xFFFFFFFFu);
  std::vector<uint8_t> header_len = original;
  PutU32At(&header_len, kHeaderFrameOffset + kStoredLenOffset, 0xFFFFFFFFu);
  for (const auto* bytes : {&block_len, &header_len}) {
    ASSERT_TRUE(fs.WriteFile(path, *bytes).ok());
    t_largest_allocation = 0;
    t_count_allocations = true;
    auto got = ReadAllRuns(&spiller);
    t_count_allocations = false;
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
        << got.status().ToString();
    EXPECT_LT(t_largest_allocation, original.size());
  }
}

// Blocks are written uncompressed. A block whose codec byte names a real
// codec, with a checksum that matches it, is still refused: the reader
// accepts no codec but kNone.
TEST(BlockFileTest, CompressedCodecByteIsRefused) {
  MemoryFileSystem fs;
  Spiller spiller(&fs, "spill/codec", nullptr);
  SpillThreeRuns(&spiller, 0);
  ASSERT_TRUE(ReadAllRuns(&spiller).ok());
  const std::string path = OnlyFile(&fs, "spill/codec");
  std::vector<uint8_t> bytes = ReadBytes(&fs, path);
  const size_t block = FirstBlockOffset(bytes);
  ASSERT_EQ(bytes[block + kCodecOffset],
            static_cast<uint8_t>(CompressionKind::kNone));
  const uint8_t codec = static_cast<uint8_t>(CompressionKind::kSnappy);
  bytes[block + kCodecOffset] = codec;
  const size_t stored = block + 13;
  PutU32At(&bytes, block + kChecksumOffset,
           Crc32c(bytes.data() + stored, FrameEnd(bytes, block) - stored,
                  Crc32c(&codec, 1)));
  ASSERT_TRUE(fs.WriteFile(path, bytes).ok());
  auto got = ReadAllRuns(&spiller);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

// A run file of the earlier one-file-per-run format ("SPL1" magic, type
// header, u32-framed blocks, zero end marker) left at the spill path.
TEST(BlockFileTest, StaleRunFileAtTheSpillPathIsRefused) {
  MemoryFileSystem fs;
  Spiller spiller(&fs, "spill/stale", nullptr);
  SpillThreeRuns(&spiller, 0);
  ASSERT_TRUE(ReadAllRuns(&spiller).ok());
  ByteBuffer header;
  header.PutVarint(1);
  header.PutString("BIGINT");
  ByteBuffer block;
  block.PutVarint(2);  // rows
  block.PutU8(0);      // int64 column
  block.PutU8(0);      // no nulls
  block.PutI64(7);
  block.PutI64(8);
  ByteBuffer stale;
  stale.PutU32(0x53504C31);
  stale.PutU32(static_cast<uint32_t>(header.size()));
  stale.PutRaw(header.data(), header.size());
  stale.PutU32(static_cast<uint32_t>(block.size()));
  stale.PutRaw(block.data(), block.size());
  stale.PutU32(0);
  ASSERT_TRUE(fs.WriteFile(OnlyFile(&fs, "spill/stale"), stale.bytes()).ok());
  auto got = ReadAllRuns(&spiller);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
}

// A byte flipped inside the last block of the last run fails both merges
// mid-stream with kCorruption, after they have already returned rows.
TEST(BlockFileTest, FlippedRunFailsBothMerges) {
  MemoryFileSystem fs;
  Spiller spiller(&fs, "spill/merge", nullptr);
  for (int r = 0; r < 4; ++r) {
    std::vector<Page> run;
    for (int p = 0; p < 10; ++p) {
      std::vector<int64_t> keys(20);
      for (int i = 0; i < 20; ++i) keys[i] = (p * 20 + i) * 4 + r;
      run.push_back(Page({MakeBigintVector(std::move(keys))}));
    }
    ASSERT_TRUE(spiller.SpillRun(run).ok());
  }
  ASSERT_TRUE(ReadAllRuns(&spiller).ok());
  const std::string path = OnlyFile(&fs, "spill/merge");
  std::vector<uint8_t> bytes = ReadBytes(&fs, path);
  bytes[bytes.size() - 10] ^= 0x10;
  ASSERT_TRUE(fs.WriteFile(path, bytes).ok());

  auto hash_readers = spiller.OpenAllRuns();
  ASSERT_TRUE(hash_readers.ok()) << hash_readers.status().ToString();
  HashOrderedMerge hash_merge(std::move(*hash_readers), {}, /*num_keys=*/1);
  Status hash_status;
  while (hash_status.ok()) {
    auto batch = hash_merge.NextBatch(16);
    if (!batch.ok()) {
      hash_status = batch.status();
    } else if (batch->empty()) {
      break;
    }
  }
  EXPECT_EQ(hash_status.code(), StatusCode::kCorruption)
      << hash_status.ToString();

  auto sort_readers = spiller.OpenAllRuns();
  ASSERT_TRUE(sort_readers.ok()) << sort_readers.status().ToString();
  SpillMergeCursor cursor(
      std::move(*sort_readers), {},
      [](const Page& a, size_t a_row, const Page& b, size_t b_row) {
        return a.column(0)->CompareAt(a_row, *b.column(0), b_row);
      });
  size_t rows = 0;
  Status sort_status;
  while (true) {
    auto more = cursor.Advance();
    if (!more.ok()) {
      sort_status = more.status();
      break;
    }
    if (!*more) break;
    ++rows;
  }
  EXPECT_GT(rows, 0u) << "the merge should fail mid-stream, not at open";
  EXPECT_EQ(sort_status.code(), StatusCode::kCorruption)
      << sort_status.ToString();
}

}  // namespace
}  // namespace presto
