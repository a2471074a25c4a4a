#ifndef PRESTO_EXEC_BLOCK_FILE_H_
#define PRESTO_EXEC_BLOCK_FILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "presto/common/metrics.h"
#include "presto/fs/file_system.h"
#include "presto/vector/page.h"

namespace presto {

/// The one on-disk format for pages that leave memory: spill runs. Every
/// byte read back is checked, so a torn, truncated, stale, foreign or
/// bit-flipped file fails with kCorruption (an I/O failure stays kIoError)
/// and never decodes into rows.
///
///   file   := frame 0 (the header), frame 1, frame 2, ...
///   frame  := u32 seq, u8 codec, u32 stored_len, u32 CRC32C(codec, stored),
///             stored = the payload as is (codec kNone; a reader refuses
///             any other codec byte)
///   header payload := u32 magic "PBF1", u8 version, u64 nonce,
///             varint num_columns, per column a Type::ToString() string
///             (frame at most 64 KiB)
///   block payload  := varint num_rows, then per column (typed by the
///             header) u8 has_nulls, the null bytes if any, and the raw
///             values or length-prefixed strings; types without a flat
///             encoding store one SerializeValue per row instead
///
/// The writer picks the nonce at random and its owner remembers it, so a
/// file the owner did not write (a stale file at a reused path, another
/// operator's file) is refused. Owners read back extents: runs of
/// consecutive blocks whose byte range and first sequence number they
/// recorded while writing. So a reader stops exactly at an extent's end, and
/// a lost or truncated block cannot pass for a shorter stream. Every length
/// is checked against the bytes that can back it before anything is
/// allocated.

/// One page encoded as a block: everything but the sequence number, so it
/// is built without a lock and only BlockFile::Append needs one.
struct EncodedBlock {
  std::vector<uint8_t> frame;  // codec, stored_len, CRC32C, stored bytes

  /// Bytes the block takes in the file, its sequence number included.
  int64_t size() const { return 4 + static_cast<int64_t>(frame.size()); }
};

Status EncodeBlock(const Page& page, EncodedBlock* out);

/// The blocks numbered from `first_seq` that fill bytes [begin, end).
struct BlockExtent {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint32_t first_seq = 0;
};

/// Reads the pages of one extent in order. Several readers may share one
/// file handle if a single thread drives them.
class BlockFileReader {
 public:
  /// Reads `extent` of `file` as pages of `types`, adding the bytes of every
  /// block read to `bytes_read` (may be null).
  BlockFileReader(std::shared_ptr<RandomAccessFile> file,
                  std::vector<TypePtr> types, BlockExtent extent,
                  MetricsRegistry::Counter* bytes_read)
      : file_(std::move(file)),
        types_(std::move(types)),
        offset_(extent.begin),
        end_(extent.end),
        next_seq_(extent.first_seq),
        bytes_read_(bytes_read) {}

  /// The next page, or nullopt at the end of the extent. A page read sets
  /// `*bytes` to the bytes it took in the file.
  Result<std::optional<Page>> Next(int64_t* bytes);
  bool AtEnd() const { return offset_ >= end_; }

 private:
  std::shared_ptr<RandomAccessFile> file_;
  std::vector<TypePtr> types_;
  uint64_t offset_;
  uint64_t end_;
  uint32_t next_seq_;
  MetricsRegistry::Counter* bytes_read_;
};

/// One block file of one owner (a spill area): written once, read back by
/// extents, deleted (best effort) with the object.
class BlockFile {
 public:
  BlockFile(FileSystem* fs, std::string path)
      : fs_(fs), path_(std::move(path)) {}
  ~BlockFile();

  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  /// Creates the file and writes the header (frame 0), typed like the
  /// columns of `like`. Every page appended must be typed the same.
  Status Create(const Page& like);
  /// Appends `block` under the next sequence number.
  Status Append(const EncodedBlock& block);
  /// Closes the file for writing; Append fails afterwards.
  Status Close();

  /// Bytes written so far, header included; 0 before Create.
  uint64_t size() const { return size_; }
  /// An empty extent where the next block goes; it grows with each append.
  BlockExtent Tail() const { return {size_, size_, next_seq_}; }
  /// Every block written so far.
  BlockExtent Blocks() const { return {header_bytes_, size_, 1}; }

  /// Closes the file, checks its header, and opens a reader per extent, all
  /// sharing one handle (so one thread must drive them). The header's
  /// bytes, Blocks().begin, go to `bytes_read` (may be null).
  Result<std::vector<std::unique_ptr<BlockFileReader>>> Read(
      const std::vector<BlockExtent>& extents,
      MetricsRegistry::Counter* bytes_read);

 private:
  FileSystem* fs_;
  const std::string path_;
  std::unique_ptr<WritableFile> file_;  // open while writing
  uint64_t nonce_ = 0;
  uint64_t header_bytes_ = 0;
  uint64_t size_ = 0;
  uint32_t next_seq_ = 0;
};

}  // namespace presto

#endif  // PRESTO_EXEC_BLOCK_FILE_H_
