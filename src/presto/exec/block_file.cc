#include "presto/exec/block_file.h"

#include <atomic>
#include <random>

#include "presto/common/bytes.h"
#include "presto/common/compression.h"
#include "presto/common/crc32c.h"
#include "presto/common/hash.h"
#include "presto/expr/serialization.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

constexpr uint32_t kMagic = 0x31464250;  // "PBF1" as little-endian bytes
constexpr uint8_t kVersion = 1;
// Scylla's page_reader bounds its header the same way: a corrupt length must
// not size an allocation.
constexpr uint64_t kMaxHeaderFrameBytes = 64 << 10;
constexpr size_t kFrameHeadBytes = 13;  // seq, codec, stored_len, crc
// Blocks are stored uncompressed; the codec byte stays in the frame, and a
// reader refuses any other value.
constexpr auto kCodecByte = static_cast<uint8_t>(CompressionKind::kNone);

// Distinct within a process (HashMix64 is a bijection) and random across
// processes.
uint64_t NewNonce() {
  static std::atomic<uint64_t> next{(uint64_t{std::random_device{}()} << 32) ^
                                    std::random_device{}()};
  return HashMix64(next.fetch_add(1, std::memory_order_relaxed));
}

Status Corrupt(const std::string& what) {
  return Status::Corruption("block file: " + what);
}

// Fails unless `count` items of `width` bytes fit in what is left of
// `reader`, so no buffer is sized from an unchecked count (DuckDB's
// ByteBuffer::available).
Status Available(const ByteReader& reader, uint64_t count, size_t width) {
  if (count > reader.remaining() / width) return Corrupt("short column");
  return Status::OK();
}

// Calls `fn` with a value of the element type a column of `kind` is stored
// as: a flat vector's values, or Value for types stored boxed, one
// SerializeValue per row.
template <typename Fn>
auto VisitStorage(TypeKind kind, Fn&& fn) {
  if (IsIntegerLike(kind)) return fn(int64_t{});
  if (kind == TypeKind::kDouble) return fn(double{});
  if (kind == TypeKind::kBoolean) return fn(uint8_t{});
  if (kind == TypeKind::kVarchar) return fn(std::string{});
  return fn(Value{});
}

// Flat columns: u8 has_nulls, the null bytes if any, then the values (raw,
// or length-prefixed strings).
Status WriteColumn(const VectorPtr& raw, ByteBuffer* out) {
  ASSIGN_OR_RETURN(VectorPtr flat, Vector::Flatten(raw));
  const size_t n = flat->size();
  VisitStorage(flat->type()->kind(), [&](auto element) {
    using T = decltype(element);
    if constexpr (std::is_same_v<T, Value>) {
      for (size_t i = 0; i < n; ++i) SerializeValue(flat->GetValue(i), out);
    } else {
      const auto& vec = static_cast<const FlatVector<T>&>(*flat);
      out->PutU8(vec.has_nulls() ? 1 : 0);
      if (vec.has_nulls()) out->PutRaw(vec.raw_nulls(), n);
      if constexpr (std::is_same_v<T, std::string>) {
        for (size_t i = 0; i < n; ++i) out->PutString(vec.ValueAt(i));
      } else {
        out->PutRaw(vec.values().data(), n * sizeof(T));
      }
    }
  });
  return Status::OK();
}

Result<VectorPtr> ReadColumn(const TypePtr& type, size_t num_rows,
                             ByteReader* reader) {
  // Every encoding takes at least one byte per row.
  RETURN_IF_ERROR(Available(*reader, num_rows, 1));
  return VisitStorage(type->kind(), [&](auto element) -> Result<VectorPtr> {
    using T = decltype(element);
    if constexpr (std::is_same_v<T, Value>) {
      VectorBuilder builder(type);
      for (size_t i = 0; i < num_rows; ++i) {
        ASSIGN_OR_RETURN(Value v, DeserializeValue(reader));
        RETURN_IF_ERROR(builder.Append(v));
      }
      return builder.Build();
    } else {
      ASSIGN_OR_RETURN(uint8_t has_nulls, reader->ReadU8());
      std::vector<uint8_t> nulls(has_nulls != 0 ? num_rows : 0);
      RETURN_IF_ERROR(reader->ReadRaw(nulls.data(), nulls.size()));
      std::vector<T> values;
      if constexpr (std::is_same_v<T, std::string>) {
        values.resize(num_rows);  // bounded: a string takes at least a byte
        for (std::string& value : values) {
          ASSIGN_OR_RETURN(value, reader->ReadString());
        }
      } else {
        RETURN_IF_ERROR(Available(*reader, num_rows, sizeof(T)));
        values.resize(num_rows);
        RETURN_IF_ERROR(reader->ReadRaw(values.data(), num_rows * sizeof(T)));
      }
      return std::static_pointer_cast<Vector>(std::make_shared<FlatVector<T>>(
          type, std::move(values), std::move(nulls)));
    }
  });
}

// One frame minus its sequence number: codec, stored length, CRC32C over
// the codec byte and the stored bytes, then the stored bytes.
EncodedBlock Frame(const ByteBuffer& payload) {
  ByteBuffer frame;
  frame.PutU8(kCodecByte);
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32c(payload.data(), payload.size(), Crc32c(&kCodecByte, 1)));
  frame.PutRaw(payload.data(), payload.size());
  return EncodedBlock{std::move(frame.bytes())};
}

// Reads the frame at `offset` and returns its payload. Checks the sequence
// number, the codec, the stored length against `limit` (the bytes that may
// back the frame) before allocating, and the checksum. A short read means
// the file was cut.
Result<std::vector<uint8_t>> ReadFrame(RandomAccessFile* file, uint64_t offset,
                                       uint64_t limit, uint32_t seq,
                                       uint64_t* frame_bytes) {
  uint8_t fixed[kFrameHeadBytes];
  ASSIGN_OR_RETURN(size_t got, file->Read(offset, sizeof(fixed), fixed));
  if (got != sizeof(fixed)) return Corrupt("truncated");
  ByteReader head(fixed, sizeof(fixed));
  ASSIGN_OR_RETURN(uint32_t frame_seq, head.ReadU32());
  ASSIGN_OR_RETURN(uint8_t codec, head.ReadU8());
  ASSIGN_OR_RETURN(uint32_t stored_len, head.ReadU32());
  ASSIGN_OR_RETURN(uint32_t crc, head.ReadU32());
  if (frame_seq != seq) return Corrupt("block out of sequence");
  if (codec != kCodecByte) return Corrupt("unknown codec");
  if (limit < kFrameHeadBytes || stored_len > limit - kFrameHeadBytes) {
    return Corrupt("block overruns its extent");
  }
  std::vector<uint8_t> stored(stored_len);
  ASSIGN_OR_RETURN(got, file->Read(offset + kFrameHeadBytes, stored_len,
                                   stored.data()));
  if (got != stored_len) return Corrupt("truncated");
  if (Crc32c(stored.data(), stored_len, Crc32c(&codec, 1)) != crc) {
    return Corrupt("checksum mismatch");
  }
  *frame_bytes = kFrameHeadBytes + stored_len;
  return stored;
}

// Reads and checks the header (frame 0) of a file written with `nonce` and
// returns its column types.
Result<std::vector<TypePtr>> ReadHeader(RandomAccessFile* file,
                                        uint64_t nonce) {
  uint64_t frame_bytes = 0;
  ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                   ReadFrame(file, 0, kMaxHeaderFrameBytes, /*seq=*/0,
                             &frame_bytes));
  ByteReader reader(body);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  ASSIGN_OR_RETURN(uint8_t version, reader.ReadU8());
  ASSIGN_OR_RETURN(uint64_t file_nonce, reader.ReadU64());
  if (magic != kMagic || version != kVersion) return Corrupt("unknown format");
  if (file_nonce != nonce) return Corrupt("written by another owner");
  ASSIGN_OR_RETURN(uint64_t num_columns, reader.ReadVarint());
  std::vector<TypePtr> types;
  for (uint64_t c = 0; c < num_columns; ++c) {
    ASSIGN_OR_RETURN(std::string text, reader.ReadString());
    ASSIGN_OR_RETURN(TypePtr type, Type::Parse(text));
    types.push_back(std::move(type));
  }
  if (!reader.AtEnd()) return Corrupt("trailing header bytes");
  return types;
}

}  // namespace

Status EncodeBlock(const Page& page, EncodedBlock* out) {
  ByteBuffer payload;
  payload.PutVarint(page.num_rows());
  for (const VectorPtr& column : page.columns()) {
    RETURN_IF_ERROR(WriteColumn(column, &payload));
  }
  *out = Frame(payload);
  return Status::OK();
}

BlockFile::~BlockFile() {
  (void)Close();
  (void)fs_->DeleteFile(path_);  // best effort: a vanished file is fine
}

Status BlockFile::Create(const Page& like) {
  nonce_ = NewNonce();
  ByteBuffer body;
  body.PutU32(kMagic);
  body.PutU8(kVersion);
  body.PutU64(nonce_);
  body.PutVarint(like.num_columns());
  for (const VectorPtr& column : like.columns()) {
    body.PutString(column->type()->ToString());
  }
  EncodedBlock header = Frame(body);
  if (header.size() > static_cast<int64_t>(kMaxHeaderFrameBytes)) {
    return Status::InvalidArgument("block file: column types exceed 64 KiB");
  }
  ASSIGN_OR_RETURN(file_, fs_->OpenForWrite(path_));
  RETURN_IF_ERROR(Append(header));
  header_bytes_ = size_;
  return Status::OK();
}

Status BlockFile::Append(const EncodedBlock& block) {
  if (file_ == nullptr) return Status::Internal("block file: not open");
  ByteBuffer seq;
  seq.PutU32(next_seq_);
  RETURN_IF_ERROR(file_->Append(seq.bytes()));
  RETURN_IF_ERROR(file_->Append(block.frame));
  size_ += block.size();
  ++next_seq_;
  return Status::OK();
}

Status BlockFile::Close() {
  if (file_ == nullptr) return Status::OK();
  Status st = file_->Close();
  file_ = nullptr;
  return st;
}

Result<std::vector<std::unique_ptr<BlockFileReader>>> BlockFile::Read(
    const std::vector<BlockExtent>& extents,
    MetricsRegistry::Counter* bytes_read) {
  RETURN_IF_ERROR(Close());
  ASSIGN_OR_RETURN(std::shared_ptr<RandomAccessFile> file,
                   fs_->OpenForRead(path_));
  ASSIGN_OR_RETURN(std::vector<TypePtr> types, ReadHeader(file.get(), nonce_));
  if (bytes_read != nullptr) bytes_read->Add(header_bytes_);
  std::vector<std::unique_ptr<BlockFileReader>> readers;
  for (const BlockExtent& extent : extents) {
    readers.push_back(
        std::make_unique<BlockFileReader>(file, types, extent, bytes_read));
  }
  return readers;
}

Result<std::optional<Page>> BlockFileReader::Next(int64_t* bytes) {
  if (AtEnd()) return std::optional<Page>();
  uint64_t frame_bytes = 0;
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                   ReadFrame(file_.get(), offset_, end_ - offset_,
                             next_seq_, &frame_bytes));
  ByteReader reader(payload);
  ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  std::vector<VectorPtr> columns;
  columns.reserve(types_.size());
  for (const TypePtr& type : types_) {
    ASSIGN_OR_RETURN(VectorPtr column, ReadColumn(type, num_rows, &reader));
    columns.push_back(std::move(column));
  }
  if (!reader.AtEnd()) return Corrupt("trailing block bytes");
  offset_ += frame_bytes;
  ++next_seq_;
  *bytes = static_cast<int64_t>(frame_bytes);
  if (bytes_read_ != nullptr) bytes_read_->Add(*bytes);
  return std::optional<Page>(Page(std::move(columns), num_rows));
}

}  // namespace presto
