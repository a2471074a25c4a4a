#ifndef PRESTO_COMMON_BYTES_H_
#define PRESTO_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "presto/common/status.h"

namespace presto {

/// Append-only binary buffer used by file-format encoders and the exchange
/// serializer. Little-endian fixed-width writes plus LEB128 varints.
class ByteBuffer {
 public:
  ByteBuffer() = default;

  void Clear() { data_.clear(); }
  size_t size() const { return data_.size(); }
  const uint8_t* data() const { return data_.data(); }
  std::vector<uint8_t>& bytes() { return data_; }
  const std::vector<uint8_t>& bytes() const { return data_; }

  void Reserve(size_t n) { data_.reserve(n); }

  void PutU8(uint8_t v) { data_.push_back(v); }

  template <typename T>
  void PutFixed(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t old = data_.size();
    data_.resize(old + sizeof(T));
    std::memcpy(data_.data() + old, &v, sizeof(T));
  }

  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(v); }
  void PutDouble(double v) { PutFixed(v); }

  /// Unsigned LEB128.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<uint8_t>(v));
  }

  /// ZigZag-encoded signed varint.
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed string.
  void PutString(const std::string& s) {
    PutVarint(s.size());
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* p, size_t n) {
    if (n == 0) return;  // an empty source may be null; memcpy forbids that
    size_t old = data_.size();
    data_.resize(old + n);
    std::memcpy(data_.data() + old, p, n);
  }

 private:
  std::vector<uint8_t> data_;
};

/// Bounds-checked sequential reader over a byte span. All reads return a
/// Status/Result so corrupt files surface as kCorruption, never UB.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}

  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  Status Skip(size_t n) {
    if (n > remaining()) return Status::Corruption("skip past end of buffer");
    pos_ += n;
    return Status::OK();
  }

  Status Seek(size_t pos) {
    if (pos > size_) return Status::Corruption("seek past end of buffer");
    pos_ = pos;
    return Status::OK();
  }

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) return Status::Corruption("read past end of buffer");
    return data_[pos_++];
  }

  template <typename T>
  Result<T> ReadFixed() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return Status::Corruption("read past end of buffer");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Result<uint32_t> ReadU32() { return ReadFixed<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadFixed<uint64_t>(); }
  Result<int64_t> ReadI64() { return ReadFixed<int64_t>(); }
  Result<double> ReadDouble() { return ReadFixed<double>(); }

  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (AtEnd()) return Status::Corruption("truncated varint");
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) return Status::Corruption("varint too long");
    }
    return v;
  }

  Result<int64_t> ReadSignedVarint() {
    ASSIGN_OR_RETURN(uint64_t z, ReadVarint());
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  Result<std::string> ReadString() {
    ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
    if (n > remaining()) return Status::Corruption("truncated string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Status ReadRaw(void* out, size_t n) {
    if (n > remaining()) return Status::Corruption("truncated raw read");
    if (n == 0) return Status::OK();  // an empty target may be null
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* current() const { return data_ + pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace presto

#endif  // PRESTO_COMMON_BYTES_H_
