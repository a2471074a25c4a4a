#include "presto/common/compression.h"

#include <algorithm>
#include <cstring>

#include "presto/common/bytes.h"

namespace presto {
namespace {

// Token stream shared by both LZ codecs:
//   frame   := varint(uncompressed_size) token*
//   token   := 0x00 varint(len) byte[len]          -- literal run
//            | 0x01 varint(len) varint(distance)   -- back-reference copy
constexpr uint8_t kLiteralTag = 0;
constexpr uint8_t kMatchTag = 1;
constexpr size_t kMinMatch = 4;
// Decompress reserves at most this many output bytes per input byte up front.
constexpr uint64_t kMaxReserveRatio = 16;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash32(uint32_t v, int bits) {
  return (v * 2654435761u) >> (32 - bits);
}

void EmitLiterals(ByteBuffer* out, const uint8_t* base, size_t begin,
                  size_t end) {
  if (begin >= end) return;
  out->PutU8(kLiteralTag);
  out->PutVarint(end - begin);
  out->PutRaw(base + begin, end - begin);
}

void EmitMatch(ByteBuffer* out, size_t length, size_t distance) {
  out->PutU8(kMatchTag);
  out->PutVarint(length);
  out->PutVarint(distance);
}

size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t n = 0;
  while (n + 8 <= max_len) {
    uint64_t va, vb;
    std::memcpy(&va, a + n, 8);
    std::memcpy(&vb, b + n, 8);
    if (va != vb) {
      return n + (__builtin_ctzll(va ^ vb) >> 3);
    }
    n += 8;
  }
  while (n < max_len && a[n] == b[n]) ++n;
  return n;
}

// Speed-oriented greedy LZ: single-slot hash table, 64 KiB window, skip
// acceleration on incompressible runs (snappy-class behaviour).
void CompressFast(const uint8_t* input, size_t size, ByteBuffer* out) {
  constexpr int kHashBits = 14;
  constexpr size_t kWindow = 1 << 16;
  std::vector<uint32_t> table(1u << kHashBits, 0);

  size_t literal_start = 0;
  size_t pos = 0;
  size_t skip_credit = 32;
  while (pos + kMinMatch <= size) {
    uint32_t h = Hash32(Load32(input + pos), kHashBits);
    size_t candidate = table[h];
    table[h] = static_cast<uint32_t>(pos);
    if (candidate < pos && pos - candidate <= kWindow &&
        Load32(input + candidate) == Load32(input + pos)) {
      size_t len = kMinMatch +
                   MatchLength(input + candidate + kMinMatch,
                               input + pos + kMinMatch, size - pos - kMinMatch);
      EmitLiterals(out, input, literal_start, pos);
      EmitMatch(out, len, pos - candidate);
      pos += len;
      literal_start = pos;
      skip_credit = 32;
    } else {
      // The longer we go without a match, the faster we skip ahead.
      pos += 1 + ((pos - literal_start) >> 6);
      (void)skip_credit;
    }
  }
  EmitLiterals(out, input, literal_start, size);
}

// Ratio-oriented LZ: chained hash with lazy matching and a 1 MiB window.
// Inserting every position and walking chains costs CPU, which is exactly
// the gzip-vs-snappy trade-off the benchmarks exercise.
void CompressDense(const uint8_t* input, size_t size, ByteBuffer* out) {
  constexpr int kHashBits = 16;
  constexpr size_t kWindow = 1 << 20;
  constexpr int kMaxChain = 48;
  const uint32_t kNoPos = 0xFFFFFFFFu;

  std::vector<uint32_t> head(1u << kHashBits, kNoPos);
  std::vector<uint32_t> prev(size > 0 ? size : 1, kNoPos);

  auto find_match = [&](size_t pos, size_t* best_len, size_t* best_dist) {
    *best_len = 0;
    *best_dist = 0;
    if (pos + kMinMatch > size) return;
    uint32_t h = Hash32(Load32(input + pos), kHashBits);
    uint32_t cand = head[h];
    int chain = kMaxChain;
    size_t limit = size - pos;
    while (cand != kNoPos && chain-- > 0 && pos - cand <= kWindow) {
      if (Load32(input + cand) == Load32(input + pos)) {
        size_t len = kMinMatch + MatchLength(input + cand + kMinMatch,
                                             input + pos + kMinMatch,
                                             limit - kMinMatch);
        if (len > *best_len) {
          *best_len = len;
          *best_dist = pos - cand;
          if (len >= 256) break;  // good enough
        }
      }
      cand = prev[cand];
    }
  };

  auto insert = [&](size_t pos) {
    if (pos + kMinMatch > size) return;
    uint32_t h = Hash32(Load32(input + pos), kHashBits);
    prev[pos] = head[h];
    head[h] = static_cast<uint32_t>(pos);
  };

  size_t literal_start = 0;
  size_t pos = 0;
  while (pos + kMinMatch <= size) {
    size_t len, dist;
    find_match(pos, &len, &dist);
    if (len >= kMinMatch) {
      // Lazy matching: prefer a strictly longer match at pos+1.
      size_t len2 = 0, dist2 = 0;
      if (pos + 1 + kMinMatch <= size) {
        insert(pos);
        find_match(pos + 1, &len2, &dist2);
        if (len2 > len + 1) {
          ++pos;  // defer: emit pos as literal, match starts at pos+1
          len = len2;
          dist = dist2;
        }
      } else {
        insert(pos);
      }
      EmitLiterals(out, input, literal_start, pos);
      EmitMatch(out, len, dist);
      size_t match_end = pos + len;
      for (size_t i = pos + 1; i < match_end && i + kMinMatch <= size; ++i) {
        insert(i);
      }
      pos = match_end;
      literal_start = pos;
    } else {
      insert(pos);
      // Skip acceleration on incompressible stretches (real deflate
      // implementations bail out similarly): the longer the current literal
      // run, the bigger the stride.
      pos += 1 + ((pos - literal_start) >> 6);
    }
  }
  EmitLiterals(out, input, literal_start, size);
}

}  // namespace

const char* CompressionKindToString(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kNone:
      return "NONE";
    case CompressionKind::kSnappy:
      return "SNAPPY";
    case CompressionKind::kGzip:
      return "GZIP";
  }
  return "UNKNOWN";
}

Result<CompressionKind> CompressionKindFromString(const std::string& name) {
  if (name == "NONE") return CompressionKind::kNone;
  if (name == "SNAPPY") return CompressionKind::kSnappy;
  if (name == "GZIP") return CompressionKind::kGzip;
  return Status::InvalidArgument("unknown compression kind: " + name);
}

std::vector<uint8_t> Compress(CompressionKind kind, const uint8_t* input,
                              size_t size) {
  ByteBuffer out;
  out.Reserve(size / 2 + 16);
  out.PutVarint(size);
  switch (kind) {
    case CompressionKind::kNone:
      out.PutRaw(input, size);
      break;
    case CompressionKind::kSnappy:
      CompressFast(input, size, &out);
      break;
    case CompressionKind::kGzip:
      CompressDense(input, size, &out);
      break;
  }
  return std::move(out.bytes());
}

Result<std::vector<uint8_t>> Decompress(CompressionKind kind,
                                        const uint8_t* input, size_t size) {
  ByteReader reader(input, size);
  ASSIGN_OR_RETURN(uint64_t uncompressed_size, reader.ReadVarint());
  if (kind == CompressionKind::kNone) {
    if (reader.remaining() != uncompressed_size) {
      return Status::Corruption("stored block size mismatch");
    }
    return std::vector<uint8_t>(reader.current(),
                                reader.current() + uncompressed_size);
  }

  // The declared size is unchecked input: reserve only what the frame could
  // plausibly back, and let a larger output grow as its tokens arrive.
  std::vector<uint8_t> out;
  out.reserve(std::min<uint64_t>(uncompressed_size,
                                 reader.remaining() * kMaxReserveRatio));

  while (out.size() < uncompressed_size) {
    ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
    if (tag == kLiteralTag) {
      ASSIGN_OR_RETURN(uint64_t len, reader.ReadVarint());
      if (out.size() + len > uncompressed_size || len > reader.remaining()) {
        return Status::Corruption("literal run overflows declared size");
      }
      size_t old = out.size();
      out.resize(old + len);
      RETURN_IF_ERROR(reader.ReadRaw(out.data() + old, len));
    } else if (tag == kMatchTag) {
      ASSIGN_OR_RETURN(uint64_t len, reader.ReadVarint());
      ASSIGN_OR_RETURN(uint64_t dist, reader.ReadVarint());
      if (dist == 0 || dist > out.size()) {
        return Status::Corruption("match distance out of range");
      }
      if (out.size() + len > uncompressed_size) {
        return Status::Corruption("match overflows declared size");
      }
      // Byte-by-byte copy: distances shorter than the length deliberately
      // replicate (RLE-style overlap).
      size_t src = out.size() - dist;
      for (uint64_t i = 0; i < len; ++i) {
        out.push_back(out[src + i]);
      }
    } else {
      return Status::Corruption("unknown LZ token tag");
    }
  }
  return out;
}

}  // namespace presto
