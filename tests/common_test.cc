// Tests for presto/common: Status/Result, byte buffers, hashing, RNG,
// compression codecs, thread pool, metrics.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "presto/common/bytes.h"
#include "presto/common/compression.h"
#include "presto/common/crc32c.h"
#include "presto/common/fault_injection.h"
#include "presto/common/hash.h"
#include "presto/common/metrics.h"
#include "presto/common/random.h"
#include "presto/common/status.h"
#include "presto/common/thread_pool.h"

namespace presto {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such table");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such table");
}

TEST(StatusTest, DeadlineIsTypedAndNeverRetried) {
  Status s = Status::DeadlineExceeded("query deadline exceeded");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DEADLINE_EXCEEDED: query deadline exceeded");
  EXPECT_FALSE(IsRetryableStatus(s));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleOf(int x) {
  ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubleOf(3).value(), 6);
  EXPECT_FALSE(DoubleOf(-1).ok());
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteBuffer buf;
  buf.PutU8(7);
  buf.PutU32(123456);
  buf.PutI64(-99);
  buf.PutDouble(2.5);
  ByteReader reader(buf.bytes());
  EXPECT_EQ(reader.ReadU8().value(), 7);
  EXPECT_EQ(reader.ReadU32().value(), 123456u);
  EXPECT_EQ(reader.ReadI64().value(), -99);
  EXPECT_EQ(reader.ReadDouble().value(), 2.5);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, VarintRoundTrip) {
  ByteBuffer buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1u << 20, 0xFFFFFFFFFFFFFFFFull};
  for (uint64_t v : values) buf.PutVarint(v);
  ByteReader reader(buf.bytes());
  for (uint64_t v : values) EXPECT_EQ(reader.ReadVarint().value(), v);
}

TEST(BytesTest, SignedVarintRoundTrip) {
  ByteBuffer buf;
  std::vector<int64_t> values = {0, -1, 1, -64, 63, -1000000, 1000000,
                                 INT64_MIN, INT64_MAX};
  for (int64_t v : values) buf.PutSignedVarint(v);
  ByteReader reader(buf.bytes());
  for (int64_t v : values) EXPECT_EQ(reader.ReadSignedVarint().value(), v);
}

TEST(BytesTest, StringRoundTrip) {
  ByteBuffer buf;
  buf.PutString("hello");
  buf.PutString("");
  buf.PutString(std::string(1000, 'x'));
  ByteReader reader(buf.bytes());
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_EQ(reader.ReadString().value(), "");
  EXPECT_EQ(reader.ReadString().value(), std::string(1000, 'x'));
}

TEST(BytesTest, ReadPastEndIsCorruption) {
  ByteBuffer buf;
  buf.PutU8(1);
  ByteReader reader(buf.bytes());
  EXPECT_TRUE(reader.ReadU8().ok());
  EXPECT_EQ(reader.ReadU32().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedVarintIsCorruption) {
  std::vector<uint8_t> bytes = {0x80};  // continuation bit set, no next byte
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.ReadVarint().status().code(), StatusCode::kCorruption);
}

TEST(HashTest, MixedIntegersDiffer) {
  std::set<uint64_t> hashes;
  for (uint64_t i = 0; i < 1000; ++i) hashes.insert(HashMix64(i));
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(HashTest, StringHashStable) {
  EXPECT_EQ(HashString("presto"), HashString("presto"));
  EXPECT_NE(HashString("presto"), HashString("Presto"));
}

TEST(RandomTest, Deterministic) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, RangesRespected) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, StringsHaveRequestedLength) {
  Random r(2);
  EXPECT_EQ(r.NextString(17).size(), 17u);
}

class CompressionRoundTrip : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CompressionRoundTrip, EmptyInput) {
  auto compressed = Compress(GetParam(), nullptr, 0);
  auto out = Decompress(GetParam(), compressed.data(), compressed.size());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST_P(CompressionRoundTrip, RepetitiveData) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data += "abcabcabc_block_";
  auto compressed =
      Compress(GetParam(), reinterpret_cast<const uint8_t*>(data.data()), data.size());
  auto out = Decompress(GetParam(), compressed.data(), compressed.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::string(out->begin(), out->end()), data);
  if (GetParam() != CompressionKind::kNone) {
    EXPECT_LT(compressed.size(), data.size() / 4)
        << "repetitive data should compress well";
  }
}

TEST_P(CompressionRoundTrip, RandomData) {
  Random rng(3);
  std::vector<uint8_t> data(64 * 1024);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  auto compressed = Compress(GetParam(), data.data(), data.size());
  auto out = Decompress(GetParam(), compressed.data(), compressed.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

TEST_P(CompressionRoundTrip, RleStyleOverlappingMatches) {
  std::vector<uint8_t> data(10000, 'z');  // single repeated byte
  auto compressed = Compress(GetParam(), data.data(), data.size());
  auto out = Decompress(GetParam(), compressed.data(), compressed.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CompressionRoundTrip,
                         ::testing::Values(CompressionKind::kNone,
                                           CompressionKind::kSnappy,
                                           CompressionKind::kGzip),
                         [](const auto& info) {
                           return CompressionKindToString(info.param);
                         });

TEST(CompressionTest, DenseBeatsOrMatchesFastOnText) {
  std::string data;
  Random rng(4);
  // Structured text with long-range repetition: dense codec's larger window
  // and chained matching must not do worse than the fast codec.
  for (int i = 0; i < 2000; ++i) {
    data += "user_" + std::to_string(rng.NextBelow(50)) + ",city_" +
            std::to_string(rng.NextBelow(10)) + ",status_ok\n";
  }
  auto fast = Compress(CompressionKind::kSnappy,
                       reinterpret_cast<const uint8_t*>(data.data()), data.size());
  auto dense = Compress(CompressionKind::kGzip,
                        reinterpret_cast<const uint8_t*>(data.data()), data.size());
  EXPECT_LE(dense.size(), fast.size());
}

TEST(CompressionTest, CorruptFrameRejected) {
  std::string data = "hello world hello world hello world";
  auto compressed = Compress(CompressionKind::kSnappy,
                             reinterpret_cast<const uint8_t*>(data.data()),
                             data.size());
  // Truncate the frame: decompression must fail cleanly, not crash.
  auto out = Decompress(CompressionKind::kSnappy, compressed.data(),
                        compressed.size() / 2);
  EXPECT_FALSE(out.ok());
}

// A frame's declared size is untrusted: a 10-byte frame that declares 2^61
// bytes, or one whose literal run claims 2^40 bytes, must fail as
// kCorruption before anything is allocated from those sizes.
TEST(CompressionTest, HugeDeclaredSizeIsCorruption) {
  for (CompressionKind kind : {CompressionKind::kNone, CompressionKind::kSnappy,
                               CompressionKind::kGzip}) {
    ByteBuffer bare;
    bare.PutVarint(uint64_t{1} << 61);
    bare.PutU8(0);
    ASSERT_EQ(bare.size(), 10u);
    ByteBuffer literal;
    literal.PutVarint(uint64_t{1} << 61);
    literal.PutU8(0);  // literal-run token
    literal.PutVarint(uint64_t{1} << 40);
    literal.PutU8(7);
    for (const ByteBuffer* frame : {&bare, &literal}) {
      auto out = Decompress(kind, frame->data(), frame->size());
      ASSERT_FALSE(out.ok()) << CompressionKindToString(kind);
      EXPECT_EQ(out.status().code(), StatusCode::kCorruption)
          << CompressionKindToString(kind) << ": " << out.status().ToString();
    }
  }
}

TEST(CompressionTest, UnknownKindNameRejected) {
  EXPECT_FALSE(CompressionKindFromString("LZ4").ok());
  EXPECT_EQ(*CompressionKindFromString("SNAPPY"), CompressionKind::kSnappy);
}

// The standard CRC32C check value, and extension across a split.
TEST(Crc32cTest, MatchesCheckValueAndExtends) {
  const std::string check = "123456789";
  const auto* bytes = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32c(bytes, check.size()), 0xE3069283u);
  for (size_t split = 0; split <= check.size(); ++split) {
    EXPECT_EQ(Crc32c(bytes + split, check.size() - split, Crc32c(bytes, split)),
              0xE3069283u)
        << "split at " << split;
  }
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry metrics;
  metrics.Increment("fs.dir.list");
  metrics.Increment("fs.dir.list", 4);
  EXPECT_EQ(metrics.Get("fs.dir.list"), 5);
  EXPECT_EQ(metrics.Get("unknown"), 0);
  metrics.Reset();
  EXPECT_EQ(metrics.Get("fs.dir.list"), 0);
}

}  // namespace
}  // namespace presto
