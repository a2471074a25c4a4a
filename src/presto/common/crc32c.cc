#include "presto/common/crc32c.h"

#include <array>
#include <cstring>

namespace presto {
namespace {

constexpr uint32_t kPolynomial = 0x82F63B78;  // Castagnoli, bit-reversed

// Slicing-by-8 tables: kTables[0] is the classic byte table; kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight input bytes fold
// in with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? kPolynomial : 0);
    }
    t[0][b] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t crc) {
  crc = ~crc;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);  // little-endian hosts only, like ByteBuffer
    word ^= crc;
    crc = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
          kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
          kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
          kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *data) & 0xFF];
  }
  return ~crc;
}

}  // namespace presto
