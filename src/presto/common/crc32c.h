#ifndef PRESTO_COMMON_CRC32C_H_
#define PRESTO_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace presto {

/// CRC32C (Castagnoli polynomial, reflected, as in iSCSI and ext4) of
/// `size` bytes. Passing the CRC of a prefix as `crc` extends it:
/// Crc32c(b, m, Crc32c(a, n)) is the CRC of a followed by b.
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t crc = 0);

}  // namespace presto

#endif  // PRESTO_COMMON_CRC32C_H_
