#ifndef PCCHECK_UTIL_CRC32_H_
#define PCCHECK_UTIL_CRC32_H_

/**
 * @file
 * CRC-32C (Castagnoli) used to validate checkpoint data and pointer
 * records during recovery. The kernel is chosen once per process: on
 * x86-64 hosts with SSE4.2, three interleaved `crc32` instruction
 * streams over consecutive blocks, merged by a GF(2) shift; on every
 * other host, the portable byte table. Both give the same values.
 */

#include <cstddef>
#include <cstdint>

namespace pccheck {

/**
 * Block each of the hardware kernel's three streams covers. Inputs of
 * at least three blocks run interleaved; shorter ones and the tail run
 * on one stream. Exposed so tests can straddle the stream edges.
 */
inline constexpr std::size_t kCrc32cStreamBlock = 8192;

/**
 * Compute CRC-32C over @p len bytes at @p data.
 * @param seed previous crc for incremental computation (0 to start)
 */
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

/**
 * The byte-table CRC-32C, which crc32c() falls back to where the
 * hardware kernel is unavailable. Same contract and values as crc32c().
 */
std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed = 0);

}  // namespace pccheck

#endif  // PCCHECK_UTIL_CRC32_H_
