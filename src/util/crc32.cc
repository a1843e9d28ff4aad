#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PCCHECK_CRC32C_SSE42 1
#endif

namespace pccheck {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C

/** A kernel advances the raw (uninverted) CRC register over @p len bytes. */
using Kernel = std::uint32_t (*)(std::uint32_t crc, const std::uint8_t* p,
                                 std::size_t len);

constexpr std::array<std::uint32_t, 256>
make_table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
        }
        table[i] = crc;
    }
    return table;
}

constexpr auto kTable = make_table();

std::uint32_t
table_kernel(std::uint32_t crc, const std::uint8_t* p, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFF];
    }
    return crc;
}

#if PCCHECK_CRC32C_SSE42

/**
 * @p a · @p b mod P over GF(2), in the reflected representation (bit 31
 * holds x^0). 32 branch-free steps.
 */
constexpr std::uint32_t
multmodp(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t product = 0;
    for (int bit = 31; bit >= 0; --bit) {
        product ^= b & (0u - ((a >> bit) & 1u));
        b = (b >> 1) ^ (kPoly & (0u - (b & 1u)));
    }
    return product;
}

/** x^(8·@p bytes) mod P: the factor that moves a CRC register past
 *  @p bytes zero bytes. */
constexpr std::uint32_t
shift_factor(std::size_t bytes)
{
    std::uint32_t result = 1u << 31;  // x^0
    std::uint32_t square = 1u << 30;  // x^1, then x^2, x^4, ...
    for (std::size_t bits = 8 * bytes; bits != 0; bits >>= 1) {
        if (bits & 1) {
            result = multmodp(result, square);
        }
        square = multmodp(square, square);
    }
    return result;
}

std::uint64_t
load_u64(const std::uint8_t* p)
{
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe
    return word;
}

/**
 * Three independent `crc32` streams over consecutive blocks hide the
 * instruction's latency. Stream 0 continues @p crc, streams 1 and 2
 * start at zero; by linearity the register after all three blocks is
 * ((c0 · x^8B) ^ c1) · x^8B ^ c2.
 */
__attribute__((target("sse4.2"))) std::uint32_t
sse42_kernel(std::uint32_t crc, const std::uint8_t* p, std::size_t len)
{
    constexpr std::size_t kBlock = kCrc32cStreamBlock;
    constexpr std::uint32_t kShift = shift_factor(kBlock);
    static_assert(kBlock % 8 == 0, "streams advance 8 bytes at a time");
    for (; len >= 3 * kBlock; len -= 3 * kBlock, p += 3 * kBlock) {
        std::uint64_t c0 = crc;
        std::uint64_t c1 = 0;
        std::uint64_t c2 = 0;
        for (std::size_t i = 0; i < kBlock; i += 8) {
            c0 = _mm_crc32_u64(c0, load_u64(p + i));
            c1 = _mm_crc32_u64(c1, load_u64(p + kBlock + i));
            c2 = _mm_crc32_u64(c2, load_u64(p + 2 * kBlock + i));
        }
        crc = multmodp(kShift, static_cast<std::uint32_t>(c0)) ^
              static_cast<std::uint32_t>(c1);
        crc = multmodp(kShift, crc) ^ static_cast<std::uint32_t>(c2);
    }
    std::uint64_t wide = crc;
    for (; len >= 8; len -= 8, p += 8) {
        wide = _mm_crc32_u64(wide, load_u64(p));
    }
    crc = static_cast<std::uint32_t>(wide);
    for (; len > 0; --len, ++p) {
        crc = _mm_crc32_u8(crc, *p);
    }
    return crc;
}

#endif  // PCCHECK_CRC32C_SSE42

Kernel
pick_kernel()
{
#if PCCHECK_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
        return sse42_kernel;
    }
#endif
    return table_kernel;
}

}  // namespace

std::uint32_t
crc32c(const void* data, std::size_t len, std::uint32_t seed)
{
    static const Kernel kKernel = pick_kernel();
    return ~kKernel(~seed, static_cast<const std::uint8_t*>(data), len);
}

std::uint32_t
crc32c_portable(const void* data, std::size_t len, std::uint32_t seed)
{
    return ~table_kernel(~seed, static_cast<const std::uint8_t*>(data), len);
}

}  // namespace pccheck
