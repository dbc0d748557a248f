#pragma once
/// \file crc32.hpp
/// \brief Reflected table-driven CRCs: CRC-32 (IEEE 802.3 polynomial) for
///        checkpoint and compressed-stream integrity checks, and the one
///        implementation that chunk_hash.hpp's CRC-64 shares.
///
/// `ReflectedCrc` folds eight bytes per step through eight 256-entry tables
/// built at compile time (slicing-by-8: 8 KiB for CRC-32, 16 KiB for
/// CRC-64), so the loop-carried dependency is one xor of eight lookups per
/// eight bytes instead of one lookup per byte. Fewer than eight remaining
/// bytes take the byte step. A CRC-32 span of 64 bytes or more first goes
/// to the active SIMD table's carry-less-multiply fold (simd.hpp's
/// `crc32_fold`: AVX2 and AVX-512 where CPUID reports PCLMULQDQ), which
/// takes its whole 16-byte blocks, an order of magnitude faster; the
/// tables take the 0–15 bytes left, and everything where there is no fold.
/// Every checksum equals the byte-at-a-time loop's, for any input and any
/// split across `update` calls.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/simd.hpp"
#include "common/types.hpp"

namespace lck {

/// Incremental reflected CRC over `Word` (32 or 64 bits) with polynomial
/// `kPoly` in reflected form; init and xorout are all ones.
template <class Word, Word kPoly>
class ReflectedCrc {
 public:
  /// Fold `data` into the running checksum.
  void update(std::span<const byte_t> data) noexcept {
    const auto& t = kTables;
    Word c = state_;
    const byte_t* p = data.data();
    std::size_t n = data.size();
    if constexpr (std::is_same_v<Word, std::uint32_t> && kPoly == 0xedb88320u) {
      if (n >= 64) {
        if (const auto fold = simd::active_crc32_fold()) {
          const std::size_t whole = n & ~std::size_t{15};
          c = fold(c, p, whole);
          p += whole;
          n -= whole;
        }
      }
    }
    for (; n >= 8; p += 8, n -= 8) {
      // The first byte is the low byte of the word on every host.
      std::uint64_t w;
      std::memcpy(&w, p, sizeof(w));
      if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap64(w);
      w ^= c;
      c = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^
          t[2][(w >> 40) & 0xff] ^ t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
    }
    for (; n != 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    state_ = c;
  }

  /// Final checksum value.
  [[nodiscard]] Word value() const noexcept { return state_ ^ ~Word{0}; }

 private:
  // t[0] is the byte table; t[k][b] is the CRC of byte b followed by k
  // zero bytes.
  static constexpr auto kTables = [] {
    std::array<std::array<Word, 256>, 8> t{};
    for (unsigned b = 0; b < 256; ++b) {
      Word c = b;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[0][b] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
      for (unsigned b = 0; b < 256; ++b)
        t[k][b] = t[0][t[k - 1][b] & 0xff] ^ (t[k - 1][b] >> 8);
    return t;
  }();

  Word state_ = ~Word{0};
};

/// Incremental CRC-32 computation.
using Crc32 = ReflectedCrc<std::uint32_t, 0xedb88320u>;

/// One-shot CRC-32 of a byte span.
[[nodiscard]] inline std::uint32_t crc32(std::span<const byte_t> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace lck
