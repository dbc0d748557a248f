#pragma once
/// \file chunk_hash.hpp
/// \brief CRC-64 (ECMA-182 polynomial, reflected — the XZ variant) used as
///        the content address of checkpoint chunks.
///
/// The delta checkpoint layer identifies a chunk by the CRC-64 of its raw
/// bytes: two chunks with the same hash are treated as the same content
/// (standard content-addressed-storage assumption; the 64-bit space makes
/// an accidental collision across a checkpoint history vanishingly
/// unlikely, and a cross-length collision is caught by the compressor's
/// embedded element count at decode time). It is the eight-bytes-a-step
/// `ReflectedCrc` of common/crc32.hpp at 64 bits.

#include <cstdint>
#include <span>

#include "common/crc32.hpp"
#include "common/types.hpp"

namespace lck {

/// Incremental CRC-64/XZ computation (poly 0x42F0E1EBA9EA3693, reflected,
/// init/xorout all-ones).
using Crc64 = ReflectedCrc<std::uint64_t, 0xc96c5795d7870f42ull>;

/// One-shot CRC-64 of a byte span.
[[nodiscard]] inline std::uint64_t crc64(std::span<const byte_t> data) noexcept {
  Crc64 c;
  c.update(data);
  return c.value();
}

}  // namespace lck
