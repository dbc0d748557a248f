#pragma once
/// \file lz4_like.hpp
/// \brief LZ4-class byte compressor: greedy hash-table LZ77 with
///        byte-aligned token coding and no entropy stage.
///
/// Same algorithm family as the LZ4 block format: sequences of
/// [token | literal-length extension | literals | 16-bit offset |
/// match-length extension], minimum match 4, 64 KiB window. Skipping the
/// Huffman stage trades ratio for an order of magnitude more throughput
/// than the deflate-like codec. It is the byte coder of the "lz4" and
/// "shuffle-lz4" codecs (lossless_compressors.hpp). The container is
/// custom (raw block, no xxHash footer) — we reproduce the algorithm
/// class, not the LZ4 frame format.

#include <span>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Worst-case compressed size for `n` input bytes (incompressible input
/// costs one extra literal-length byte per 255 literals, plus the token).
[[nodiscard]] constexpr std::size_t lz4_compress_bound(std::size_t n) noexcept {
  return n + n / 255 + 16;
}

/// Compress raw bytes. Always succeeds; worst case is lz4_compress_bound().
[[nodiscard]] std::vector<byte_t> lz4_compress(std::span<const byte_t> in);

/// Decompress; `expected_size` must match the original input size exactly.
/// Throws corrupt_stream_error on malformed input (bad offsets, lengths
/// running past either buffer, or a short/long output).
[[nodiscard]] std::vector<byte_t> lz4_decompress(std::span<const byte_t> in,
                                                 std::size_t expected_size);

}  // namespace lck
