#pragma once
/// \file huffman.hpp
/// \brief Canonical Huffman coding over a generic symbol alphabet.
///
/// Shared by the SZ-like compressor (quantization codes) and the
/// deflate-like lossless compressor (literal/length and distance alphabets).
/// Codes are canonical so only the code-length array is serialized.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "common/types.hpp"

namespace lck {

/// Maximum permitted code length; longer optimal codes are flattened by
/// iterative frequency scaling (rare, only for extreme skew).
inline constexpr unsigned kHuffmanMaxBits = 24;

/// Compute optimal prefix-code lengths for `freqs` (0 frequency ⇒ length 0).
/// Guarantees all lengths ≤ kHuffmanMaxBits. Past one scan for the nonzero
/// counts, the tree and its retries are sized by the symbols present.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

/// Symbol-frequency histogram over `symbols` (each must be < `alphabet`).
/// Internally accumulates eight interleaved partial histograms so the counter
/// increments form independent dependency chains (the single loop-carried
/// `++freq[c]` serializes on store-to-load forwarding for skewed symbol
/// streams), then merges them. Integer addition is associative, so the
/// result is identical to the naive loop.
///
/// The one encoder step still sized by the alphabet: each call zero-fills
/// and merges 8 × `alphabet` counters (4 MiB for SZ's 65,536 symbols).
/// Freeing that block is what lifts glibc's heap trim threshold (twice the
/// largest mmap'd block freed) above a solver's working set, so a set-up
/// timed after an SZ checkpoint does not page-fault its memory again.
/// Sizing it to the symbols present waits until that timing stops
/// depending on it.
[[nodiscard]] std::vector<std::uint64_t> count_frequencies(
    std::span<const std::uint32_t> symbols, std::size_t alphabet);

/// Canonical Huffman encoder built from code lengths; counting and
/// assigning the codes skips zero lengths eight at a time.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  void encode(BitWriter& bw, std::uint32_t symbol) const {
    bw.write_bits(codes_[symbol], lengths_[symbol]);
  }

 private:
  std::vector<std::uint32_t> codes_;
  std::vector<std::uint8_t> lengths_;
};

/// Canonical Huffman decoder built from the same code lengths.
///
/// Code lengths arrive from untrusted bytes, so the decoder reproduces the
/// bit-by-bit canonical walk for every length set, including over-
/// subscribed and incomplete ones: a code of ≤ kLookupBits bits decodes with
/// one lookup in a table that holds the walk's answer for each
/// kLookupBits-bit prefix; longer codes and prefixes that match no code
/// take the walk itself.
class HuffmanDecoder {
 public:
  static constexpr unsigned kLookupBits = 11;

  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  [[nodiscard]] std::uint32_t decode(BitReader& br) const {
    const std::uint32_t entry = table_[br.peek(kLookupBits)];
    if (entry == 0) return walk(br);
    br.skip(entry & 31u);
    return entry >> 5;
  }

 private:
  /// Read one bit per code length until a length group holds the code.
  [[nodiscard]] std::uint32_t walk(BitReader& br) const;

  // Per length L: first canonical code value and index into sorted symbols.
  struct LengthGroup {
    std::uint32_t first_code = 0;
    std::uint32_t first_index = 0;
    std::uint32_t count = 0;
  };
  std::array<LengthGroup, kHuffmanMaxBits + 1> groups_{};  // index = length
  std::vector<std::uint32_t> symbols_;  // sorted by (length, symbol)
  unsigned max_len_ = 0;
  // symbol << 5 | code length, or 0 where the prefix needs the walk.
  std::array<std::uint32_t, std::size_t{1} << kLookupBits> table_{};
};

/// Serialize a code-length array compactly (RLE of zeros + 5-bit lengths).
/// Zero runs are measured eight lengths at a time.
void write_code_lengths(ByteWriter& out, std::span<const std::uint8_t> lengths);

/// Inverse of write_code_lengths; `alphabet` is the expected array size.
[[nodiscard]] std::vector<std::uint8_t> read_code_lengths(ByteReader& in,
                                                          std::size_t alphabet);

}  // namespace lck
