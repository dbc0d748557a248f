#include "compress/lossless/deflate_like.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "common/stop_request.hpp"
#include "compress/huffman.hpp"

namespace lck {
namespace {

// ----- token alphabet (DEFLATE-style) --------------------------------------
// Literal/length alphabet: 0..255 literals, 256 end-of-block,
// 257..284 length codes. Distance alphabet: 0..29.
constexpr unsigned kEob = 256;
constexpr unsigned kLitLenAlphabet = 285;
constexpr unsigned kDistAlphabet = 30;
constexpr std::size_t kWindowSize = 32 * 1024;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;

struct CodeRange {
  std::uint32_t base;
  std::uint8_t extra_bits;
};

// Length codes 257..284 (base length, extra bits) — RFC 1951 table.
constexpr std::array<CodeRange, 28> kLengthCodes{{
    {3, 0},  {4, 0},  {5, 0},  {6, 0},  {7, 0},  {8, 0},  {9, 0},  {10, 0},
    {11, 1}, {13, 1}, {15, 1}, {17, 1}, {19, 2}, {23, 2}, {27, 2}, {31, 2},
    {35, 3}, {43, 3}, {51, 3}, {59, 3}, {67, 4}, {83, 4}, {99, 4}, {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5},
}};
// The RFC has code 285 = length 258 with 0 extra bits; we instead let code
// 284's 5 extra bits cover 227..258 (one value wider than RFC). Simpler and
// still exactly invertible.

// Distance codes 0..29 (base distance, extra bits) — RFC 1951 table.
constexpr std::array<CodeRange, 30> kDistCodes{{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},      {5, 1},      {7, 1},
    {9, 2},     {13, 2},    {17, 3},    {25, 3},     {33, 4},     {49, 4},
    {65, 5},    {97, 5},    {129, 6},   {193, 6},    {257, 7},    {385, 7},
    {513, 8},   {769, 8},   {1025, 9},  {1537, 9},   {2049, 10},  {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12}, {16385, 13}, {24577, 13},
}};

// Length code of every match length (entries below kMinMatch are unused):
// the last code whose base does not exceed the length.
constexpr auto kLengthCodeOf = [] {
  std::array<std::uint8_t, kMaxMatch + 1> t{};
  for (std::size_t c = 0; c < kLengthCodes.size(); ++c)
    for (std::size_t len = kLengthCodes[c].base; len <= kMaxMatch; ++len)
      t[len] = static_cast<std::uint8_t>(c);
  return t;
}();

// Distance code of a distance in [1, kWindowSize]: 1..4 map to codes 0..3,
// then each power-of-two range of distances splits into two codes.
unsigned dist_code(std::uint32_t dist) {
  if (dist <= 4) return dist - 1;
  const auto b = static_cast<unsigned>(std::bit_width(dist - 1)) - 1;
  return 2 * b + (((dist - 1) >> (b - 1)) & 1u);
}

// ----- LZ77 tokenization -----------------------------------------------------
// One 4-byte word per token: a literal byte, or kMatch | length << 16 |
// distance (length ≤ 258, distance ≤ 32,768).
constexpr std::uint32_t kMatch = 1u << 31;

std::uint32_t hash3(const byte_t* p) noexcept {
  const std::uint32_t h = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (h * 2654435761u) >> 17;  // 15-bit hash
}

/// Length of the common prefix of `a` and `b`, at most `limit`, compared
/// eight bytes at a time.
std::size_t match_length(const byte_t* a, const byte_t* b, std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (x != y) {
      const std::uint64_t d = x ^ y;
      return len + static_cast<std::size_t>(
                       (std::endian::native == std::endian::little
                            ? std::countr_zero(d)
                            : std::countl_zero(d)) /
                       8);
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Symbol counts of both alphabets, end-of-block included.
struct TokenFreqs {
  std::array<std::uint64_t, kLitLenAlphabet> lit{};
  std::array<std::uint64_t, kDistAlphabet> dist{};
};

/// Greedy LZ77 parse in two passes. Pass 1 links every position that has
/// three bytes into its hash chain, in order, so each position's chain holds
/// exactly the earlier positions with its hash, nearest first, whatever the
/// parse emits. Pass 2 parses: each search starts at the position's own
/// `prev` entry and links nothing. Each token is counted in `freqs` as it
/// is emitted.
std::vector<std::uint32_t> tokenize(std::span<const byte_t> in,
                                    TokenFreqs& freqs) {
  constexpr std::size_t kHashSize = 1u << 15;
  constexpr int kMaxChainProbes = 64;
  constexpr std::uint32_t kNone = 0xffffffffu;
  if (in.size() >= kNone)
    throw config_error("deflate: input must be smaller than 4 GiB");
  std::vector<std::uint32_t> head(kHashSize, kNone);
  std::vector<std::uint32_t> prev(in.size(), kNone);
  std::vector<std::uint32_t> tokens;
  tokens.reserve(in.size());  // at most one token per input byte

  // A stop request is polled once per 4 KiB of input in each pass; where a
  // block ends does not affect the tokens.
  constexpr std::size_t kStopCheckBytes = 4096;
  const std::size_t linked =
      in.size() >= kMinMatch ? in.size() - kMinMatch + 1 : 0;
  for (std::size_t j = 0; j < linked;) {
    throw_if_stop_requested();
    for (const std::size_t end = std::min(linked, j + kStopCheckBytes);
         j < end; ++j) {
      const std::uint32_t h = hash3(in.data() + j);
      prev[j] = head[h];
      head[h] = static_cast<std::uint32_t>(j);
    }
  }

  std::size_t i = 0;
  while (i < in.size()) {
    throw_if_stop_requested();
    const std::size_t block_end = std::min(in.size(), i + kStopCheckBytes);
    while (i < block_end) {
      std::size_t best_len = 0, best_dist = 0;
      const std::size_t limit = std::min(kMaxMatch, in.size() - i);
      std::uint32_t cand = prev[i];  // kNone for the unlinked last two
      int probes = 0;
      // The first candidate with the longest match wins. A candidate that
      // differs at byte best_len cannot beat it, and once the best match
      // reaches the limit none can.
      while (cand != kNone && i - cand <= kWindowSize &&
             probes++ < kMaxChainProbes) {
        const std::size_t c = cand;
        if (in[c + best_len] == in[i + best_len]) {
          const std::size_t len =
              match_length(in.data() + c, in.data() + i, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = i - c;
            if (len == limit) break;
          }
        }
        cand = prev[c];
      }
      if (best_len >= kMinMatch) {
        tokens.push_back(kMatch | static_cast<std::uint32_t>(best_len << 16) |
                         static_cast<std::uint32_t>(best_dist));
        ++freqs.lit[257 + kLengthCodeOf[best_len]];
        ++freqs.dist[dist_code(static_cast<std::uint32_t>(best_dist))];
        i += best_len;
      } else {
        tokens.push_back(in[i]);
        ++freqs.lit[in[i]];
        ++i;
      }
    }
  }
  ++freqs.lit[kEob];
  return tokens;
}

constexpr byte_t kFormatHuffman = 1;
constexpr byte_t kFormatStored = 0;

}  // namespace

std::vector<byte_t> deflate_compress(std::span<const byte_t> in) {
  TokenFreqs freqs;
  const std::vector<std::uint32_t> tokens = tokenize(in, freqs);
  throw_if_stop_requested();

  const auto lit_lengths = huffman_code_lengths(freqs.lit);
  const auto dist_lengths = huffman_code_lengths(freqs.dist);

  ByteWriter out;
  out.put(kFormatHuffman);
  out.put(static_cast<std::uint64_t>(in.size()));
  write_code_lengths(out, lit_lengths);
  write_code_lengths(out, dist_lengths);

  // The payload's exact size, padded to a byte: every symbol's code and
  // extra bits. A stream no smaller than the stored copy (format byte, u64
  // size, the bytes) is not coded; the stored copy goes out instead.
  std::uint64_t payload_bits = 0;
  for (unsigned s = 0; s < kLitLenAlphabet; ++s)
    payload_bits += freqs.lit[s] *
                    (lit_lengths[s] +
                     (s > kEob ? kLengthCodes[s - 257].extra_bits : 0u));
  for (unsigned d = 0; d < kDistAlphabet; ++d)
    payload_bits += freqs.dist[d] * (dist_lengths[d] + kDistCodes[d].extra_bits);
  const std::uint64_t payload_bytes = (payload_bits + 7) / 8;
  if (out.size() + sizeof(std::uint64_t) + payload_bytes >= in.size() + 9) {
    ByteWriter stored;
    stored.put(kFormatStored);
    stored.put(static_cast<std::uint64_t>(in.size()));
    stored.put_bytes(in);
    return std::move(stored).take();
  }
  out.put(payload_bytes);

  // The payload is coded straight after the header, into room reserved
  // for exactly its size.
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);
  BitWriter bw(std::move(out).take());
  bw.reserve(payload_bytes);
  for (const std::uint32_t t : tokens) {
    if (t & kMatch) {
      const std::uint32_t length = (t >> 16) & 0x1ff;
      const unsigned lc = kLengthCodeOf[length];
      lit_enc.encode(bw, 257 + lc);
      bw.write_bits(length - kLengthCodes[lc].base, kLengthCodes[lc].extra_bits);
      const std::uint32_t distance = t & 0xffff;
      const unsigned dc = dist_code(distance);
      dist_enc.encode(bw, dc);
      bw.write_bits(distance - kDistCodes[dc].base, kDistCodes[dc].extra_bits);
    } else {
      lit_enc.encode(bw, t);
    }
  }
  lit_enc.encode(bw, kEob);
  return bw.finish();
}

std::vector<byte_t> deflate_decompress(std::span<const byte_t> in,
                                       std::size_t expected_size) {
  ByteReader r(in);
  const auto format = r.get<byte_t>();
  const auto orig_size = r.get<std::uint64_t>();
  if (orig_size != expected_size)
    throw corrupt_stream_error("deflate: size mismatch");

  if (format == kFormatStored) {
    const auto bytes = r.get_bytes(expected_size);
    return {bytes.begin(), bytes.end()};
  }
  if (format != kFormatHuffman)
    throw corrupt_stream_error("deflate: unknown format byte");

  const auto lit_lengths = read_code_lengths(r, kLitLenAlphabet);
  const auto dist_lengths = read_code_lengths(r, kDistAlphabet);
  const HuffmanDecoder lit_dec(lit_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);
  const auto payload_size = r.get<std::uint64_t>();
  BitReader br(r.get_bytes(payload_size));

  std::vector<byte_t> out(expected_size);
  std::size_t o = 0;
  for (;;) {
    const std::uint32_t sym = lit_dec.decode(br);
    if (sym == kEob) break;
    if (sym < 256) {
      if (o == expected_size)
        throw corrupt_stream_error("deflate: output exceeds expected size");
      out[o++] = static_cast<byte_t>(sym);
    } else {
      const unsigned lc = sym - 257;
      if (lc >= kLengthCodes.size())
        throw corrupt_stream_error("deflate: bad length symbol");
      const std::size_t len =
          kLengthCodes[lc].base +
          br.read_bits(kLengthCodes[lc].extra_bits);
      const unsigned dc = dist_dec.decode(br);
      if (dc >= kDistCodes.size())
        throw corrupt_stream_error("deflate: bad distance symbol");
      const std::size_t dist =
          kDistCodes[dc].base + br.read_bits(kDistCodes[dc].extra_bits);
      if (dist == 0 || dist > o)
        throw corrupt_stream_error("deflate: distance out of window");
      if (len > expected_size - o)
        throw corrupt_stream_error("deflate: output exceeds expected size");
      // Byte by byte: a distance shorter than the length repeats the run.
      for (const std::size_t end = o + len; o < end; ++o) out[o] = out[o - dist];
    }
  }
  if (o != expected_size)
    throw corrupt_stream_error("deflate: output size mismatch");
  return out;
}

}  // namespace lck
