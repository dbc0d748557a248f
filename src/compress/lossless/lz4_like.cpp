#include "compress/lossless/lz4_like.hpp"

#include <cstdint>
#include <cstring>

#include "common/simd.hpp"

namespace lck {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;  // 64 KiB window
constexpr unsigned kHashBits = 13;         // 8 Ki-entry match table

inline std::uint32_t read_u32(const byte_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Fibonacci-hash the 4-byte sequence at a candidate match position.
inline std::uint32_t hash4(std::uint32_t v) noexcept {
  return (v * 2654435761u) >> (32u - kHashBits);
}

/// Dispatched leading-equal-bytes counter (the hot loop of the matcher).
inline std::size_t match_len_ops(const byte_t* a, const byte_t* b,
                                 std::size_t limit) {
  return simd::ops().match_len(a, b, limit);
}

}  // namespace

std::vector<byte_t> lz4_compress(std::span<const byte_t> in) {
  const std::size_t n = in.size();
  if (n == 0) return {};

  std::vector<byte_t> out(lz4_compress_bound(n));
  byte_t* op = out.data();
  const byte_t* ip = in.data();

  const auto emit_sequence = [&](std::size_t lit_begin, std::size_t lit_len,
                                 std::size_t offset, std::size_t match_len) {
    const std::size_t lit_nib = lit_len < 15 ? lit_len : 15;
    const std::size_t mat_nib =
        offset == 0 ? 0
                    : (match_len - kMinMatch < 15 ? match_len - kMinMatch : 15);
    *op++ = static_cast<byte_t>((lit_nib << 4) | mat_nib);
    if (lit_len >= 15) {
      std::size_t rem = lit_len - 15;
      for (; rem >= 255; rem -= 255) *op++ = byte_t{255};
      *op++ = static_cast<byte_t>(rem);
    }
    if (lit_len > 0) std::memcpy(op, ip + lit_begin, lit_len);
    op += lit_len;
    if (offset != 0) {
      *op++ = static_cast<byte_t>(offset & 0xffu);
      *op++ = static_cast<byte_t>(offset >> 8);
      if (match_len - kMinMatch >= 15) {
        std::size_t rem = match_len - kMinMatch - 15;
        for (; rem >= 255; rem -= 255) *op++ = byte_t{255};
        *op++ = static_cast<byte_t>(rem);
      }
    }
  };

  // Positions + 1, so 0 means "empty slot".
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0u);

  // LZ4 end-of-block rules: the last 5 bytes are always literals, and no
  // match may start within the last 12 bytes — they guarantee the decoder's
  // wild copies stay in bounds and give every block a literal-only tail.
  const std::size_t match_start_limit = n >= 12 ? n - 12 : 0;
  const std::size_t match_end_limit = n - 5;  // n >= 12 wherever this is used

  std::size_t pos = 0;
  std::size_t anchor = 0;
  while (pos < match_start_limit) {
    const std::uint32_t seq = read_u32(ip + pos);
    const std::uint32_t h = hash4(seq);
    const std::size_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos + 1);
    if (cand != 0) {
      const std::size_t cpos = cand - 1;
      if (pos - cpos <= kMaxOffset && read_u32(ip + cpos) == seq) {
        // Extend the match with the dispatched chunked comparator
        // (pcmpeqb+movemask on x86). The cap keeps every compare — chunked
        // or scalar — inside [pos, match_end_limit), exactly the byte range
        // the old byte-at-a-time loop touched, so streams stay identical.
        const std::size_t len =
            kMinMatch + match_len_ops(ip + cpos + kMinMatch,
                                      ip + pos + kMinMatch,
                                      match_end_limit - pos - kMinMatch);
        emit_sequence(anchor, pos - anchor, pos - cpos, len);
        pos += len;
        anchor = pos;
        continue;
      }
    }
    ++pos;
  }
  emit_sequence(anchor, n - anchor, 0, 0);
  out.resize(static_cast<std::size_t>(op - out.data()));
  return out;
}

std::vector<byte_t> lz4_decompress(std::span<const byte_t> in,
                                   std::size_t expected_size) {
  std::vector<byte_t> out(expected_size);
  const std::size_t isz = in.size();
  const std::size_t osz = out.size();
  if (isz == 0) {
    if (osz != 0) throw corrupt_stream_error("lz4: empty stream");
    return out;
  }
  std::size_t ip = 0;
  std::size_t op = 0;
  for (;;) {
    if (ip >= isz) throw corrupt_stream_error("lz4: truncated stream");
    const std::uint8_t token = static_cast<std::uint8_t>(in[ip++]);

    std::size_t lit = token >> 4;
    if (lit == 15) {
      std::uint8_t b;
      do {
        if (ip >= isz) throw corrupt_stream_error("lz4: truncated literals");
        b = static_cast<std::uint8_t>(in[ip++]);
        lit += b;
        if (lit > osz) throw corrupt_stream_error("lz4: literal overrun");
      } while (b == 255);
    }
    if (lit > osz - op || lit > isz - ip)
      throw corrupt_stream_error("lz4: literal overrun");
    if (lit > 0) std::memcpy(out.data() + op, in.data() + ip, lit);
    op += lit;
    ip += lit;

    if (ip == isz) {  // a block always ends on a literal-only sequence
      if (op != osz) throw corrupt_stream_error("lz4: output size mismatch");
      return out;
    }

    if (isz - ip < 2) throw corrupt_stream_error("lz4: truncated offset");
    const std::size_t offset = static_cast<std::size_t>(
        static_cast<std::uint8_t>(in[ip]) |
        (static_cast<std::uint8_t>(in[ip + 1]) << 8));
    ip += 2;
    if (offset == 0 || offset > op)
      throw corrupt_stream_error("lz4: bad match offset");

    std::size_t mlen = static_cast<std::size_t>(token & 15u) + kMinMatch;
    if ((token & 15u) == 15u) {
      std::uint8_t b;
      do {
        if (ip >= isz) throw corrupt_stream_error("lz4: truncated match len");
        b = static_cast<std::uint8_t>(in[ip++]);
        mlen += b;
        if (mlen > osz) throw corrupt_stream_error("lz4: match overrun");
      } while (b == 255);
    }
    if (mlen > osz - op) throw corrupt_stream_error("lz4: match overrun");
    // Byte-wise on purpose: offset < mlen means the match overlaps the
    // bytes it is producing (RLE-style), which memcpy/memmove get wrong.
    for (std::size_t i = 0; i < mlen; ++i)
      out[op + i] = out[op + i - offset];
    op += mlen;
  }
}

}  // namespace lck
