#pragma once
/// \file bit_io.hpp
/// \brief MSB-first bit-level writer/reader used by the entropy coders and
///        the ZFP-like bit-plane coder.
///
/// Both sides move up to 32 bits per step through a 64-bit register. The
/// writer ors each value into its register and stores the pending bits
/// with one unconditional 8-byte big-endian store at the first byte they
/// touch, then advances by the whole bytes written, so it never branches
/// on how many bits are pending. Its buffer keeps 8 bytes of slack past
/// that byte: it doubles when the slack runs out, and a caller that knows
/// its size reserves it once. The reader keeps a left-aligned window that
/// it refills eight bytes at a time and one byte at a time near the end of
/// its span, so it never loads past the span.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Appends bits MSB-first into a byte vector.
class BitWriter {
 public:
  BitWriter() = default;
  BitWriter(const BitWriter&) = delete;  // cur_ points into buf_
  BitWriter& operator=(const BitWriter&) = delete;

  /// Continue after the bytes of `prefix`: they stay at the front of the
  /// vector finish() returns, and bit_count() counts them.
  explicit BitWriter(std::vector<byte_t> prefix)
      : buf_(std::move(prefix)), cur_(buf_.data() + buf_.size()) {}

  /// Make room for `bytes` more bytes of output, so writing them never
  /// grows the buffer.
  void reserve(std::size_t bytes) {
    const std::size_t pos = cur_ - buf_.data();
    const std::size_t size = pos + bytes + kSlack;
    if (buf_.size() >= size) return;
    buf_.reserve(size);  // exactly `size`, where resize alone may double
    buf_.resize(size);
    cur_ = buf_.data() + pos;
  }

  /// Write the low `nbits` (≤ 64) bits of `value`, most significant first.
  void write_bits(std::uint64_t value, unsigned nbits) {
    if (nbits > 32) {
      put(value >> 32, nbits - 32);
      nbits = 32;
    }
    put(value, nbits);
  }

  void write_bit(unsigned bit) { put(bit, 1); }

  /// Write a unary-coded value: `value` zero bits then a one bit.
  void write_unary(unsigned value) {
    for (; value >= 32; value -= 32) put(0, 32);
    put(1, value + 1);
  }

  /// Pad with zero bits to the next byte boundary and return the buffer.
  /// The last write already stored the pending bits with zeros below them.
  [[nodiscard]] std::vector<byte_t> finish() {
    buf_.resize(cur_ - buf_.data() + (nacc_ != 0 ? 1 : 0));
    cur_ = nullptr;
    acc_ = 0;
    nacc_ = 0;
    return std::move(buf_);
  }

  /// Number of bits written so far, a prefix's included.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return (cur_ - buf_.data()) * 8 + nacc_;
  }

 private:
  static constexpr std::size_t kSlack = sizeof(std::uint64_t);

  /// Masks for the low 0..32 bits of a value.
  static constexpr auto kLowBits = [] {
    std::array<std::uint64_t, 33> m{};
    for (unsigned n = 0; n < m.size(); ++n) m[n] = (std::uint64_t{1} << n) - 1;
    return m;
  }();

  /// Append the low `n` (≤ 32) bits of `v`. The state is read before and
  /// written after the byte store, which may alias any member, and growth
  /// is a cold call: so the compiler keeps the state in registers from one
  /// write to the next.
  void put(std::uint64_t v, unsigned n) {
    const byte_t* const end = buf_.data() + buf_.size();
    if (end - cur_ < static_cast<std::ptrdiff_t>(kSlack)) [[unlikely]]
      grow();
    byte_t* const cur = cur_;
    const std::uint64_t acc = (acc_ << n) | (v & kLowBits[n]);
    const unsigned nacc = nacc_ + n;  // < 40
    // The pending bits at the top, zeros below. With none pending (a
    // zero-width write), the shift is 0, not 64, and the word holds stale
    // bits; they all lie past the written bytes, where the next store or
    // finish() drops them.
    std::uint64_t w = acc << ((0u - nacc) & 63);
    if constexpr (std::endian::native == std::endian::little)
      w = __builtin_bswap64(w);
    std::memcpy(cur, &w, sizeof(w));
    acc_ = acc;
    cur_ = cur + (nacc >> 3);
    nacc_ = nacc & 7;
  }

  [[gnu::cold, gnu::noinline]] void grow() {
    const std::size_t pos = cur_ - buf_.data();
    buf_.resize(2 * buf_.size() + kSlack);
    cur_ = buf_.data() + pos;
  }

  std::vector<byte_t> buf_;  // written up to cur_, then kSlack bytes or more
  byte_t* cur_ = nullptr;    // the byte the pending bits go to
  std::uint64_t acc_ = 0;    // the low nacc_ bits are pending output
  unsigned nacc_ = 0;        // < 8 between calls
};

/// Reads bits MSB-first from a byte span. A read that needs more bits than
/// remain throws corrupt_stream_error and leaves the reader exhausted.
class BitReader {
 public:
  explicit BitReader(std::span<const byte_t> data) : data_(data) {}

  unsigned read_bit() { return static_cast<unsigned>(read_bits(1)); }

  /// Read `nbits` (≤ 64) bits, most significant first.
  std::uint64_t read_bits(unsigned nbits) {
    if (nbits > 32) {
      if (bits_remaining() < nbits) fail();
      const std::uint64_t hi = take(nbits - 32);
      return (hi << 32) | take(32);
    }
    return take(nbits);
  }

  /// The next `nbits` (1..32) bits without consuming them; bits past the
  /// end of the span read as zero.
  [[nodiscard]] std::uint32_t peek(unsigned nbits) {
    if (nwin_ < nbits) refill();
    return static_cast<std::uint32_t>(win_ >> (64 - nbits));
  }

  /// Consume `nbits` (≤ 32) bits.
  void skip(unsigned nbits) { (void)take(nbits); }

  /// Read a unary-coded value (count of zero bits before the terminating 1).
  unsigned read_unary() {
    unsigned v = 0;
    while (read_bit() == 0) ++v;
    return v;
  }

  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return (data_.size() - pos_) * 8 + nwin_;
  }

 private:
  std::uint64_t take(unsigned nbits) {
    if (nwin_ < nbits) {
      refill();
      if (nwin_ < nbits) fail();
    }
    // Two shifts so that nbits == 0 yields 0 without a 64-bit shift.
    const std::uint64_t v = (win_ >> 1) >> (63 - nbits);
    win_ <<= nbits;
    nwin_ -= nbits;
    return v;
  }

  /// Top the window up to ≥ 56 bits, or to everything left in the span.
  /// Bits below the window's count are either zero or the next bytes'
  /// own bits, so or-ing those bytes in again later changes nothing.
  void refill() noexcept {
    if (data_.size() - pos_ >= 8) {
      std::uint64_t w;
      std::memcpy(&w, data_.data() + pos_, sizeof(w));
      if constexpr (std::endian::native == std::endian::little)
        w = __builtin_bswap64(w);
      win_ |= w >> nwin_;
      const unsigned bytes = (63 - nwin_) >> 3;
      pos_ += bytes;
      nwin_ += bytes * 8;
      return;
    }
    while (nwin_ <= 56 && pos_ < data_.size()) {
      win_ |= std::uint64_t{data_[pos_++]} << (56 - nwin_);
      nwin_ += 8;
    }
  }

  [[noreturn]] void fail() {
    pos_ = data_.size();
    win_ = 0;
    nwin_ = 0;
    throw corrupt_stream_error("bit read past end");
  }

  std::span<const byte_t> data_;
  std::size_t pos_ = 0;     // next byte to load into the window
  std::uint64_t win_ = 0;   // left-aligned: the next bit is bit 63
  unsigned nwin_ = 0;       // valid bits in win_, ≤ 63
};

}  // namespace lck
