#pragma once
/// \file bit_io.hpp
/// \brief MSB-first bit-level writer/reader used by the entropy coders and
///        the ZFP-like bit-plane coder.
///
/// Both sides move up to 32 bits per step through a 64-bit register: the
/// writer accumulates bits and stores each whole 32-bit word with one copy
/// into a buffer that doubles when full, the reader keeps a left-aligned
/// window that it refills eight bytes at a time and one byte at a time near
/// the end of its span, so it never loads past the span.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Appends bits MSB-first into a byte vector.
class BitWriter {
 public:
  BitWriter() = default;

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
  [[nodiscard]] std::vector<byte_t> finish() {
    buf_.resize(size_);
    size_ = 0;
    while (nacc_ >= 8) {
      nacc_ -= 8;
      buf_.push_back(static_cast<byte_t>(acc_ >> nacc_));
    }
    if (nacc_ != 0) buf_.push_back(static_cast<byte_t>(acc_ << (8 - nacc_)));
    acc_ = 0;
    nacc_ = 0;
    return std::move(buf_);
  }

  /// Number of bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return size_ * 8 + nacc_;
  }

 private:
  /// Append the low `n` (≤ 32) bits of `v`; a full 32-bit word goes out
  /// big-endian.
  void put(std::uint64_t v, unsigned n) {
    acc_ = (acc_ << n) | (v & ((std::uint64_t{1} << n) - 1));
    nacc_ += n;
    if (nacc_ >= 32) {
      nacc_ -= 32;
      auto w = static_cast<std::uint32_t>(acc_ >> nacc_);
      if constexpr (std::endian::native == std::endian::little)
        w = __builtin_bswap32(w);
      // Grow to 4, 8, 16, ... bytes: the capacities appending each word
      // to the vector would reach.
      if (buf_.size() - size_ < sizeof(w))
        buf_.resize(std::max(sizeof(w), 2 * buf_.size()));
      std::memcpy(buf_.data() + size_, &w, sizeof(w));
      size_ += sizeof(w);
    }
  }

  std::vector<byte_t> buf_;  // the first size_ bytes are written
  std::size_t size_ = 0;     // a multiple of 4 between calls
  std::uint64_t acc_ = 0;    // the low nacc_ bits are pending output
  unsigned nacc_ = 0;        // < 32 between calls
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
