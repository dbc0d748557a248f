#pragma once
/// \file bit_io.hpp
/// \brief MSB-first bit-level writer/reader used by the entropy coders and
///        the ZFP-like bit-plane coder.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Appends bits MSB-first into a byte vector.
class BitWriter {
 public:
  BitWriter() = default;

  /// Write the low `nbits` bits of `value`, most significant first.
  void write_bits(std::uint64_t value, unsigned nbits) {
    for (unsigned i = nbits; i-- > 0;) write_bit((value >> i) & 1u);
  }

  void write_bit(unsigned bit) {
    acc_ = static_cast<byte_t>((acc_ << 1) | (bit & 1u));
    if (++nacc_ == 8) {
      buf_.push_back(acc_);
      acc_ = 0;
      nacc_ = 0;
    }
  }

  /// Write a unary-coded value: `value` zero bits then a one bit.
  void write_unary(unsigned value) {
    for (unsigned i = 0; i < value; ++i) write_bit(0);
    write_bit(1);
  }

  /// Pad with zero bits to the next byte boundary and return the buffer.
  [[nodiscard]] std::vector<byte_t> finish() {
    if (nacc_ != 0) {
      buf_.push_back(static_cast<byte_t>(acc_ << (8 - nacc_)));
      acc_ = 0;
      nacc_ = 0;
    }
    return std::move(buf_);
  }

  /// Number of bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return buf_.size() * 8 + nacc_;
  }

 private:
  std::vector<byte_t> buf_;
  byte_t acc_ = 0;
  unsigned nacc_ = 0;
};

/// Reads bits MSB-first from a byte span. Reading past the end throws.
class BitReader {
 public:
  explicit BitReader(std::span<const byte_t> data) : data_(data) {}

  unsigned read_bit() {
    const std::size_t byte = pos_ >> 3;
    if (byte >= data_.size()) throw corrupt_stream_error("bit read past end");
    const unsigned bit = (data_[byte] >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }

  std::uint64_t read_bits(unsigned nbits) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) v = (v << 1) | read_bit();
    return v;
  }

  /// Read a unary-coded value (count of zero bits before the terminating 1).
  unsigned read_unary() {
    unsigned v = 0;
    while (read_bit() == 0) ++v;
    return v;
  }

  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return data_.size() * 8 - pos_;
  }

 private:
  std::span<const byte_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace lck
