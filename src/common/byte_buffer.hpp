#pragma once
/// \file byte_buffer.hpp
/// \brief Little-endian byte-oriented serialization helpers.
///
/// ByteWriter appends POD values / byte ranges to a growable buffer;
/// ByteReader consumes them with bounds checking. Used by the compressors
/// and by the checkpoint file format.

#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Growable output byte stream with little-endian primitive encoding.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// Append a trivially-copyable value verbatim (host endianness; the
  /// library only targets little-endian platforms, asserted in tests).
  /// resize+memcpy rather than insert(ptr, ptr): GCC 12 emits spurious
  /// -Wstringop-overflow warnings for the insert form at -O2.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const std::size_t old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  /// Append raw bytes.
  void put_bytes(std::span<const byte_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Append a length-prefixed string (u32 length + bytes).
  void put_string(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Append `count` values from `data` verbatim.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_array(const T* data, std::size_t count) {
    // `count * sizeof(T)` must not wrap: a wrapped product would resize the
    // buffer to a tiny size and silently emit a stream that decodes short.
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw config_error("put_array: element count overflows byte size");
    const std::size_t old = buf_.size();
    buf_.resize(old + count * sizeof(T));
    if (count > 0) std::memcpy(buf_.data() + old, data, count * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::span<const byte_t> view() const noexcept { return buf_; }

  /// Move the accumulated bytes out, leaving the writer empty.
  [[nodiscard]] std::vector<byte_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::vector<byte_t>& bytes() noexcept { return buf_; }

 private:
  std::vector<byte_t> buf_;
};

/// Bounds-checked input byte stream matching ByteWriter's encoding.
class ByteReader {
 public:
  explicit ByteReader(std::span<const byte_t> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T v;
    check(sizeof(T));
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_string() {
    // `n` is a u32 checked directly against the remaining bytes — no
    // multiply, so no wrap hazard here (audited alongside get_array).
    const auto n = get<std::uint32_t>();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Read `count` values into `out`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void get_array(T* out, std::size_t count) {
    if (count == 0) return;  // memcpy with null out/src is UB even for 0
    // Divide instead of multiplying: `count * sizeof(T)` wraps for a
    // corrupt huge `count`, and the wrapped product would pass check()
    // and drive memcpy with the un-wrapped (huge) length.
    if (count > remaining() / sizeof(T))
      throw corrupt_stream_error("array length exceeds remaining bytes");
    std::memcpy(out, data_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
  }

  /// Read `count` values into a new vector. `count` is checked against the
  /// remaining bytes before anything is allocated, so a corrupt count
  /// cannot demand more memory than the stream backs.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector(std::size_t count) {
    if (count > remaining() / sizeof(T))
      throw corrupt_stream_error("array length exceeds remaining bytes");
    std::vector<T> v(count);
    get_array(v.data(), count);
    return v;
  }

  /// View `count` raw bytes without copying and advance.
  std::span<const byte_t> get_bytes(std::size_t count) {
    check(count);
    auto s = data_.subspan(pos_, count);
    pos_ += count;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void check(std::size_t need) const {
    // need > size - pos, not pos + need > size: the latter wraps for
    // attacker-sized `need` and lets the read through.
    if (need > data_.size() - pos_)
      throw corrupt_stream_error("read past end of buffer");
  }
  std::span<const byte_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace lck
