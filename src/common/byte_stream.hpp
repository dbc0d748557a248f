#pragma once
/// \file byte_stream.hpp
/// \brief Incremental byte sink/source abstractions.
///
/// ByteSink accepts bytes in arbitrary-sized increments; ByteSource hands
/// them back the same way. They decouple producers that want bounded
/// buffering (the frame writer/reader in ckpt/frame_stream.hpp) from the
/// storage backend: a sink may append to memory, to an open file, or to a
/// network socket without the producer materializing the whole stream.

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Destination for an incrementally-produced byte stream.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Append `bytes` to the stream. Throws on I/O failure.
  virtual void append(std::span<const byte_t> bytes) = 0;

  /// Seal the stream (flush buffers, publish the result). Must be called
  /// exactly once after the last append; a sink destroyed without finish()
  /// discards or abandons its partial output.
  virtual void finish() {}
};

/// Source of an incrementally-consumed byte stream.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Read up to `dst.size()` bytes into `dst`; returns the number of bytes
  /// produced. Returns 0 only at end of stream. Throws on I/O failure.
  [[nodiscard]] virtual std::size_t read_some(std::span<byte_t> dst) = 0;
};

/// Sink that appends into a caller-owned vector.
class VectorSink final : public ByteSink {
 public:
  explicit VectorSink(std::vector<byte_t>& out) : out_(out) {}
  void append(std::span<const byte_t> bytes) override {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

 private:
  std::vector<byte_t>& out_;
};

/// Source over an in-memory byte range (the range must outlive the source).
class SpanSource final : public ByteSource {
 public:
  explicit SpanSource(std::span<const byte_t> data) : data_(data) {}

  [[nodiscard]] std::size_t read_some(std::span<byte_t> dst) override {
    const std::size_t n = std::min(dst.size(), data_.size() - pos_);
    if (n > 0) std::memcpy(dst.data(), data_.data() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  std::span<const byte_t> data_;
  std::size_t pos_ = 0;
};

/// Source that owns its backing bytes (e.g. a blob fetched from a store).
class OwningSource final : public ByteSource {
 public:
  explicit OwningSource(std::vector<byte_t> data) : data_(std::move(data)) {}

  [[nodiscard]] std::size_t read_some(std::span<byte_t> dst) override {
    const std::size_t n = std::min(dst.size(), data_.size() - pos_);
    if (n > 0) std::memcpy(dst.data(), data_.data() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  std::vector<byte_t> data_;
  std::size_t pos_ = 0;
};

/// Fill `dst` completely from `src`; returns bytes read (== dst.size()
/// unless the stream ended early).
inline std::size_t read_fully(ByteSource& src, std::span<byte_t> dst) {
  std::size_t got = 0;
  while (got < dst.size()) {
    const std::size_t n = src.read_some(dst.subspan(got));
    if (n == 0) break;
    got += n;
  }
  return got;
}

}  // namespace lck
