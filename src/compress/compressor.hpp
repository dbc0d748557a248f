#pragma once
/// \file compressor.hpp
/// \brief Abstract interfaces for the lossless and error-bounded lossy
///        compressors used by the checkpointing layer.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lck {

/// Error-bound specification for lossy compressors (SZ semantics).
struct ErrorBound {
  enum class Mode {
    kAbsolute,            ///< |x − x'| ≤ value
    kValueRangeRelative,  ///< |x − x'| ≤ value · (max(x) − min(x))
    kPointwiseRelative,   ///< |x_i − x'_i| ≤ value · |x_i|  (paper §4.4.1)
  };
  Mode mode = Mode::kPointwiseRelative;
  double value = 1e-4;

  static ErrorBound absolute(double v) { return {Mode::kAbsolute, v}; }
  static ErrorBound value_range_rel(double v) { return {Mode::kValueRangeRelative, v}; }
  static ErrorBound pointwise_rel(double v) { return {Mode::kPointwiseRelative, v}; }
};

/// Common interface: compress a double vector to bytes and back.
///
/// The compressed stream is self-describing (element count embedded), but
/// decompress() also takes the expected output span as a cross-check —
/// the checkpointing layer always knows the size of a protected variable.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Short identifier, e.g. "sz", "zfp", "deflate", "none".
  [[nodiscard]] virtual std::string name() const = 0;

  /// True for error-bounded lossy compressors.
  [[nodiscard]] virtual bool lossy() const noexcept = 0;

  /// Compress `data` into a self-describing byte stream.
  [[nodiscard]] virtual std::vector<byte_t> compress(
      std::span<const double> data) const = 0;

  /// Decompress `stream` into `out`. Throws corrupt_stream_error if the
  /// stream is malformed or its element count differs from out.size().
  virtual void decompress(std::span<const byte_t> stream,
                          std::span<double> out) const = 0;
};

/// Lossy compressors additionally carry a (mutable) error bound, so the
/// checkpointing layer can adapt it per snapshot (Theorem 3 for GMRES).
class LossyCompressor : public Compressor {
 public:
  [[nodiscard]] bool lossy() const noexcept final { return true; }

  void set_error_bound(ErrorBound eb) { eb_ = eb; }
  [[nodiscard]] ErrorBound error_bound() const noexcept { return eb_; }

 protected:
  explicit LossyCompressor(ErrorBound eb) : eb_(eb) {}
  ErrorBound eb_;
};

/// Identity "compressor" — the traditional checkpointing scheme.
class NoneCompressor final : public Compressor {
 public:
  /// Stream layout constants, public so the checkpoint serializer can emit
  /// the verbatim format directly without an intermediate payload buffer.
  static constexpr std::uint32_t kMagic = 0x454e4f4eu;  // "NONE"
  static constexpr std::size_t kHeaderBytes =
      sizeof(std::uint32_t) + sizeof(std::uint64_t);

  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override;
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override;
};

/// Factory: create a compressor by name.
/// Names: "none", "rle", "shuffle-rle", "deflate", "shuffle-deflate",
/// "lz4", "shuffle-lz4", "sz", "zfp", "trunc". Lossy ones receive `eb`.
[[nodiscard]] std::unique_ptr<Compressor> make_compressor(
    const std::string& name, ErrorBound eb = ErrorBound::pointwise_rel(1e-4));

/// Convenience: compression ratio achieved on `data` (original/compressed).
[[nodiscard]] double compression_ratio(const Compressor& c,
                                       std::span<const double> data);

}  // namespace lck
