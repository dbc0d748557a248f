#pragma once
/// \file pwrel_adapter.hpp
/// \brief Decorator that gives any absolute-error-bounded lossy compressor
///        the paper's pointwise-relative semantics |x_i−x'_i| ≤ eb·|x_i|.
///
/// Implementation: the log₂ transform SZ's pointwise-relative mode uses too
/// (exact_array.hpp), compressing log₂|x_i| under the absolute bound
/// log₂(1+0.999·eb) with the wrapped compressor. Zeros, subnormals and
/// non-finite values are stored exactly.

#include <memory>

#include "compress/compressor.hpp"

namespace lck {

class PointwiseRelativeAdapter final : public LossyCompressor {
 public:
  /// `inner` must support ErrorBound::Mode::kAbsolute.
  PointwiseRelativeAdapter(std::unique_ptr<LossyCompressor> inner, double eb)
      : LossyCompressor(ErrorBound::pointwise_rel(eb)),
        inner_(std::move(inner)) {
    require(inner_ != nullptr, "pwrel adapter: null inner compressor");
    set_error_bound(eb_);
  }

  /// Sets the inner codec's bound with the adapter's, so compress() writes
  /// nothing and the lanes of one checkpoint can share the adapter.
  void set_error_bound(ErrorBound eb) override;

  [[nodiscard]] std::string name() const override {
    return "pwrel+" + inner_->name();
  }

  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override;

  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override;

 private:
  std::unique_ptr<LossyCompressor> inner_;
};

}  // namespace lck
