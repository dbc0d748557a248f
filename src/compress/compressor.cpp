#include "compress/compressor.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/byte_buffer.hpp"
#include "compress/lossless_compressors.hpp"
#include "compress/pwrel_adapter.hpp"
#include "compress/sz/sz_like.hpp"
#include "compress/truncation.hpp"
#include "compress/zfp/zfp_like.hpp"

namespace lck {

double LossyCompressor::absolute_bound(std::span<const double> data) const {
  if (eb_.mode != ErrorBound::Mode::kValueRangeRelative) return eb_.value;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const double x : data) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double range = data.empty() ? 0.0 : hi - lo;
  return eb_.value * range;
}

std::vector<byte_t> NoneCompressor::compress(
    std::span<const double> data) const {
  ByteWriter out(data.size() * sizeof(double) + 16);
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(data.size()));
  out.put_array(data.data(), data.size());
  return std::move(out).take();
}

void NoneCompressor::decompress(std::span<const byte_t> stream,
                                std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("none: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("none: size mismatch");
  in.get_array(out.data(), n);
}

std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            ErrorBound eb) {
  if (name == "none") return std::make_unique<NoneCompressor>();
  if (auto lossless = make_lossless_compressor(name)) return lossless;
  if (name == "sz") return std::make_unique<SzLikeCompressor>(eb);
  if (name == "zfp") {
    if (eb.mode == ErrorBound::Mode::kPointwiseRelative)
      return std::make_unique<PointwiseRelativeAdapter>(
          std::make_unique<ZfpLikeCompressor>(), eb.value);
    return std::make_unique<ZfpLikeCompressor>(eb);
  }
  if (name == "trunc") {
    if (eb.mode == ErrorBound::Mode::kPointwiseRelative)
      return std::make_unique<PointwiseRelativeAdapter>(
          std::make_unique<TruncationCompressor>(), eb.value);
    return std::make_unique<TruncationCompressor>(eb);
  }
  // List the registered names so a typo in a config is a one-look fix
  // (LCK_FORCE_ISA's strict parse in common/simd.cpp follows the same rule).
  throw config_error("unknown compressor: '" + name +
                     "' (valid: none, rle, shuffle-rle, deflate, "
                     "shuffle-deflate, sz, zfp, trunc)");
}

double compression_ratio(const Compressor& c, std::span<const double> data) {
  const auto stream = c.compress(data);
  if (stream.empty()) return 0.0;
  return static_cast<double>(data.size() * sizeof(double)) /
         static_cast<double>(stream.size());
}

}  // namespace lck
