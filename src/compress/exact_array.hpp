#pragma once
/// \file exact_array.hpp
/// \brief The pointwise-relative log transform shared by SzLikeCompressor's
///        kPointwiseRelative mode and PointwiseRelativeAdapter.
///
/// Both meet |x_i − x'_i| ≤ eb·|x_i| by compressing log₂|x_i| under the
/// absolute bound log_transform_bound(eb). Entries the log cannot carry
/// are stored exactly: zeros, subnormals, non-finites, and everything when
/// eb == 0. Those are dominated by ±0.0 in sparse solver fields, so a
/// verbatim 8 B/element array would pin the ratio at ≈ 1. Instead an RLE
/// bitset marks the rare non-zero exact entries and only their values are
/// stored; zeros rebuild from the sign mask (±0.0 bit-exactly).
///
/// Layout, written by write_log_transform and read by LogTransformReader:
///
///   exact_mask:bitset(n) sign_mask:bitset(n)
///   nonzero:bitset(exact entries) value_count:u64 values:f64[value_count]
///   log_count:u64
///   bitset(k) := rle_size:u64 rle(k bits, packed)
///
/// The caller's codec stream for the log_count logs follows.

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "compress/lossless/byte_codecs.hpp"

namespace lck {

/// Write a bitset of n bits, RLE-compressed: solver sign/zero masks are
/// almost always constant, so this costs ~0 bits per element instead of 1.
inline void write_rle_bitset(ByteWriter& out, const std::vector<bool>& bits) {
  // MSB-first, eight bits to a byte and the last one zero-padded: the
  // bytes BitWriter makes of one-bit writes, without its store per write.
  std::vector<byte_t> packed;
  packed.reserve((bits.size() + 7) / 8);
  unsigned byte = 0, n = 0;
  for (const bool b : bits) {
    byte = (byte << 1) | (b ? 1u : 0u);
    if (++n == 8) {
      packed.push_back(static_cast<byte_t>(byte));
      byte = 0;
      n = 0;
    }
  }
  if (n != 0) packed.push_back(static_cast<byte_t>(byte << (8 - n)));
  const auto rle = rle_encode(packed);
  out.put(static_cast<std::uint64_t>(rle.size()));
  out.put_bytes(rle);
}

inline std::vector<bool> read_rle_bitset(ByteReader& in, std::size_t n) {
  const auto rle_size = in.get<std::uint64_t>();
  const auto packed = rle_decode(in.get_bytes(rle_size), (n + 7) / 8);
  BitReader br(packed);
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = br.read_bit() != 0;
  return bits;
}

/// Absolute bound on log₂|x| that keeps |x − x'| ≤ eb·|x|. The 0.999
/// safety factor absorbs the log2/exp2 rounding, so the pointwise bound
/// holds exactly (verified by property tests).
inline double log_transform_bound(double eb) {
  return std::log2(1.0 + 0.999 * eb);
}

/// Write the masks, the exact array and the log count of `data` under the
/// pointwise bound `eb`. Returns log₂|x| of the other entries, in order,
/// for the caller to compress under log_transform_bound(eb).
inline std::vector<double> write_log_transform(ByteWriter& out,
                                               std::span<const double> data,
                                               double eb) {
  // eb == 0 means lossless; the log/exp round trip is not bit-exact, so
  // every element takes the exact path then.
  const bool exact_only = eb <= 0.0;
  std::vector<bool> exact(data.size()), sign(data.size()), nonzero;
  std::vector<double> values, logs;
  logs.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double x = data[i];
    exact[i] = exact_only || x == 0.0 || !std::isfinite(x) ||
               std::fabs(x) < std::numeric_limits<double>::min();
    sign[i] = std::signbit(x);
    if (!exact[i]) {
      logs.push_back(std::log2(std::fabs(x)));
    } else {
      nonzero.push_back(x != 0.0);  // ±0.0 compare equal: both implied
      if (x != 0.0) values.push_back(x);
    }
  }
  write_rle_bitset(out, exact);
  write_rle_bitset(out, sign);
  write_rle_bitset(out, nonzero);
  out.put(static_cast<std::uint64_t>(values.size()));
  out.put_array(values.data(), values.size());
  out.put(static_cast<std::uint64_t>(logs.size()));
  return logs;
}

/// Reads what write_log_transform wrote for n entries. Every count is
/// checked against what the masks imply before anything is sized by it.
/// The caller decodes its codec stream into logs(), then calls restore().
class LogTransformReader {
 public:
  LogTransformReader(ByteReader& in, std::size_t n)
      : exact_(read_rle_bitset(in, n)), sign_(read_rle_bitset(in, n)) {
    const auto exact_entries = static_cast<std::size_t>(
        std::count(exact_.begin(), exact_.end(), true));
    nonzero_ = read_rle_bitset(in, exact_entries);
    const auto value_count = in.get<std::uint64_t>();
    if (value_count != static_cast<std::uint64_t>(
                           std::count(nonzero_.begin(), nonzero_.end(), true)))
      throw corrupt_stream_error("log transform: exact value count mismatch");
    values_ = in.get_vector<double>(value_count);
    if (in.get<std::uint64_t>() != n - exact_entries)
      throw corrupt_stream_error("log transform: log count mismatch");
    logs_.resize(n - exact_entries);
  }

  /// The n − (exact entries) logs, for the caller's codec to decode into.
  [[nodiscard]] std::span<double> logs() noexcept { return logs_; }

  /// Rebuild all n values into `out`.
  void restore(std::span<double> out) const {
    std::size_t entry = 0, value = 0, log = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!exact_[i]) {
        const double mag = std::exp2(logs_[log++]);
        out[i] = sign_[i] ? -mag : mag;
      } else if (nonzero_[entry++]) {
        out[i] = values_[value++];
      } else {
        out[i] = sign_[i] ? -0.0 : 0.0;
      }
    }
  }

 private:
  std::vector<bool> exact_, sign_, nonzero_;
  std::vector<double> values_;
  std::vector<double> logs_;
};

}  // namespace lck
