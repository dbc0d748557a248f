#include "compress/sz/sz_like.hpp"

#include <algorithm>
#include <cmath>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "compress/exact_array.hpp"
#include "compress/huffman.hpp"

namespace lck {
namespace {

// "2SZ1": v2 streams encode the pointwise-relative exact array compactly
// (nonzero bitset + nonzero values) instead of 8 B per exact element.
constexpr std::uint32_t kMagic = 0x315a5332u;
constexpr std::uint32_t kRadius = SzLikeCompressor::kQuantRadius;
constexpr std::uint32_t kAlphabet = 2 * kRadius;  // code 0 = unpredictable

/// Adaptive 3-predictor bank over the reconstructed history. Encoder and
/// decoder both run this deterministically.
///
/// Each element needs the three predictor outputs twice — once to pick the
/// currently-best prediction and once for the hindsight rank update — so
/// candidates() evaluates them a single time per element and both select()
/// and push() consume the cached values. Same expressions at the same
/// history state as the old predict()/push() pair, so streams are
/// byte-identical while the per-element bank arithmetic is halved.
class PredictorBank {
 public:
  /// The three predictor outputs at the current history state
  /// (h1=x'_{i-1}, h2=x'_{i-2}, h3=x'_{i-3}; zeros until warm).
  struct Candidates {
    double p0, p1, p2;
  };

  [[nodiscard]] Candidates candidates() const noexcept {
    return {h1_,                          // constant (Lorenzo-1D)
            2.0 * h1_ - h2_,              // linear extrapolation
            3.0 * h1_ - 3.0 * h2_ + h3_}; // quadratic extrapolation
  }

  /// Prediction for the next point: the candidate ranked best so far.
  [[nodiscard]] double select(const Candidates& c) const noexcept {
    switch (best_) {
      case 1: return c.p1;
      case 2: return c.p2;
      default: return c.p0;
    }
  }

  /// After reconstructing x', update history and re-rank predictors by
  /// their error on this point (hindsight adaptation, no side info).
  /// `c` must be candidates() sampled before this push.
  void push(double reconstructed, const Candidates& c) noexcept {
    const double e0 = std::fabs(reconstructed - c.p0);
    const double e1 = std::fabs(reconstructed - c.p1);
    const double e2 = std::fabs(reconstructed - c.p2);
    best_ = 0;
    double be = e0;
    if (e1 < be) { best_ = 1; be = e1; }
    if (e2 < be) { best_ = 2; }
    h3_ = h2_;
    h2_ = h1_;
    h1_ = reconstructed;
  }

 private:
  double h1_ = 0.0, h2_ = 0.0, h3_ = 0.0;
  int best_ = 0;
};

/// Elements per encode block: the codes slice, outlier scratch, and bank
/// state stay L1/L2-resident while the inner loop runs branch-light.
constexpr std::size_t kSzBlock = 4096;

/// Core absolute-error-bounded compressor for a raw double sequence.
/// Appends quantizer params, Huffman table, outliers and payload to `out`
/// and returns the finished stream.
std::vector<byte_t> core_compress(ByteWriter out, std::span<const double> data,
                                  double eb) {
  const std::size_t n = data.size();
  std::vector<std::uint32_t> codes(n);
  std::vector<double> outliers;
  std::vector<double> block_outliers;
  block_outliers.reserve(kSzBlock);
  PredictorBank bank;

  const double inv_step = eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0;
  // 2·eb·q associates left-to-right, so hoisting (2.0·eb) out of the loop is
  // the identical computation.
  const double two_eb = 2.0 * eb;
  // Blocked two-phase encode: the tight quantize loop fills a block's worth
  // of codes plus a small outlier scratch, then outliers merge into the
  // global array once per block (no per-element push_back growth checks on
  // the large vector).
  for (std::size_t b0 = 0; b0 < n; b0 += kSzBlock) {
    const std::size_t b1 = std::min(n, b0 + kSzBlock);
    block_outliers.clear();
    for (std::size_t i = b0; i < b1; ++i) {
      const double x = data[i];
      const auto cand = bank.candidates();
      const double pred = bank.select(cand);
      // eb == 0 still enters the predicted path: inv_step is then 0, so the
      // candidate is the prediction itself and the |candidate − x| ≤ 0 check
      // admits it only when the predictor is exact (e.g. constant data).
      if (std::isfinite(pred)) {
        const double q = std::nearbyint((x - pred) * inv_step);
        if (std::fabs(q) < static_cast<double>(kRadius)) {
          const double candidate = pred + two_eb * q;
          if (std::fabs(candidate - x) <= eb) {
            codes[i] = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(q) + static_cast<std::int64_t>(kRadius));
            bank.push(candidate, cand);
            continue;
          }
        }
      }
      // Unpredictable: store verbatim (exact).
      codes[i] = 0;
      block_outliers.push_back(x);
      bank.push(x, cand);
    }
    outliers.insert(outliers.end(), block_outliers.begin(),
                    block_outliers.end());
  }

  const auto freq = count_frequencies(codes, kAlphabet);
  const auto lengths = huffman_code_lengths(freq);
  const HuffmanEncoder enc(lengths);

  out.put(eb);
  out.put(static_cast<std::uint64_t>(n));
  out.put(kRadius);
  write_code_lengths(out, lengths);
  out.put(static_cast<std::uint64_t>(outliers.size()));
  out.put_array(outliers.data(), outliers.size());

  // The payload's exact size, padded to a byte: Σ count × code length,
  // summed code by code. The payload is coded straight after it, into room
  // reserved for exactly that size.
  std::uint64_t payload_bits = 0;
  for (const auto c : codes) payload_bits += lengths[c];
  const std::uint64_t payload_bytes = (payload_bits + 7) / 8;
  out.put(payload_bytes);
  BitWriter bw(std::move(out).take());
  bw.reserve(payload_bytes);
  for (const auto c : codes) enc.encode(bw, c);
  return bw.finish();
}

/// Inverse of core_compress: fills `out`, whose size the stream must match.
void core_decompress(ByteReader& in, std::span<double> out) {
  const auto eb = in.get<double>();
  const auto n = in.get<std::uint64_t>();
  const auto radius = in.get<std::uint32_t>();
  if (n != out.size()) throw corrupt_stream_error("sz: element count mismatch");
  if (radius != kRadius) throw corrupt_stream_error("sz: radius mismatch");

  const auto lengths = read_code_lengths(in, kAlphabet);
  const HuffmanDecoder dec(lengths);
  const auto outliers = in.get_vector<double>(in.get<std::uint64_t>());
  const auto payload_size = in.get<std::uint64_t>();
  BitReader br(in.get_bytes(payload_size));

  PredictorBank bank;
  std::size_t next_outlier = 0;
  const double two_eb = 2.0 * eb;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t code = dec.decode(br);
    const auto cand = bank.candidates();
    double x;
    if (code == 0) {
      if (next_outlier >= outliers.size())
        throw corrupt_stream_error("sz: outlier stream exhausted");
      x = outliers[next_outlier++];
    } else {
      const double q = static_cast<double>(static_cast<std::int64_t>(code) -
                                           static_cast<std::int64_t>(radius));
      x = bank.select(cand) + two_eb * q;
    }
    out[i] = x;
    bank.push(x, cand);
  }
  if (next_outlier != outliers.size())
    throw corrupt_stream_error("sz: unused outliers");
}

}  // namespace

std::vector<byte_t> SzLikeCompressor::compress(
    std::span<const double> data) const {
  const std::size_t n = data.size();
  ByteWriter out(n / 2 + 64);
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(n));
  out.put(static_cast<std::uint8_t>(eb_.mode));
  out.put(eb_.value);

  if (eb_.mode == ErrorBound::Mode::kPointwiseRelative) {
    // Compress log2|x| under an absolute bound (exact_array.hpp).
    const auto logs = write_log_transform(out, data, eb_.value);
    return core_compress(std::move(out), logs, log_transform_bound(eb_.value));
  }
  // Absolute and value-range modes. A zero bound (degenerate value range)
  // stores exactly: core handles eb == 0.
  return core_compress(std::move(out), data, absolute_bound(data));
}

void SzLikeCompressor::decompress(std::span<const byte_t> stream,
                                  std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("sz: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("sz: output size mismatch");
  const auto mode = static_cast<ErrorBound::Mode>(in.get<std::uint8_t>());
  (void)in.get<double>();  // eb value (informational)

  switch (mode) {
    case ErrorBound::Mode::kAbsolute:
    case ErrorBound::Mode::kValueRangeRelative:
      core_decompress(in, out);
      break;
    case ErrorBound::Mode::kPointwiseRelative: {
      LogTransformReader logs(in, n);
      core_decompress(in, logs.logs());
      logs.restore(out);
      break;
    }
    default:
      throw corrupt_stream_error("sz: unknown error-bound mode");
  }
}

}  // namespace lck
