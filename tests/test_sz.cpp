/// SZ-like compressor tests: the error-bound contract (the paper's central
/// correctness requirement), compression-ratio expectations on solver-like
/// data, and stream robustness — for every codec, corrupt count fields.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/sz/sz_like.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

Vector smooth_field(std::size_t n, double offset = 1.5) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(6.28318 * static_cast<double>(i) / static_cast<double>(n)) +
           offset;
  return v;
}

Vector noisy_field(std::size_t n, std::uint64_t seed, double amp) {
  Rng rng(seed);
  Vector v = smooth_field(n);
  for (auto& x : v) x += amp * (rng.uniform() - 0.5);
  return v;
}

Vector roundtrip(const Compressor& c, const Vector& in) {
  const auto stream = c.compress(in);
  Vector out(in.size());
  c.decompress(stream, out);
  return out;
}

// ----- absolute error bound ---------------------------------------------------

class SzAbsBound : public ::testing::TestWithParam<double> {};

TEST_P(SzAbsBound, BoundHoldsElementwiseOnSmoothData) {
  const double eb = GetParam();
  SzLikeCompressor c(ErrorBound::absolute(eb));
  const Vector in = smooth_field(20000);
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_LE(std::fabs(in[i] - out[i]), eb) << "index " << i;
}

TEST_P(SzAbsBound, BoundHoldsOnNoisyData) {
  const double eb = GetParam();
  SzLikeCompressor c(ErrorBound::absolute(eb));
  const Vector in = noisy_field(20000, 7, 0.5);
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_LE(std::fabs(in[i] - out[i]), eb) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(Bounds, SzAbsBound,
                         ::testing::Values(1e-2, 1e-4, 1e-6, 1e-9));

// ----- pointwise relative bound (paper §4.4 definition) -------------------------

class SzPwRelBound : public ::testing::TestWithParam<double> {};

TEST_P(SzPwRelBound, PaperDefinitionHolds) {
  const double eb = GetParam();
  SzLikeCompressor c(ErrorBound::pointwise_rel(eb));
  // Mixed magnitudes spanning many orders, both signs, zeros.
  Rng rng(11);
  Vector in(30000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double mag = std::pow(10.0, rng.uniform(-12.0, 12.0));
    in[i] = (rng.uniform() < 0.5 ? -1.0 : 1.0) * mag;
    if (i % 97 == 0) in[i] = 0.0;
  }
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_LE(std::fabs(in[i] - out[i]), eb * std::fabs(in[i]) + 1e-300)
        << "index " << i << " value " << in[i];
}

TEST_P(SzPwRelBound, ZerosReconstructExactly) {
  const double eb = GetParam();
  SzLikeCompressor c(ErrorBound::pointwise_rel(eb));
  Vector in(1000, 0.0);
  in[500] = 3.5;
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i != 500) {
      ASSERT_EQ(out[i], 0.0);
    }
  }
}

TEST_P(SzPwRelBound, SignsArePreserved) {
  const double eb = GetParam();
  SzLikeCompressor c(ErrorBound::pointwise_rel(eb));
  Rng rng(3);
  Vector in(5000);
  for (auto& x : in) x = rng.uniform(-10.0, 10.0);
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != 0.0) {
      ASSERT_EQ(std::signbit(in[i]), std::signbit(out[i])) << "index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SzPwRelBound,
                         ::testing::Values(1e-3, 1e-4, 1e-5, 1e-6));

// ----- value-range relative --------------------------------------------------

TEST(SzValueRangeRel, BoundScalesWithRange) {
  const double eb = 1e-4;
  SzLikeCompressor c(ErrorBound::value_range_rel(eb));
  Vector in = smooth_field(10000);
  for (auto& x : in) x *= 1000.0;  // range ~2000
  const Vector out = roundtrip(c, in);
  const double range = 2000.0 * 1.01;
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_LE(std::fabs(in[i] - out[i]), eb * range);
}

TEST(SzValueRangeRel, ConstantDataCompressesMassively) {
  SzLikeCompressor c(ErrorBound::value_range_rel(1e-4));
  const Vector in(50000, 42.0);
  const auto stream = c.compress(in);
  // ~1 Huffman bit per element: ratio > 50x.
  EXPECT_LT(stream.size() * 50, in.size() * sizeof(double));
  Vector out(in.size());
  c.decompress(stream, out);
  for (const double x : out) ASSERT_NEAR(x, 42.0, 1e-4);
}

// ----- ratios (paper Table 3 expectations) --------------------------------------

TEST(SzRatio, SmoothSolverDataReachesHighRatio) {
  // Paper: SZ reduces checkpoints to ~1/20–1/60 of raw size on converged
  // solver vectors at eb = 1e-4.
  SzLikeCompressor c(ErrorBound::pointwise_rel(1e-4));
  const double r = compression_ratio(c, smooth_field(100000));
  EXPECT_GT(r, 15.0);
}

TEST(SzRatio, TighterBoundMeansLowerRatio) {
  const Vector v = noisy_field(50000, 9, 0.01);
  SzLikeCompressor loose(ErrorBound::pointwise_rel(1e-3));
  SzLikeCompressor tight(ErrorBound::pointwise_rel(1e-7));
  EXPECT_GT(compression_ratio(loose, v), compression_ratio(tight, v));
}

TEST(SzRatio, BeatsLosslessOnSolverData) {
  // The core claim motivating the paper: lossy ≫ lossless on these vectors.
  const Vector v = noisy_field(50000, 13, 1e-6);
  SzLikeCompressor sz(ErrorBound::pointwise_rel(1e-4));
  const auto gz = make_compressor("deflate");
  EXPECT_GT(compression_ratio(sz, v), 2.0 * compression_ratio(*gz, v));
}

// ----- robustness ---------------------------------------------------------------

TEST(SzRobustness, EmptyVector) {
  SzLikeCompressor c;
  const Vector in;
  const auto stream = c.compress(in);
  Vector out;
  c.decompress(stream, out);
}

TEST(SzRobustness, SingleElement) {
  SzLikeCompressor c(ErrorBound::pointwise_rel(1e-4));
  const Vector in{123.456};
  const Vector out = roundtrip(c, in);
  EXPECT_NEAR(out[0], in[0], 1e-4 * 123.456);
}

TEST(SzRobustness, NonFiniteValuesSurviveExactly) {
  SzLikeCompressor c(ErrorBound::pointwise_rel(1e-4));
  Vector in(100, 1.0);
  in[10] = std::numeric_limits<double>::infinity();
  in[20] = -std::numeric_limits<double>::infinity();
  in[30] = std::numeric_limits<double>::quiet_NaN();
  in[40] = std::numeric_limits<double>::denorm_min();
  const Vector out = roundtrip(c, in);
  EXPECT_TRUE(std::isinf(out[10]) && out[10] > 0);
  EXPECT_TRUE(std::isinf(out[20]) && out[20] < 0);
  EXPECT_TRUE(std::isnan(out[30]));
  EXPECT_EQ(out[40], std::numeric_limits<double>::denorm_min());
}

TEST(SzRobustness, ZeroErrorBoundIsLossless) {
  SzLikeCompressor c(ErrorBound::pointwise_rel(0.0));
  const Vector in = noisy_field(1000, 21, 0.3);
  EXPECT_EQ(roundtrip(c, in), in);
}

TEST(SzRobustness, BadMagicThrows) {
  SzLikeCompressor c;
  const Vector in = smooth_field(100);
  auto stream = c.compress(in);
  stream[0] ^= 0xff;
  Vector out(in.size());
  EXPECT_THROW(c.decompress(stream, out), corrupt_stream_error);
}

TEST(SzRobustness, TruncatedStreamThrows) {
  SzLikeCompressor c;
  const Vector in = smooth_field(5000);
  auto stream = c.compress(in);
  stream.resize(stream.size() / 3);
  Vector out(in.size());
  EXPECT_THROW(c.decompress(stream, out), corrupt_stream_error);
}

TEST(SzRobustness, SizeMismatchThrows) {
  SzLikeCompressor c;
  const Vector in = smooth_field(100);
  const auto stream = c.compress(in);
  Vector out(101);
  EXPECT_THROW(c.decompress(stream, out), corrupt_stream_error);
}

TEST(SzPointwiseRelative, SparseFieldCompressesFarBeyondOne) {
  // Regression for the ROADMAP open item: zeros used to be stored verbatim
  // (8 B each), pinning sparse fields at ratio ≈ 1. With the compact exact
  // encoding they cost ~0 bits, so a 98%-zero field compresses massively.
  SzLikeCompressor c(ErrorBound::pointwise_rel(1e-4));
  Rng rng(31);
  Vector in(1u << 16, 0.0);
  for (std::size_t i = 0; i < in.size() / 50; ++i)
    in[rng.uniform_index(in.size())] = rng.uniform(-5.0, 5.0);
  EXPECT_GT(compression_ratio(c, in), 10.0);
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_LE(std::fabs(in[i] - out[i]), 1e-4 * std::fabs(in[i]))
        << "index " << i;
}

TEST(SzPointwiseRelative, SignedZerosSurviveBitExactly) {
  SzLikeCompressor c(ErrorBound::pointwise_rel(1e-3));
  Vector in{0.0, -0.0, 1.25, -0.0, 0.0, -3.5, 0.0};
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == 0.0) {
      ASSERT_EQ(std::signbit(out[i]), std::signbit(in[i])) << "index " << i;
      ASSERT_EQ(out[i], 0.0) << "index " << i;
    }
  }
}

TEST(SzConfig, ErrorBoundIsMutable) {
  SzLikeCompressor c(ErrorBound::pointwise_rel(1e-4));
  c.set_error_bound(ErrorBound::pointwise_rel(1e-2));
  EXPECT_DOUBLE_EQ(c.error_bound().value, 1e-2);
  // Looser bound must not be violated either.
  const Vector in = smooth_field(1000);
  const Vector out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_LE(std::fabs(in[i] - out[i]), 1e-2 * std::fabs(in[i]) + 1e-300);
}

// ----- corrupt counts --------------------------------------------------------

TEST(CorruptCounts, OverwrittenCountsEndInCorruptStreamErrorOrADecode) {
  // Every u64 window of each stream overwritten with 2^36 in turn. A count
  // field that takes the value must be checked against the bytes left (or
  // against what the masks imply) before anything is sized by it, so the
  // decode completes or throws corrupt_stream_error — never std::bad_alloc
  // or std::length_error. The field has zeros of both signs, a subnormal
  // and spikes, so SZ stores outliers and the pointwise-relative streams an
  // exact array with values.
  Vector in(1000);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = std::sin(0.01 * static_cast<double>(i)) *
            (i % 97 == 0 ? 1e4 : 1.0);
  for (std::size_t i = 0; i < in.size(); i += 13) in[i] = 0.0;
  in[26] = -0.0;
  in[500] = std::numeric_limits<double>::denorm_min();

  std::vector<std::pair<std::string, ErrorBound>> cases;
  for (const char* name :
       {"none", "rle", "shuffle-rle", "deflate", "shuffle-deflate"})
    cases.emplace_back(name, ErrorBound{});
  for (const char* name : {"sz", "zfp", "trunc"})
    for (const ErrorBound eb :
         {ErrorBound::absolute(1e-6), ErrorBound::value_range_rel(1e-5),
          ErrorBound::pointwise_rel(1e-4)})
      cases.emplace_back(name, eb);

  const std::uint64_t count = std::uint64_t{1} << 36;
  for (const auto& [name, eb] : cases) {
    const auto comp = make_compressor(name, eb);
    const auto stream = comp->compress(in);
    for (std::size_t at = 0; at + sizeof count <= stream.size(); ++at) {
      auto bad = stream;
      std::memcpy(bad.data() + at, &count, sizeof count);
      Vector out(in.size());
      try {
        comp->decompress(bad, out);
      } catch (const corrupt_stream_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " mode " << static_cast<int>(eb.mode)
                      << ", 2^36 at offset " << at << ": " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace lck
