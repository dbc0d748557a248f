/// Block (chunk) compression inside the checkpoint format: a vector is cut
/// into kChunkElems chunks in a full checkpoint and into the delta chunk
/// size in delta mode, and each chunk is compressed on its own, in
/// parallel. Round trips across every factory compressor × error-bound
/// mode × chunk-boundary sizes with per-element error-bound checks, decoded
/// values equal to single-shot codec calls on each chunk's slice,
/// per-chunk CRC corruption detection, and one codec instance shared by
/// two threads, as a checkpoint's lanes share it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <thread>
#include <tuple>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/frame_stream.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"

namespace lck {
namespace {

// Delta chunk size: small, so modest vectors span several chunks.
constexpr std::size_t kChunk = 256;

Vector solver_like(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.01 * static_cast<double>(i)) + 2.0 +
           1e-6 * rng.uniform(-1.0, 1.0);
  return v;
}

void expect_bound_holds(const Vector& in, const Vector& out, ErrorBound eb) {
  ASSERT_EQ(in.size(), out.size());
  // Value-range-relative codecs see per-chunk ranges, never larger than the
  // global one, so the global range is the correct (weakest) guarantee.
  double range = 0.0;
  if (!in.empty()) {
    const auto [lo, hi] = std::minmax_element(in.begin(), in.end());
    range = *hi - *lo;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double err = std::fabs(in[i] - out[i]);
    switch (eb.mode) {
      case ErrorBound::Mode::kAbsolute:
        ASSERT_LE(err, eb.value + 1e-300) << "index " << i;
        break;
      case ErrorBound::Mode::kValueRangeRelative:
        ASSERT_LE(err, eb.value * range + 1e-300) << "index " << i;
        break;
      case ErrorBound::Mode::kPointwiseRelative:
        ASSERT_LE(err, eb.value * std::fabs(in[i]) + 1e-300) << "index " << i;
        break;
    }
  }
}

ErrorBound bound(ErrorBound::Mode mode) {
  ErrorBound eb;
  eb.mode = mode;
  eb.value = mode == ErrorBound::Mode::kAbsolute ? 1e-4 : 1e-5;
  return eb;
}

using BoundCase = std::tuple<const char*, ErrorBound::Mode>;

class ChunkBoundaryRoundTrip : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ChunkBoundaryRoundTrip, EveryElementKeepsItsBound) {
  const auto [name, mode] = GetParam();
  const ErrorBound eb = bound(mode);
  const auto comp = make_compressor(name, eb);
  struct Size {
    std::size_t n;
    bool delta;
  };
  const Size sizes[] = {{0, true},
                        {1, true},
                        {97, true},
                        {kChunk - 1, true},
                        {kChunk, true},
                        {kChunk + 1, true},
                        {3 * kChunk - 1, true},
                        {3 * kChunk, true},
                        {3 * kChunk + 1, true},
                        {1000, true},
                        {kChunkElems + 1, false}};
  for (const Size s : sizes) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + (s.delta ? " delta" : " full"));
    CheckpointManager mgr(std::make_unique<MemoryStore>(), comp.get());
    if (s.delta) mgr.set_delta(4, kChunk);
    Vector x = solver_like(s.n, s.n + 1);
    const Vector in = x;
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    x.assign(s.n + 3, -999.0);  // wrong size too: recover must resize
    mgr.recover();
    if (comp->lossy())
      expect_bound_holds(in, x, eb);
    else
      EXPECT_EQ(in, x);  // lossless codecs: bit-identical
  }
}

TEST_P(ChunkBoundaryRoundTrip, MatchesSingleShotCodecOutputPerChunk) {
  // Each chunk's payload is the codec's own stream for that slice, so the
  // recovered values must equal single-shot decoding slice by slice, bit
  // for bit, even for lossy codecs.
  const auto [name, mode] = GetParam();
  const auto comp = make_compressor(name, bound(mode));
  struct Case {
    std::size_t n;
    std::size_t chunk;  // 0: full checkpoint, kChunkElems chunks
  };
  for (const Case c : {Case{kChunk, kChunk}, Case{3 * kChunk + 1, kChunk},
                       Case{2 * kChunkElems + 7, 0}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 (c.chunk != 0 ? " delta" : " full"));
    CheckpointManager mgr(std::make_unique<MemoryStore>(), comp.get());
    if (c.chunk != 0) mgr.set_delta(4, c.chunk);
    Vector x = solver_like(c.n, 42 + c.n);
    const ChunkGeometry geo(c.n, c.chunk != 0 ? c.chunk : kChunkElems);
    Vector expected(c.n);
    for (std::size_t k = 0; k < geo.count(); ++k) {
      const std::span<const double> in(x.data() + geo.begin(k),
                                       geo.length(k));
      comp->decompress(comp->compress(in), std::span<double>(
                                               expected.data() + geo.begin(k),
                                               geo.length(k)));
    }
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    x.assign(c.n, 0.0);
    mgr.recover();
    EXPECT_EQ(x, expected);
  }
}

TEST_P(ChunkBoundaryRoundTrip, CrcDetectsCorruptionInEveryChunk) {
  const auto [name, mode] = GetParam();
  const auto comp = make_compressor(name, bound(mode));
  constexpr std::size_t kChunks = 4;
  const Vector in = solver_like(kChunks * kChunkElems, 3);
  std::vector<byte_t> good;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), comp.get());
    Vector x = in;
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    good = store_raw->read(0);
  }
  const auto payloads = chunk_payloads(good);
  ASSERT_TRUE(payloads.has_value());
  ASSERT_EQ(payloads->size(), kChunks);

  // Flip one bit in the middle of each chunk's payload.
  for (std::size_t k = 0; k < kChunks; ++k) {
    const std::span<const byte_t> p = (*payloads)[k];
    ASSERT_FALSE(p.empty());
    auto bad = good;
    bad[static_cast<std::size_t>(p.data() - good.data()) + p.size() / 2] ^=
        0x10;
    auto store = std::make_unique<MemoryStore>();
    store->write(0, bad);
    CheckpointManager mgr(std::move(store), comp.get());
    Vector x(in.size(), 0.0);
    mgr.protect(0, "x", &x);
    EXPECT_THROW(mgr.recover(), corrupt_stream_error)
        << "corruption in chunk " << k << " undetected";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ChunkBoundaryRoundTrip,
    ::testing::Combine(
        ::testing::Values("none", "rle", "shuffle-rle", "deflate",
                          "shuffle-deflate", "sz", "zfp", "trunc"),
        ::testing::Values(ErrorBound::Mode::kAbsolute,
                          ErrorBound::Mode::kValueRangeRelative,
                          ErrorBound::Mode::kPointwiseRelative)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      switch (std::get<1>(info.param)) {
        case ErrorBound::Mode::kAbsolute: return name + "_abs";
        case ErrorBound::Mode::kValueRangeRelative: return name + "_vrr";
        case ErrorBound::Mode::kPointwiseRelative: return name + "_pwr";
      }
      return name;
    });

// ----- one codec, two threads -----------------------------------------------

TEST(SharedCodec, TwoThreadsGetTheOneThreadResults) {
  // A checkpoint compresses the chunks of every vector on several lanes
  // through the manager's one codec instance, so compress() and
  // decompress() must write nothing shared: two threads, each with its own
  // input, must get the streams and values of a one-thread run.
  struct Result {
    std::vector<byte_t> stream;
    Vector out;
  };
  const Vector inputs[2] = {solver_like(4096, 1), solver_like(13824, 2)};
  for (const char* name : {"none", "rle", "shuffle-rle", "deflate",
                           "shuffle-deflate", "sz", "zfp", "trunc"}) {
    for (const auto mode : {ErrorBound::Mode::kAbsolute,
                            ErrorBound::Mode::kValueRangeRelative,
                            ErrorBound::Mode::kPointwiseRelative}) {
      SCOPED_TRACE(std::string(name) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      const auto codec = make_compressor(name, bound(mode));
      const auto run = [&](const Vector& in) {
        Result r{codec->compress(in), Vector(in.size())};
        codec->decompress(r.stream, r.out);
        return r;
      };
      const Result want[2] = {run(inputs[0]), run(inputs[1])};
      Result got[2];
      std::latch start(2);
      const auto lane = [&](int k) {
        start.arrive_and_wait();
        got[k] = run(inputs[k]);
      };
      std::thread a(lane, 0);
      std::thread b(lane, 1);
      a.join();
      b.join();
      for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(got[k].stream, want[k].stream) << "input " << k;
        EXPECT_EQ(got[k].out, want[k].out) << "input " << k;
      }
    }
  }
}

}  // namespace
}  // namespace lck
