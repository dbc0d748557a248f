/// google-benchmark microbenchmarks for the compression stack: throughput
/// of each compressor on solver-like data, plus the Huffman core.

#include <benchmark/benchmark.h>

#include <cmath>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/lossless/byte_codecs.hpp"
#include "sparse/vector_ops.hpp"

namespace {

lck::Vector solver_like(std::size_t n) {
  lck::Rng rng(5);
  lck::Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.0005 * static_cast<double>(i)) + 2.0 +
           1e-6 * rng.uniform();
  return v;
}

void bm_compress(benchmark::State& state, const char* name) {
  const auto comp =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto stream = comp->compress(data);
    benchmark::DoNotOptimize(stream);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}

void bm_decompress(benchmark::State& state, const char* name) {
  const auto comp =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  const auto stream = comp->compress(data);
  lck::Vector out(data.size());
  for (auto _ : state) {
    comp->decompress(stream, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}

/// The 4-way interleaved symbol histogram vs the naive single-array loop.
/// Skewed input (most symbols equal) is the SZ common case and the worst
/// case for a single histogram array's store-to-load dependency chain.
void bm_histogram(benchmark::State& state, bool interleaved) {
  lck::Rng rng(9);
  std::vector<std::uint32_t> symbols(static_cast<std::size_t>(state.range(0)));
  for (auto& s : symbols)
    s = rng.uniform() < 0.9
            ? 32768u
            : static_cast<std::uint32_t>(rng.uniform() * 65536.0);
  for (auto _ : state) {
    if (interleaved) {
      auto freq = lck::count_frequencies(symbols, 65536);
      benchmark::DoNotOptimize(freq);
    } else {
      std::vector<std::uint64_t> freq(65536, 0);
      for (const auto s : symbols) ++freq[s];
      benchmark::DoNotOptimize(freq);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}

void bm_histogram_4way(benchmark::State& state) { bm_histogram(state, true); }
void bm_histogram_naive(benchmark::State& state) { bm_histogram(state, false); }

/// Tiled byte shuffle (the truncation/deflate/lz4 pre-pass).
void bm_shuffle(benchmark::State& state) {
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  const std::span<const lck::byte_t> bytes{
      reinterpret_cast<const lck::byte_t*>(data.data()), data.size() * 8};
  for (auto _ : state) {
    auto out = lck::shuffle_bytes(bytes, sizeof(double));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

void bm_huffman_encode(benchmark::State& state) {
  lck::Rng rng(9);
  std::vector<std::uint64_t> freqs(65536, 0);
  std::vector<std::uint32_t> symbols(1 << 16);
  for (auto& s : symbols) {
    s = 32768 + static_cast<std::uint32_t>(rng.normal(0.0, 40.0));
    ++freqs[s];
  }
  const auto lengths = lck::huffman_code_lengths(freqs);
  const lck::HuffmanEncoder enc(lengths);
  for (auto _ : state) {
    lck::BitWriter bw;
    for (const auto s : symbols) enc.encode(bw, s);
    auto out = bw.finish();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}

}  // namespace

BENCHMARK_CAPTURE(bm_compress, sz, "sz")->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_compress, zfp, "zfp")->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_compress, deflate, "deflate")->Arg(1 << 16);
BENCHMARK_CAPTURE(bm_compress, shuffle_rle, "shuffle-rle")->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, sz, "sz")->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, zfp, "zfp")->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, deflate, "deflate")->Arg(1 << 16);
BENCHMARK(bm_huffman_encode);
BENCHMARK(bm_histogram_4way)->Arg(1 << 22);
BENCHMARK(bm_histogram_naive)->Arg(1 << 22);
BENCHMARK(bm_shuffle)->Arg(1 << 16)->Arg(1 << 20);

BENCHMARK_MAIN();
