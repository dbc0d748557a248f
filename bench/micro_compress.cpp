/// google-benchmark microbenchmarks for the compression stack: throughput
/// of each compressor on solver-like data, deflate on near-incompressible
/// data, the bit writer, the Huffman core and SZ's per-chunk table steps,
/// and the CRC-32 and CRC-64 that check and address every checkpoint byte.

#include <benchmark/benchmark.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/chunk/chunk_hash.hpp"
#include "common/crc32.hpp"
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

/// Standard normals: close to incompressible, like a CG iterate's bytes, so
/// deflate spends its time in the match finder, not the entropy stage.
lck::Vector standard_normals(std::size_t n) {
  lck::Rng rng(7);
  lck::Vector v(n);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

using Field = lck::Vector (*)(std::size_t);

void bm_compress(benchmark::State& state, const char* name, Field field) {
  const auto comp =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = field(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto stream = comp->compress(data);
    benchmark::DoNotOptimize(stream);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}

void bm_decompress(benchmark::State& state, const char* name, Field field) {
  const auto comp =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = field(static_cast<std::size_t>(state.range(0)));
  const auto stream = comp->compress(data);
  lck::Vector out(data.size());
  for (auto _ : state) {
    comp->decompress(stream, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}

/// The 8-way interleaved symbol histogram vs the naive single-array loop.
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

/// Tiled byte shuffle (the pre-pass of truncation, shuffle-rle and
/// shuffle-deflate).
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

/// `n` quantization-code-like symbols over SZ's 65,536-symbol alphabet.
std::vector<std::uint32_t> huffman_symbols(std::size_t n = 1 << 16) {
  lck::Rng rng(9);
  std::vector<std::uint32_t> symbols(n);
  for (auto& s : symbols)
    s = 32768 + static_cast<std::uint32_t>(rng.normal(0.0, 40.0));
  return symbols;
}

std::vector<std::uint8_t> huffman_lengths(
    const std::vector<std::uint32_t>& symbols) {
  return lck::huffman_code_lengths(lck::count_frequencies(symbols, 65536));
}

void bm_huffman_encode(benchmark::State& state) {
  const auto symbols = huffman_symbols();
  const auto lengths = huffman_lengths(symbols);
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

/// BitWriter alone on two write patterns: one-bit writes, 2^19 of them, as
/// a coder emitting a bit plane bit by bit makes them (no codec here does:
/// the log transform's sign and zero bitsets pack their own bytes), and
/// writes as wide as the Huffman codes of 65,536 SZ-like symbols. The
/// values carry random bits above their width, which the writer drops.
void bm_bitwriter(benchmark::State& state, bool one_bit) {
  const auto symbols = huffman_symbols();
  const auto lengths = huffman_lengths(symbols);
  std::vector<std::uint64_t> values(one_bit ? 8 * symbols.size()
                                            : symbols.size());
  lck::Rng rng(13);
  for (auto& v : values) v = rng();
  for (auto _ : state) {
    lck::BitWriter bw;
    if (one_bit) {
      for (const auto v : values) bw.write_bit(static_cast<unsigned>(v));
    } else {
      for (std::size_t i = 0; i < values.size(); ++i)
        bw.write_bits(values[i], lengths[symbols[i]]);
    }
    auto out = bw.finish();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}

/// Decoder construction from the 65,536-entry length table plus one decode
/// per symbol: the per-chunk work of an SZ decompression's entropy stage.
void bm_huffman_decode(benchmark::State& state) {
  const auto symbols = huffman_symbols();
  const auto lengths = huffman_lengths(symbols);
  const lck::HuffmanEncoder enc(lengths);
  lck::BitWriter bw;
  for (const auto s : symbols) enc.encode(bw, s);
  const auto payload = bw.finish();
  for (auto _ : state) {
    const lck::HuffmanDecoder dec(lengths);
    lck::BitReader br(payload);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < symbols.size(); ++i) sum += dec.decode(br);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}

/// The table steps of one SZ chunk's encode, one row each, on 4,096
/// quantization-code-like symbols (a few hundred distinct) over the
/// 65,536-symbol alphabet. `count_frequencies` is the one step still sized
/// by the alphabet; the others pay per symbol present.
struct SzTable {
  std::vector<std::uint32_t> symbols = huffman_symbols(4096);
  std::vector<std::uint64_t> freqs = lck::count_frequencies(symbols, 65536);
  std::vector<std::uint8_t> lengths = lck::huffman_code_lengths(freqs);
};

template <class Step>
void bm_sz_tables(benchmark::State& state, Step step) {
  const SzTable table;
  for (auto _ : state) {
    auto out = step(table);
    benchmark::DoNotOptimize(out);
  }
}

auto frequencies_step(const SzTable& t) {
  return lck::count_frequencies(t.symbols, 65536);
}
auto lengths_step(const SzTable& t) {
  return lck::huffman_code_lengths(t.freqs);
}
auto encoder_step(const SzTable& t) { return lck::HuffmanEncoder(t.lengths); }
auto writer_step(const SzTable& t) {
  lck::ByteWriter w;
  lck::write_code_lengths(w, t.lengths);
  return std::move(w).take();
}

/// One checksum over random bytes.
template <class Crc>
void bm_crc(benchmark::State& state) {
  lck::Rng rng(11);
  std::vector<lck::byte_t> bytes(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bytes) b = static_cast<lck::byte_t>(rng());
  for (auto _ : state) {
    Crc crc;
    crc.update(bytes);
    auto value = crc.value();
    benchmark::DoNotOptimize(value);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

void bm_crc32(benchmark::State& state) { bm_crc<lck::Crc32>(state); }
void bm_crc64(benchmark::State& state) { bm_crc<lck::Crc64>(state); }

}  // namespace

// 4,096 elements is the delta chunk, 13,824 one 24^3 solver vector: the
// sizes the checkpoint pipeline hands each codec call.
BENCHMARK_CAPTURE(bm_compress, sz, "sz", solver_like)
    ->Arg(4096)->Arg(13824)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_compress, zfp, "zfp", solver_like)
    ->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_compress, deflate, "deflate", solver_like)
    ->Arg(4096)->Arg(13824)->Arg(1 << 16);
BENCHMARK_CAPTURE(bm_compress, deflate_normal, "deflate", standard_normals)
    ->Arg(13824);
BENCHMARK_CAPTURE(bm_compress, shuffle_rle, "shuffle-rle", solver_like)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, sz, "sz", solver_like)
    ->Arg(4096)->Arg(13824)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, zfp, "zfp", solver_like)
    ->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, deflate, "deflate", solver_like)
    ->Arg(4096)->Arg(13824)->Arg(1 << 16);
BENCHMARK_CAPTURE(bm_decompress, deflate_normal, "deflate", standard_normals)
    ->Arg(13824);
BENCHMARK_CAPTURE(bm_bitwriter, one_bit, true);
BENCHMARK_CAPTURE(bm_bitwriter, huffman_width, false);
BENCHMARK(bm_huffman_encode);
BENCHMARK(bm_huffman_decode);
BENCHMARK_CAPTURE(bm_sz_tables, count_frequencies, frequencies_step);
BENCHMARK_CAPTURE(bm_sz_tables, huffman_code_lengths, lengths_step);
BENCHMARK_CAPTURE(bm_sz_tables, HuffmanEncoder, encoder_step);
BENCHMARK_CAPTURE(bm_sz_tables, write_code_lengths, writer_step);
BENCHMARK(bm_histogram_4way)->Arg(1 << 22);
BENCHMARK(bm_histogram_naive)->Arg(1 << 22);
BENCHMARK(bm_shuffle)->Arg(1 << 16)->Arg(1 << 20);
// 32,768 bytes is one 4,096-element delta chunk, 110,592 one 24^3 vector.
BENCHMARK(bm_crc32)->Arg(32768)->Arg(110592);
BENCHMARK(bm_crc64)->Arg(32768)->Arg(110592);

BENCHMARK_MAIN();
