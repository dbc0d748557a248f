/// Canonical Huffman coder tests: optimality properties, round trips over
/// skewed and uniform distributions, table serialization.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <numeric>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"

namespace lck {
namespace {

/// Kraft sum Σ 2^-len must equal 1 for a complete prefix code (≤ 1 always).
double kraft_sum(std::span<const std::uint8_t> lengths) {
  double s = 0.0;
  for (const auto l : lengths)
    if (l > 0) s += std::ldexp(1.0, -static_cast<int>(l));
  return s;
}

std::vector<std::uint32_t> roundtrip(std::span<const std::uint8_t> lengths,
                                     std::span<const std::uint32_t> symbols) {
  const HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (const auto s : symbols) enc.encode(bw, s);
  const auto buf = bw.finish();
  const HuffmanDecoder dec(lengths);
  BitReader br(buf);
  std::vector<std::uint32_t> out;
  out.reserve(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) out.push_back(dec.decode(br));
  return out;
}

TEST(Huffman, LengthsSatisfyKraft) {
  std::vector<std::uint64_t> freqs{10, 1, 1, 5, 30, 0, 2};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_NEAR(kraft_sum(lengths), 1.0, 1e-12);
  EXPECT_EQ(lengths[5], 0);  // zero-frequency symbol gets no code
}

TEST(Huffman, MoreFrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs{1000, 100, 10, 1};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs{0, 0, 42, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[2], 1);
  std::vector<std::uint32_t> syms(100, 2);
  EXPECT_EQ(roundtrip(lengths, syms), syms);
}

TEST(Huffman, TwoSymbolRoundTrip) {
  std::vector<std::uint64_t> freqs{3, 7};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
  std::vector<std::uint32_t> syms{0, 1, 1, 0, 1, 1, 1, 0};
  EXPECT_EQ(roundtrip(lengths, syms), syms);
}

TEST(Huffman, ExtremeSkewRespectsMaxLength) {
  // Fibonacci-like frequencies force deep optimal trees; the builder must
  // flatten them to kHuffmanMaxBits.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const auto next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  for (const auto l : lengths) EXPECT_LE(l, kHuffmanMaxBits);
  EXPECT_LE(kraft_sum(lengths), 1.0 + 1e-12);
}

class HuffmanDistribution
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(HuffmanDistribution, RandomStreamRoundTrip) {
  const auto [alphabet, skew] = GetParam();
  Rng rng(99);
  // Zipf-ish frequencies with the given skew.
  std::vector<std::uint64_t> freqs(alphabet);
  for (std::size_t s = 0; s < alphabet; ++s)
    freqs[s] = static_cast<std::uint64_t>(
        1000.0 / std::pow(static_cast<double>(s + 1), skew)) + 1;

  // Sample a stream following those frequencies.
  std::vector<std::uint32_t> cumulative;
  std::uint64_t total = 0;
  for (const auto f : freqs) {
    total += f;
    cumulative.push_back(static_cast<std::uint32_t>(total));
  }
  std::vector<std::uint32_t> stream(5000);
  for (auto& s : stream) {
    const auto u = rng.uniform_index(total);
    s = static_cast<std::uint32_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u + 1) -
        cumulative.begin());
  }

  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(roundtrip(lengths, stream), stream);
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndSkews, HuffmanDistribution,
    ::testing::Values(std::pair<std::size_t, double>{2, 0.0},
                      std::pair<std::size_t, double>{16, 1.0},
                      std::pair<std::size_t, double>{256, 1.5},
                      std::pair<std::size_t, double>{1024, 0.5},
                      std::pair<std::size_t, double>{65536, 2.0}));

TEST(Huffman, CodeLengthSerializationRoundTrip) {
  std::vector<std::uint64_t> freqs(300, 0);
  freqs[0] = 100;
  freqs[7] = 50;
  freqs[255] = 10;
  freqs[299] = 1;
  const auto lengths = huffman_code_lengths(freqs);

  ByteWriter w;
  write_code_lengths(w, lengths);
  const auto buf = std::move(w).take();
  ByteReader r(buf);
  const auto restored = read_code_lengths(r, lengths.size());
  EXPECT_EQ(std::vector<std::uint8_t>(lengths.begin(), lengths.end()),
            restored);
}

TEST(Huffman, SerializationZeroRunsAreCompact) {
  // 65536-symbol alphabet with 3 used symbols must serialize to well under
  // a kilobyte (zero-run coding), not 64 KiB.
  std::vector<std::uint64_t> freqs(65536, 0);
  freqs[1] = 5;
  freqs[32768] = 5;
  freqs[65535] = 2;
  const auto lengths = huffman_code_lengths(freqs);
  ByteWriter w;
  write_code_lengths(w, lengths);
  EXPECT_LT(w.size(), 64u);
}

TEST(Huffman, SerializationAlphabetMismatchThrows) {
  std::vector<std::uint64_t> freqs{1, 2, 3};
  const auto lengths = huffman_code_lengths(freqs);
  ByteWriter w;
  write_code_lengths(w, lengths);
  const auto buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_THROW(read_code_lengths(r, 4), corrupt_stream_error);
}

TEST(Huffman, DecoderRejectsGarbage) {
  std::vector<std::uint64_t> freqs{5, 5, 5};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanDecoder dec(lengths);
  // An all-ones stream longer than any valid code must eventually throw
  // (either invalid code or bit exhaustion).
  std::vector<byte_t> garbage(1, 0xff);
  BitReader br(garbage);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) (void)dec.decode(br);
      },
      corrupt_stream_error);
}

/// The canonical walk, one bit per code length, kept here as the reference
/// for the table-driven decoder: the shortest length whose canonical code
/// range holds the prefix wins, with the same 32-bit code arithmetic.
class ReferenceWalk {
 public:
  explicit ReferenceWalk(std::span<const std::uint8_t> lengths) {
    for (const auto l : lengths) max_len_ = std::max<unsigned>(max_len_, l);
    for (unsigned len = 1; len <= max_len_; ++len)
      for (std::size_t s = 0; s < lengths.size(); ++s)
        if (lengths[s] == len) by_len_[len].push_back(static_cast<std::uint32_t>(s));
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code + static_cast<std::uint32_t>(by_len_[len - 1].size())) << 1;
      first_[len] = code;
    }
  }

  std::uint32_t decode(BitReader& br) const {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code << 1) | br.read_bit();
      const auto count = static_cast<std::uint32_t>(by_len_[len].size());
      if (count != 0 && code >= first_[len] && code < first_[len] + count)
        return by_len_[len][code - first_[len]];
    }
    throw corrupt_stream_error("reference: invalid code");
  }

 private:
  unsigned max_len_ = 0;
  std::array<std::vector<std::uint32_t>, kHuffmanMaxBits + 1> by_len_;
  std::array<std::uint32_t, kHuffmanMaxBits + 1> first_{};
};

TEST(Huffman, TableDecoderMatchesCanonicalWalk) {
  // Complete sets from the builder, the same sets with codes removed
  // (incomplete), and uniformly random lengths (mostly over-subscribed),
  // with longest codes of 1 to 24 bits, fed random bits and valid streams
  // cut short. Every symbol, every consumed bit and every throw must agree.
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng(seed);
    const unsigned longest = 1 + static_cast<unsigned>((seed - 1) % kHuffmanMaxBits);
    const std::size_t alphabet =
        seed % 40 == 0 ? 65536 : 2 + rng.uniform_index(700);
    std::vector<std::uint8_t> lengths(alphabet, 0);
    const auto kind = (seed / kHuffmanMaxBits) % 3;
    if (kind == 2) {
      for (auto& l : lengths)
        if (rng.uniform_index(4) != 0)
          l = static_cast<std::uint8_t>(1 + rng.uniform_index(longest));
    } else {
      // Geometric frequencies whose tail reaches about `longest` bits.
      std::vector<std::uint64_t> freqs(alphabet, 0);
      for (std::size_t s = 0; s < alphabet; ++s)
        if (s < 4 || rng.uniform_index(3) == 0)
          freqs[s] = 1 + (std::uint64_t{1} << (rng.uniform_index(longest) + 1)) +
                     rng.uniform_index(8);
      lengths = huffman_code_lengths(freqs);
      if (kind == 1)
        for (auto& l : lengths)
          if (rng.uniform_index(5) == 0) l = 0;
    }
    const HuffmanDecoder dec(lengths);
    const ReferenceWalk ref(lengths);

    std::vector<std::vector<byte_t>> streams;
    for (int k = 0; k < 4; ++k) {
      std::vector<byte_t> bytes(rng.uniform_index(48));
      for (auto& b : bytes) b = static_cast<byte_t>(rng());
      streams.push_back(std::move(bytes));
    }
    if (kind != 2) {
      const HuffmanEncoder enc(lengths);
      std::vector<std::uint32_t> coded;
      for (std::size_t s = 0; s < alphabet; ++s)
        if (lengths[s] != 0) coded.push_back(static_cast<std::uint32_t>(s));
      BitWriter bw;
      for (int k = 0; k < 200 && !coded.empty(); ++k)
        enc.encode(bw, coded[rng.uniform_index(coded.size())]);
      auto valid = bw.finish();
      streams.push_back(valid);
      valid.resize(valid.size() / 2);
      streams.push_back(valid);
    }
    for (const auto& bytes : streams) {
      BitReader a(bytes), b(bytes);
      for (int call = 0;; ++call) {
        std::uint32_t got = 0, expect = 0;
        bool threw = false, ref_threw = false;
        try {
          got = dec.decode(a);
        } catch (const corrupt_stream_error&) {
          threw = true;
        }
        try {
          expect = ref.decode(b);
        } catch (const corrupt_stream_error&) {
          ref_threw = true;
        }
        ASSERT_EQ(threw, ref_threw) << "seed " << seed << " call " << call;
        if (threw) break;
        ASSERT_EQ(got, expect) << "seed " << seed << " call " << call;
        ASSERT_EQ(a.bits_remaining(), b.bits_remaining()) << "seed " << seed;
      }
    }
  }
}

TEST(Huffman, DecoderRejectsOverlongLength) {
  const std::vector<std::uint8_t> lengths{1, kHuffmanMaxBits + 1};
  EXPECT_THROW(HuffmanDecoder{lengths}, corrupt_stream_error);
}

TEST(EntropyStreams, EveryTruncationThrows) {
  // Cutting a valid stream short anywhere, in the tables or the bit
  // payload, must surface as corrupt_stream_error, never as a bad read.
  // Every fourth value is nonzero, so deflate codes the stream with
  // Huffman tables rather than storing it.
  Rng rng(3);
  std::vector<double> v(600, 0.0);
  for (std::size_t i = 0; i < v.size(); i += 4)
    v[i] = std::sin(0.01 * static_cast<double>(i)) + 1e-3 * rng.normal();
  for (const char* name : {"sz", "deflate"}) {
    const auto comp = make_compressor(name, ErrorBound::pointwise_rel(1e-4));
    const auto stream = comp->compress(v);
    std::vector<double> out(v.size());
    comp->decompress(stream, out);
    for (std::size_t len = 0; len < stream.size(); ++len)
      EXPECT_THROW(comp->decompress({stream.data(), len}, out),
                   corrupt_stream_error)
          << name << " cut at " << len << " of " << stream.size();
  }
}

TEST(Huffman, CompressionBeatsFixedWidthOnSkewedData) {
  // Entropy check: heavily skewed stream should cost far fewer bits than
  // the fixed-width encoding.
  std::vector<std::uint64_t> freqs{9000, 500, 300, 150, 50};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    for (std::uint64_t i = 0; i < freqs[s]; ++i)
      enc.encode(bw, static_cast<std::uint32_t>(s));
  const double fixed_bits = 10000.0 * 3;  // 5 symbols => 3 bits fixed
  EXPECT_LT(static_cast<double>(bw.bit_count()), 0.6 * fixed_bits);
}

}  // namespace
}  // namespace lck
