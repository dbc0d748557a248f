/// Canonical Huffman coder tests: optimality properties, round trips over
/// skewed and uniform distributions, table serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <queue>
#include <string>
#include <utility>

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

// ----- the alphabet-walking reference -------------------------------------
// The tree builder, code assignment and table writer as they were when each
// walked the whole alphabet, kept as the reference for the ones that touch
// only the symbols present: same lengths, same code bits, same table bytes.

namespace reference {

std::vector<std::uint8_t> lengths_once(std::span<const std::uint64_t> freqs) {
  const std::size_t n = freqs.size();
  struct Node {
    std::uint64_t freq;
    std::int32_t left, right;  // -1 for leaves
    std::uint32_t symbol;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n);
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<std::uint32_t>(s)});
    heap.emplace(freqs[s], static_cast<std::uint32_t>(nodes.size() - 1));
  }
  std::vector<std::uint8_t> lengths(n, 0);
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[nodes[0].symbol] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, static_cast<std::int32_t>(a),
                     static_cast<std::int32_t>(b), 0});
    heap.emplace(fa + fb, static_cast<std::uint32_t>(nodes.size() - 1));
  }
  struct Frame {
    std::uint32_t node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{static_cast<std::uint32_t>(nodes.size() - 1), 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[idx];
    if (nd.left < 0) {
      lengths[nd.symbol] = std::max<std::uint8_t>(depth, 1);
    } else {
      stack.push_back({static_cast<std::uint32_t>(nd.left),
                       static_cast<std::uint8_t>(depth + 1)});
      stack.push_back({static_cast<std::uint32_t>(nd.right),
                       static_cast<std::uint8_t>(depth + 1)});
    }
  }
  return lengths;
}

/// Also reports how many trees it built: more than one means the halving
/// retry ran.
std::vector<std::uint8_t> code_lengths(std::span<const std::uint64_t> freqs,
                                       int& attempts) {
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  for (attempts = 1; attempts <= 64; ++attempts) {
    auto lengths = lengths_once(f);
    if (*std::max_element(lengths.begin(), lengths.end()) <= kHuffmanMaxBits)
      return lengths;
    for (auto& x : f)
      if (x > 0) x = (x + 1) / 2;
  }
  throw corrupt_stream_error("reference: failed to limit code length");
}

std::vector<std::uint32_t> codes(std::span<const std::uint8_t> lengths) {
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  std::vector<std::uint32_t> count(kHuffmanMaxBits + 1, 0);
  for (const auto l : lengths) ++count[l];
  count[0] = 0;
  std::vector<std::uint32_t> next(kHuffmanMaxBits + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kHuffmanMaxBits; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] != 0) codes[s] = next[lengths[s]]++;
  return codes;
}

std::vector<byte_t> table_bytes(std::span<const std::uint8_t> lengths) {
  ByteWriter out;
  out.put(static_cast<std::uint32_t>(lengths.size()));
  std::size_t i = 0;
  while (i < lengths.size()) {
    if (lengths[i] == 0) {
      std::size_t run = 0;
      while (i + run < lengths.size() && lengths[i + run] == 0 && run < 0xffff)
        ++run;
      out.put(static_cast<std::uint8_t>(0));
      out.put(static_cast<std::uint16_t>(run));
      i += run;
    } else {
      out.put(lengths[i]);
      ++i;
    }
  }
  return std::move(out).take();
}

}  // namespace reference

std::vector<byte_t> table_bytes(std::span<const std::uint8_t> lengths) {
  ByteWriter out;
  write_code_lengths(out, lengths);
  return std::move(out).take();
}

/// Lengths, the code bits of every present symbol and the table bytes all
/// equal the reference's; returns how many trees the reference built.
int expect_matches_reference(std::span<const std::uint64_t> freqs,
                             const std::string& what) {
  SCOPED_TRACE(what);
  int attempts = 0;
  const auto ref = reference::code_lengths(freqs, attempts);
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths, ref);
  // Each present symbol once, in symbol order: with equal lengths, equal
  // bit streams mean equal codes.
  const auto ref_codes = reference::codes(ref);
  const HuffmanEncoder enc(lengths);
  BitWriter got, expect;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    if (ref[s] == 0) continue;
    enc.encode(got, static_cast<std::uint32_t>(s));
    expect.write_bits(ref_codes[s], ref[s]);
  }
  EXPECT_EQ(got.bit_count(), expect.bit_count());
  EXPECT_EQ(got.finish(), expect.finish());
  EXPECT_EQ(table_bytes(lengths), reference::table_bytes(ref));
  return attempts;
}

TEST(HuffmanReference, SzLikeTablesMatch) {
  // Quantization codes of a 4,096- to 16,384-value chunk, Gaussian around
  // SZ's zero code 32,768, counted by the dispatched histogram kernels;
  // the spread sets how many of the 65,536 symbols occur.
  constexpr std::size_t kAlphabet = 65536;
  std::size_t fewest = kAlphabet, most = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    const double sigma =
        seed == 1 ? 0.0 : std::pow(10.0, rng.uniform(-0.5, 2.8));
    std::vector<std::uint32_t> symbols(4096 << (seed % 3));
    for (auto& x : symbols)
      x = static_cast<std::uint32_t>(std::clamp(
          std::lround(32768.0 + rng.normal(0.0, sigma)), 0L, 65535L));
    const auto freqs = count_frequencies(symbols, kAlphabet);
    const auto present = static_cast<std::size_t>(
        std::count_if(freqs.begin(), freqs.end(),
                      [](std::uint64_t f) { return f != 0; }));
    fewest = std::min(fewest, present);
    most = std::max(most, present);
    expect_matches_reference(freqs, "seed " + std::to_string(seed) + ", " +
                                        std::to_string(present) + " present");
  }
  EXPECT_EQ(fewest, 1u);
  EXPECT_GE(most, 2000u);
  EXPECT_LE(most, 3000u);
}

TEST(HuffmanReference, EdgeTablesMatch) {
  std::vector<std::uint64_t> freqs(65536, 0);
  expect_matches_reference(freqs, "empty");
  freqs[0] = 5;
  expect_matches_reference(freqs, "one symbol at 0");
  freqs[0] = 0;
  freqs[65535] = 1;
  expect_matches_reference(freqs, "one symbol at 65535");
  freqs[0] = 7;
  expect_matches_reference(freqs, "symbols 0 and 65535");
  expect_matches_reference(std::vector<std::uint64_t>{3, 3},
                           "two symbols, equal counts");
  expect_matches_reference(std::vector<std::uint64_t>{0, 9, 0, 1, 0},
                           "two symbols among five");
}

TEST(HuffmanReference, HalvingRetryMatches) {
  // Fibonacci counts build a tree one level deeper per symbol, so 30 or
  // more of them exceed kHuffmanMaxBits and take the halving retry, both
  // packed at the start of an alphabet and scattered across SZ's.
  for (const std::size_t count : {30u, 40u, 60u}) {
    std::vector<std::uint64_t> fib(count);
    std::uint64_t a = 1, b = 1;
    for (auto& f : fib) {
      f = a;
      b = std::exchange(a, b) + b;
    }
    const std::string name = std::to_string(count) + " Fibonacci counts";
    EXPECT_GT(expect_matches_reference(fib, name + ", packed"), 1);
    std::vector<std::uint64_t> scattered(65536, 0);
    for (std::size_t k = 0; k < count; ++k) scattered[k * 1087 + 3] = fib[k];
    EXPECT_GT(expect_matches_reference(scattered, name + ", scattered"), 1);
  }
}

TEST(HuffmanReference, ZeroRunsAtTheTokenCapMatch) {
  // Runs just under, at and past the 0xffff cap of one zero-run token,
  // starting at every offset mod 8, ending at the table's end or before
  // a code, so the cap falls at every position within an 8-byte step.
  for (std::size_t run = 65534; run <= 65537; ++run)
    for (std::size_t start = 0; start < 8; ++start)
      for (std::size_t after = 0; after <= 9; after += 3) {
        std::vector<std::uint8_t> lengths(start + run + after, 3);
        std::fill_n(lengths.begin() + static_cast<std::ptrdiff_t>(start), run,
                    std::uint8_t{0});
        const auto bytes = table_bytes(lengths);
        ASSERT_EQ(bytes, reference::table_bytes(lengths))
            << "run " << run << " from " << start << ", " << after << " after";
        ByteReader r(bytes);
        ASSERT_EQ(read_code_lengths(r, lengths.size()), lengths);
      }
}

TEST(HuffmanReference, DeflateAlphabetsMatch) {
  // 285 and 30 symbols are not multiples of eight: the last few are
  // handled one at a time. Sparse and dense tables, codes at the very end.
  for (const std::size_t alphabet : {285u, 30u})
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      Rng rng(seed * 7919 + alphabet);
      std::vector<std::uint64_t> freqs(alphabet, 0);
      const std::uint64_t keep = 1 + seed % 4;  // keep about 1 in keep
      for (auto& f : freqs)
        if (rng.uniform_index(keep) == 0) f = 1 + rng.uniform_index(5000);
      if (seed % 2 == 0) freqs.back() = 1 + seed;
      expect_matches_reference(freqs, std::to_string(alphabet) +
                                          " symbols, seed " +
                                          std::to_string(seed));
    }
}

}  // namespace
}  // namespace lck
