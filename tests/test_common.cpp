/// Tests for the common substrate: byte/bit I/O, the CRC-32 and CRC-64
/// implementation (against a byte-at-a-time reference), stop requests, RNG,
/// statistics, and the logical-rank partitioner.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <thread>
#include <type_traits>

#include "ckpt/chunk/chunk_hash.hpp"
#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/stop_request.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

TEST(ByteBuffer, RoundTripPrimitives) {
  ByteWriter w;
  w.put<std::uint32_t>(0xdeadbeefu);
  w.put<double>(3.14159);
  w.put<std::int64_t>(-42);
  w.put_string("hello");
  const auto buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.14159);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RoundTripArray) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 0.5);
  ByteWriter w;
  w.put_array(xs.data(), xs.size());
  const auto buf = std::move(w).take();

  ByteReader r(buf);
  std::vector<double> ys(100);
  r.get_array(ys.data(), ys.size());
  EXPECT_EQ(xs, ys);
}

TEST(ByteBuffer, ReadPastEndThrows) {
  ByteWriter w;
  w.put<std::uint16_t>(7);
  const auto buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_THROW(r.get<std::uint64_t>(), corrupt_stream_error);
}

TEST(ByteBuffer, AdversarialArrayCountDoesNotWrap) {
  // Regression: a corrupt header can claim any element count. For counts
  // where `count * sizeof(T)` wraps std::size_t (e.g. 2^61 doubles on a
  // 64-bit platform wraps to 0), the old `check(count * sizeof(T))` passed
  // and memcpy ran with the un-wrapped length. The guard must compare via
  // division and throw instead.
  const std::size_t wrap_count =
      std::numeric_limits<std::size_t>::max() / sizeof(double) + 2;
  ASSERT_LT(wrap_count * sizeof(double),  // premise: the product truly wraps
            wrap_count);
  std::vector<byte_t> data(64, 0);
  ByteReader r(data);
  double sink[4];
  EXPECT_THROW(r.get_array(sink, wrap_count), corrupt_stream_error);
  // The same count must also be rejected on the write side, where the
  // wrapped product would resize the buffer tiny and emit a short stream.
  ByteWriter w;
  EXPECT_THROW(w.put_array(sink, wrap_count), config_error);
  // Sane counts that merely exceed the buffer still throw (no regression).
  ByteReader r2(data);
  EXPECT_THROW(r2.get_array(sink, 9), corrupt_stream_error);
  // And a huge string length prefix is caught by the plain bounds check.
  ByteWriter w2;
  w2.put<std::uint32_t>(0xffffffffu);
  const auto buf = std::move(w2).take();
  ByteReader r3(buf);
  EXPECT_THROW(r3.get_string(), corrupt_stream_error);
}

TEST(ByteBuffer, GetBytesAdvancesAndBoundsChecks) {
  std::vector<byte_t> data{1, 2, 3, 4, 5};
  ByteReader r(data);
  const auto first = r.get_bytes(3);
  EXPECT_EQ(first[0], 1);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_THROW(r.get_bytes(3), corrupt_stream_error);
}

TEST(BitIo, EmptyWriterProducesEmptyBuffer) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  const auto buf = w.finish();
  EXPECT_TRUE(buf.empty());
  BitReader r(buf);
  EXPECT_EQ(r.bits_remaining(), 0u);
  EXPECT_THROW(r.read_bit(), corrupt_stream_error);
}

TEST(BitIo, ZeroWidthWriteIsANoOp) {
  BitWriter w;
  w.write_bits(0xffff, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  w.write_bit(1);
  w.write_bits(0xffff, 0);
  EXPECT_EQ(w.bit_count(), 1u);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.read_bits(0), 0u);  // reads nothing
  EXPECT_EQ(r.read_bit(), 1u);
}

TEST(BitIo, UnalignedTailRoundTrips) {
  // 11 bits: one full byte plus a 3-bit tail padded with zeros.
  BitWriter w;
  w.write_bits(0b10110100101, 11);
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 2u);
  BitReader r(buf);
  EXPECT_EQ(r.read_bits(11), 0b10110100101u);
  // The 5 pad bits are zero and readable; one past them throws.
  EXPECT_EQ(r.read_bits(5), 0u);
  EXPECT_THROW(r.read_bit(), corrupt_stream_error);
}

TEST(BitIo, SingleByteRoundTripsBitByBit) {
  BitWriter w;
  const unsigned bits[8] = {1, 0, 1, 1, 0, 0, 1, 0};
  for (const unsigned b : bits) w.write_bit(b);
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b10110010u);
  BitReader r(buf);
  for (const unsigned b : bits) EXPECT_EQ(r.read_bit(), b);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(BitIo, RoundTripBits) {
  BitWriter w;
  w.write_bits(0b1011, 4);
  w.write_bit(1);
  w.write_bits(0x12345, 20);
  const auto buf = w.finish();

  BitReader r(buf);
  EXPECT_EQ(r.read_bits(4), 0b1011u);
  EXPECT_EQ(r.read_bit(), 1u);
  EXPECT_EQ(r.read_bits(20), 0x12345u);
}

TEST(BitIo, UnaryCoding) {
  BitWriter w;
  for (unsigned v : {0u, 1u, 5u, 13u}) w.write_unary(v);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.read_unary(), 0u);
  EXPECT_EQ(r.read_unary(), 1u);
  EXPECT_EQ(r.read_unary(), 5u);
  EXPECT_EQ(r.read_unary(), 13u);
}

TEST(BitIo, BitCountMatchesWrites) {
  BitWriter w;
  w.write_bits(0, 13);
  EXPECT_EQ(w.bit_count(), 13u);
  const auto buf = w.finish();
  EXPECT_EQ(buf.size(), 2u);  // padded to byte boundary
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.write_bits(0xff, 8);
  const auto buf = w.finish();
  BitReader r(buf);
  r.read_bits(8);
  EXPECT_THROW(r.read_bit(), corrupt_stream_error);
}

// Bit-at-a-time reference for the word-wise BitWriter/BitReader.
struct RefBitWriter {
  std::vector<byte_t> buf;
  std::size_t nbits = 0;
  /// Writes `width` bits of `value`, most significant first; bits above
  /// bit 63 are zero.
  void write(std::uint64_t value, unsigned width) {
    for (unsigned i = width; i-- > 0; ++nbits) {
      if (nbits % 8 == 0) buf.push_back(0);
      if (i < 64 && ((value >> i) & 1u))
        buf.back() |= static_cast<byte_t>(0x80u >> (nbits % 8));
    }
  }
};

struct RefBitReader {
  std::span<const byte_t> data;
  std::size_t pos = 0;
  [[nodiscard]] unsigned bit_at(std::size_t p) const {
    return (data[p / 8] >> (7 - p % 8)) & 1u;
  }
  std::uint64_t read(unsigned width) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i) {
      if (pos >= data.size() * 8) throw corrupt_stream_error("ref: past end");
      v = (v << 1) | bit_at(pos++);
    }
    return v;
  }
  /// The next `width` bits, zero past the end.
  [[nodiscard]] std::uint64_t peek(unsigned width) const {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i)
      v = (v << 1) | (pos + i < data.size() * 8 ? bit_at(pos + i) : 0u);
    return v;
  }
};

TEST(BitIo, RandomWidthsMatchBitAtATimeReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    BitWriter w;
    RefBitWriter ref;
    const auto ops = 1 + rng.uniform_index(300);
    for (std::uint64_t k = 0; k < ops; ++k) {
      // Values carry random bits above the width, which must be ignored.
      const std::uint64_t value = rng();
      switch (rng.uniform_index(3)) {
        case 0: {
          const auto width = static_cast<unsigned>(rng.uniform_index(65));
          w.write_bits(value, width);
          ref.write(value, width);
          break;
        }
        case 1:
          w.write_bit(static_cast<unsigned>(value));
          ref.write(value, 1);
          break;
        default: {
          const auto zeros = static_cast<unsigned>(rng.uniform_index(70));
          w.write_unary(zeros);
          ref.write(1, zeros + 1);
        }
      }
      ASSERT_EQ(w.bit_count(), ref.nbits) << "seed " << seed;
    }
    const auto buf = w.finish();
    ASSERT_EQ(buf, ref.buf) << "seed " << seed;

    // Read back with widths of their own, past the end: both readers must
    // agree on every value and throw at the same call.
    BitReader r(buf);
    RefBitReader rr{buf};
    for (int call = 0;; ++call) {
      ASSERT_EQ(r.bits_remaining(), buf.size() * 8 - rr.pos);
      const auto width = static_cast<unsigned>(rng.uniform_index(65));
      if (rng.uniform_index(4) == 0 && width >= 1 && width <= 32) {
        ASSERT_EQ(r.peek(width), rr.peek(width)) << "seed " << seed;
        continue;
      }
      const bool use_skip = width <= 32 && rng.uniform_index(2) == 0;
      bool ref_threw = false, threw = false;
      std::uint64_t expect = 0, got = 0;
      try {
        expect = rr.read(width);
      } catch (const corrupt_stream_error&) {
        ref_threw = true;
      }
      try {
        if (use_skip)
          r.skip(width);
        else
          got = r.read_bits(width);
      } catch (const corrupt_stream_error&) {
        threw = true;
      }
      ASSERT_EQ(threw, ref_threw) << "seed " << seed << " call " << call;
      if (threw) {
        EXPECT_EQ(r.bits_remaining(), 0u);
        break;
      }
      if (!use_skip) {
        ASSERT_EQ(got, expect) << "seed " << seed;
      }
    }
  }
}

TEST(BitIo, ReservedWriterAfterAPrefixMatchesReference) {
  // deflate's use: a header already in the vector, then exactly the
  // payload's bytes reserved, so the writer never grows.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<std::uint64_t, unsigned>> writes(
        1 + rng.uniform_index(2000));
    RefBitWriter ref;
    for (auto& [value, width] : writes) {
      value = rng();
      width = static_cast<unsigned>(rng.uniform_index(33));
      ref.write(value, width);
    }
    const std::vector<byte_t> prefix(rng.uniform_index(40), byte_t{0xa5});
    BitWriter w(prefix);
    w.reserve(ref.buf.size());
    for (const auto& [value, width] : writes) w.write_bits(value, width);
    ASSERT_EQ(w.bit_count(), 8 * prefix.size() + ref.nbits) << "seed " << seed;
    const auto buf = w.finish();
    // Exactly the reserved room: the prefix, the bytes, the 8-byte slack.
    EXPECT_EQ(buf.capacity(), prefix.size() + ref.buf.size() + 8)
        << "seed " << seed;
    ASSERT_EQ(buf.size(), prefix.size() + ref.buf.size()) << "seed " << seed;
    const std::vector<byte_t> head(buf.begin(), buf.begin() + prefix.size());
    const std::vector<byte_t> bits(buf.begin() + prefix.size(), buf.end());
    EXPECT_EQ(head, prefix) << "seed " << seed;
    EXPECT_EQ(bits, ref.buf) << "seed " << seed;
  }
}

TEST(BitIo, GrowingWriterWithZeroWidthWritesMatchesReference) {
  // From empty through eleven doublings of the buffer (8, 24, 56, ...,
  // 16,376 bytes), a zero-width write between most writes.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    BitWriter w;
    RefBitWriter ref;
    for (int k = 0; k < 5000; ++k) {
      const std::uint64_t value = rng();
      const auto width = static_cast<unsigned>(rng.uniform_index(65));
      w.write_bits(value, width);
      ref.write(value, width);
      if (rng.uniform_index(4) != 0) w.write_bits(rng(), 0);
      ASSERT_EQ(w.bit_count(), ref.nbits) << "seed " << seed;
    }
    ASSERT_GT(ref.buf.size(), std::size_t{16376});
    ASSERT_EQ(w.finish(), ref.buf) << "seed " << seed;
  }
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reference value).
  const char* s = "123456789";
  const std::uint32_t c = crc32(
      {reinterpret_cast<const byte_t*>(s), 9});
  EXPECT_EQ(c, 0xcbf43926u);
}

TEST(Crc32, EmptyBufferIsZero) {
  // CRC-32 of the empty message: init ^ final xor = 0.
  EXPECT_EQ(crc32({}), 0u);
  Crc32 inc;
  inc.update({});
  EXPECT_EQ(inc.value(), 0u);
}

TEST(Crc32, SingleByteKnownVectors) {
  // Reference values for 1-byte messages (IEEE 802.3 reflected polynomial).
  const byte_t a = 'a';
  EXPECT_EQ(crc32({&a, 1}), 0xe8b7be43u);
  const byte_t zero = 0x00;
  EXPECT_EQ(crc32({&zero, 1}), 0xd202ef8du);
  const byte_t ff = 0xff;
  EXPECT_EQ(crc32({&ff, 1}), 0xff000000u);
}

TEST(Crc32, IncrementalByteAtATimeEqualsOneShot) {
  const char* s = "checkpoint";
  const auto data = std::span(reinterpret_cast<const byte_t*>(s), 10);
  Crc32 inc;
  for (const byte_t b : data) inc.update({&b, 1});
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, IncrementalEqualsOneShot) {
  std::vector<byte_t> data(1000);
  Rng rng(3);
  for (auto& b : data) b = static_cast<byte_t>(rng());
  Crc32 inc;
  inc.update(std::span(data).subspan(0, 400));
  inc.update(std::span(data).subspan(400));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<byte_t> data(64, 0xa5);
  const auto before = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(before, crc32(data));
}

/// The byte-at-a-time loop, one table lookup per byte, that the sliced
/// implementation must equal: reflected polynomial `poly`, init and xorout
/// all ones.
template <class Word>
class ByteLoopCrc {
 public:
  explicit ByteLoopCrc(Word poly) {
    for (unsigned b = 0; b < 256; ++b) {
      Word c = b;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (poly ^ (c >> 1)) : (c >> 1);
      table_[b] = c;
    }
  }

  Word operator()(std::span<const byte_t> data) const {
    Word state = ~Word{0};
    for (const byte_t b : data)
      state = table_[(state ^ b) & 0xff] ^ (state >> 8);
    return state ^ ~Word{0};
  }

 private:
  std::array<Word, 256> table_{};
};

template <class Crc, class Word>
void expect_matches_byte_loop(Word poly) {
  const ByteLoopCrc<Word> ref(poly);
  constexpr std::size_t kMaxLen = 1100;
  std::vector<byte_t> data(110592);
  Rng rng(sizeof(Word));
  for (auto& b : data) b = static_cast<byte_t>(rng());
  const std::span<const byte_t> all(data);
  // Every length at every start offset: the eight-byte table steps and
  // CRC-32's 16-byte loads start at every alignment, spans reach the
  // 64-byte fold and its 16-byte folds, and every tail length is left.
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const auto s = all.subspan(offset, len);
      Crc c;
      c.update(s);
      ASSERT_EQ(c.value(), ref(s)) << "offset " << offset << ", length " << len;
    }
  }
  // One checkpoint vector's worth (13,824 doubles).
  Crc big;
  big.update(all);
  EXPECT_EQ(big.value(), ref(all));
  // One input fed to two update calls, split at every point.
  const auto whole = all.first(kMaxLen);
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    Crc c;
    c.update(whole.first(split));
    c.update(whole.subspan(split));
    ASSERT_EQ(c.value(), ref(whole)) << "split at " << split;
  }
}

TEST(Crc32, EqualsByteAtATimeLoopAtEveryLengthOffsetAndSplit) {
  // Under every tier this CPU runs: the tables alone (scalar, SSE2) and
  // the carry-less-multiply fold (AVX2 and AVX-512, where CPUID reports
  // PCLMULQDQ).
  struct IsaGuard {
    ~IsaGuard() { simd::reset_isa(); }
  } guard;
  for (int i = 0; i <= static_cast<int>(simd::supported_isa()); ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    simd::force_isa(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    expect_matches_byte_loop<Crc32>(0xedb88320u);
  }
}

TEST(Crc64, EqualsByteAtATimeLoopAtEveryLengthOffsetAndSplit) {
  expect_matches_byte_loop<Crc64>(0xc96c5795d7870f42ull);
}

// ----- stop requests -------------------------------------------------------

TEST(StopRequest, WithoutAScopeTheCheckDoesNothing) {
  EXPECT_EQ(current_stop_request(), nullptr);
  EXPECT_NO_THROW(throw_if_stop_requested());
  static_assert(!std::is_base_of_v<corrupt_stream_error, stop_requested_error>,
                "a stop is not a malformed stream");
}

TEST(StopRequest, ScopesNestAndRestoreTheOuterRequest) {
  StopRequest outer{false};
  StopRequest inner{true};
  {
    const StopScope a(&outer);
    EXPECT_EQ(current_stop_request(), &outer);
    EXPECT_NO_THROW(throw_if_stop_requested());
    {
      const StopScope b(&inner);
      EXPECT_EQ(current_stop_request(), &inner);
      EXPECT_THROW(throw_if_stop_requested(), stop_requested_error);
      {
        const StopScope none(nullptr);
        EXPECT_NO_THROW(throw_if_stop_requested());
      }
      EXPECT_EQ(current_stop_request(), &inner);
    }
    EXPECT_EQ(current_stop_request(), &outer);
    outer = true;
    EXPECT_THROW(throw_if_stop_requested(), stop_requested_error);
  }
  EXPECT_EQ(current_stop_request(), nullptr);
  EXPECT_NO_THROW(throw_if_stop_requested());
}

TEST(StopRequest, AnotherThreadDoesNotSeeAScope) {
  StopRequest stop{true};
  const StopScope scope(&stop);
  const StopRequest* seen = &stop;
  bool threw = false;
  std::thread other([&] {
    seen = current_stop_request();
    try {
      throw_if_stop_requested();
    } catch (const stop_requested_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_EQ(seen, nullptr);
  EXPECT_FALSE(threw);
  EXPECT_THROW(throw_if_stop_requested(), stop_requested_error);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  (void)c;
  EXPECT_NE(a2(), Rng(124)());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  RunningStats st;
  const double mean = 3600.0;
  for (int i = 0; i < 200000; ++i) st.add(rng.exponential(mean));
  EXPECT_NEAR(st.mean(), mean, mean * 0.02);
  // Exponential: stddev == mean.
  EXPECT_NEAR(st.stddev(), mean, mean * 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal(2.0, 0.5));
  EXPECT_NEAR(st.mean(), 2.0, 0.01);
  EXPECT_NEAR(st.stddev(), 0.5, 0.01);
}

TEST(RunningStats, WelfordMatchesDirect) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats st;
  for (double x : xs) st.add(x);
  EXPECT_EQ(st.count(), 5u);
  EXPECT_DOUBLE_EQ(st.mean(), 6.2);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 16.0);
  // Direct unbiased variance.
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(st.variance(), var, 1e-12);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
}

TEST(ParallelFor, DeterministicSumsMatchSerial) {
  const index_t n = 100000;
  std::vector<double> xs(n);
  for (index_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i % 97) * 0.25;
  const double par =
      detail::deterministic_reduce_sum(n, [&](index_t i) { return xs[i]; });
  double ser = 0.0;
  for (const double x : xs) ser += x;
  EXPECT_NEAR(par, ser, 1e-6);
}

TEST(ParallelFor, DeterministicMaxReduction) {
  const index_t n = 9999;
  const double m = detail::deterministic_reduce_max(n, [&](index_t i) {
    return static_cast<double>((i * 37) % 1000);
  });
  EXPECT_DOUBLE_EQ(m, 999.0);
}

class PartitionerTest : public ::testing::TestWithParam<std::pair<index_t, int>> {};

TEST_P(PartitionerTest, CoversRangeExactly) {
  const auto [n, ranks] = GetParam();
  const Partitioner part(n, ranks);
  index_t total = 0;
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(part.offset(r), total);
    total += part.local_size(r);
  }
  EXPECT_EQ(total, n);
}

TEST_P(PartitionerTest, OwnerConsistentWithOffsets) {
  const auto [n, ranks] = GetParam();
  const Partitioner part(n, ranks);
  for (int r = 0; r < ranks; ++r) {
    if (part.local_size(r) == 0) continue;
    EXPECT_EQ(part.owner(part.offset(r)), r);
    EXPECT_EQ(part.owner(part.offset(r) + part.local_size(r) - 1), r);
  }
}

TEST_P(PartitionerTest, BalancedWithinOne) {
  const auto [n, ranks] = GetParam();
  const Partitioner part(n, ranks);
  index_t lo = n, hi = 0;
  for (int r = 0; r < ranks; ++r) {
    lo = std::min(lo, part.local_size(r));
    hi = std::max(hi, part.local_size(r));
  }
  EXPECT_LE(hi - lo, 1);
  EXPECT_EQ(part.max_local_size(), hi);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionerTest,
    ::testing::Values(std::pair<index_t, int>{0, 1},
                      std::pair<index_t, int>{1, 1},
                      std::pair<index_t, int>{10, 3},
                      std::pair<index_t, int>{1000, 7},
                      std::pair<index_t, int>{2160L * 2160 * 2160 % 100000, 2048},
                      std::pair<index_t, int>{65536, 256}));

TEST(Partitioner, RejectsBadArguments) {
  EXPECT_THROW(Partitioner(-1, 4), config_error);
  EXPECT_THROW(Partitioner(10, 0), config_error);
}

}  // namespace
}  // namespace lck
