/// The checkpoint wire format (ckpt/frame_stream.hpp) and the manager's one
/// writer and one reader: transport round trips and corruption detection,
/// retired styles and versions refused, bounded writer memory, `none` vectors stored raw, recovered values
/// pinned bit-exactly for every codec, size and mode, and a seeded mutation
/// sweep that must see nothing but corrupt_stream_error. Per-chunk
/// compression is covered in test_block_compressor.cpp.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/chunk/chunk_hash.hpp"
#include "ckpt/frame_stream.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace lck {
namespace {

std::vector<byte_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<byte_t> v(n);
  for (auto& b : v) b = static_cast<byte_t>(rng() & 0xff);
  return v;
}

Vector smooth_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.003 * static_cast<double>(i)) + 2.0 +
           1e-3 * rng.uniform();
  return v;
}

std::span<const byte_t> bytes_of(const Vector& v) {
  return {reinterpret_cast<const byte_t*>(v.data()), v.size() * sizeof(double)};
}

template <typename T>
T load(const std::vector<byte_t>& s, std::size_t at) {
  T v;
  std::memcpy(&v, s.data() + at, sizeof v);
  return v;
}

template <typename T>
void store(std::vector<byte_t>& s, std::size_t at, T v) {
  std::memcpy(s.data() + at, &v, sizeof v);
}

/// Recompute the header CRC and every frame CRC of `s` (layout per
/// frame_stream.hpp), so a deliberate field rewrite passes the CRC checks.
void refresh_crcs(std::vector<byte_t>& s) {
  store(s, kStreamHeaderBytes - 4,
        crc32({s.data(), kStreamHeaderBytes - 4}));
  std::size_t pos = kStreamHeaderBytes;
  while (pos + kFrameHeaderBytes <= s.size() && s[pos] != 0) {
    const auto comp_len = load<std::uint32_t>(s, pos + 5);
    Crc32 crc;
    crc.update({s.data() + pos, kFrameHeaderBytes - 4});
    crc.update({s.data() + pos + kFrameHeaderBytes, comp_len});
    store(s, pos + kFrameHeaderBytes - 4, crc.value());
    pos += kFrameHeaderBytes + comp_len;
  }
}

// ----- transport: FrameWriter / FrameReader ---------------------------------

TEST(FrameTransport, MetadataAndChunksRoundTripInEveryStyle) {
  const Vector smooth = smooth_vector(3000, 1);
  const auto noise = pattern_bytes(2048, 2);
  const auto big_meta = pattern_bytes(kMetaFrameBytes + 17, 3);
  const std::vector<byte_t> codec_payload{9, 8, 7, 6, 5};
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink, /*base_version=*/3, /*chain_len=*/2);
  w.put<std::uint32_t>(0xabcd1234u);
  w.put_string("var/name");
  w.put_bytes(big_meta);  // spans two metadata frames
  w.put_raw_chunk(bytes_of(smooth), 11);
  w.put_raw_chunk(noise, 12);
  w.put_codec_chunk(codec_payload, 64, 13);
  w.put_ref_chunk(128, 14);
  w.put<double>(2.5);
  w.finish();
  EXPECT_EQ(w.stream_bytes(), stream.size());

  SpanSource src(stream);
  FrameReader r(src);
  EXPECT_EQ(r.base_version(), 3);
  EXPECT_EQ(r.chain_len(), 2u);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xabcd1234u);
  EXPECT_EQ(r.get_string(), "var/name");
  std::vector<byte_t> meta(big_meta.size());
  r.read_into(meta);
  EXPECT_EQ(meta, big_meta);
  auto c = r.next_chunk(smooth.size() * sizeof(double));
  EXPECT_EQ(c.style, FrameStyle::kRaw);
  EXPECT_EQ(c.hash, 11u);
  EXPECT_TRUE(std::equal(c.payload.begin(), c.payload.end(),
                         bytes_of(smooth).begin(), bytes_of(smooth).end()));
  c = r.next_chunk(noise.size());
  EXPECT_EQ(c.style, FrameStyle::kRaw);
  EXPECT_TRUE(std::equal(c.payload.begin(), c.payload.end(), noise.begin(),
                         noise.end()));
  c = r.next_chunk(64);
  EXPECT_EQ(c.style, FrameStyle::kCodec);
  EXPECT_TRUE(std::equal(c.payload.begin(), c.payload.end(),
                         codec_payload.begin(), codec_payload.end()));
  c = r.next_chunk(128);
  EXPECT_EQ(c.style, FrameStyle::kRef);
  EXPECT_EQ(c.hash, 14u);
  EXPECT_TRUE(c.payload.empty());
  EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(r.stream_bytes(), stream.size());
}

TEST(FrameTransport, EmptyStreamIsHeaderAndTerminator) {
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink);
  w.finish();
  EXPECT_EQ(stream.size(), kStreamHeaderBytes + kFrameHeaderBytes);
  SpanSource src(stream);
  FrameReader r(src);
  EXPECT_EQ(r.base_version(), -1);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(FrameTransport, TruncationIsDetected) {
  const auto payload = pattern_bytes(10000, 3);
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink);
  w.put_bytes(payload);
  w.finish();

  // Truncated terminator: the data reads back, but the end check throws.
  {
    auto cut = stream;
    cut.resize(cut.size() - 5);
    SpanSource src(cut);
    FrameReader r(src);
    std::vector<byte_t> back(payload.size());
    r.read_into(back);
    EXPECT_THROW(r.expect_end(), corrupt_stream_error);
  }
  // Truncated data frame: the read itself throws.
  {
    auto cut = stream;
    cut.resize(cut.size() - kFrameHeaderBytes - 40);
    SpanSource src(cut);
    FrameReader r(src);
    std::vector<byte_t> back(payload.size());
    EXPECT_THROW(r.read_into(back), corrupt_stream_error);
  }
  // Trailing garbage after the terminator is rejected too.
  {
    auto fat = stream;
    fat.push_back(0x5a);
    SpanSource src(fat);
    FrameReader r(src);
    std::vector<byte_t> back(payload.size());
    r.read_into(back);
    EXPECT_THROW(r.expect_end(), corrupt_stream_error);
  }
}

TEST(FrameTransport, CorruptionIsDetected) {
  const auto payload = pattern_bytes(9000, 4);
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink);
  w.put_bytes(payload);
  w.finish();

  const auto expect_rejected = [&](std::vector<byte_t> bad) {
    SpanSource src(bad);
    std::vector<byte_t> back(payload.size());
    try {
      FrameReader r(src);
      r.read_into(back);
      r.expect_end();
      FAIL() << "corrupt stream accepted";
    } catch (const corrupt_stream_error&) {
    }
  };
  const std::size_t frame = kStreamHeaderBytes;  // first frame header

  auto bad = stream;
  bad[1] ^= 0x01;  // magic
  expect_rejected(bad);

  bad = stream;
  bad[4] ^= 0x01;  // version
  expect_rejected(bad);

  bad = stream;
  store<std::uint16_t>(bad, 4, 1);  // a format-1 stream, header CRC valid
  refresh_crcs(bad);
  expect_rejected(bad);

  bad = stream;
  bad[frame + kFrameHeaderBytes + 30] ^= 0x40;  // payload byte -> CRC
  expect_rejected(bad);

  bad = stream;
  // An oversized comp_len must be rejected by the per-style length
  // invariant before any allocation or read is attempted.
  std::memset(bad.data() + frame + 5, 0xff, 4);
  expect_rejected(bad);

  bad = stream;
  bad[frame] = 99;  // unknown frame style
  expect_rejected(bad);

  bad = stream;
  // Corrupt terminator: style 0 but nonzero tail bytes.
  bad[bad.size() - 2] = 0x7f;
  expect_rejected(bad);
}

TEST(FrameTransport, WriterMemoryIsBounded) {
  // 4 MiB of chunks: the writer's high-water mark must stay at pending
  // metadata + write buffer + header, independent of stream length.
  const auto chunk = pattern_bytes(kChunkElems * sizeof(double), 5);
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink);
  for (int i = 0; i < 8; ++i) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(i));
    w.put_raw_chunk(chunk, 0);
  }
  w.finish();
  EXPECT_LE(w.peak_buffered_bytes(),
            kWriteBufferBytes + kMetaFrameBytes + kFrameHeaderBytes);
  EXPECT_GT(stream.size(), 8 * chunk.size());  // every chunk stored raw
}

TEST(FrameTransport, SinkReceivesIncrementalAppends) {
  // The stream must reach the sink in bounded increments while the writer
  // runs — not as one materialized blob at the end.
  class CountingSink final : public ByteSink {
   public:
    void append(std::span<const byte_t> bytes) override {
      ++appends;
      max_append = std::max(max_append, bytes.size());
      total += bytes.size();
    }
    std::size_t appends = 0, max_append = 0, total = 0;
  };

  const auto meta = pattern_bytes(16 * kWriteBufferBytes, 6);
  CountingSink sink;
  FrameWriter w(sink);
  w.put_bytes(meta);
  w.finish();
  EXPECT_EQ(sink.total, w.stream_bytes());
  EXPECT_GE(sink.appends, 16u);
  // Largest single append: a flushed wbuf or one frame payload handed
  // straight through.
  EXPECT_LE(sink.max_append, std::max(kWriteBufferBytes, kMetaFrameBytes));
}

TEST(FrameTransport, RetiredStylesAndVersionsAreRefused) {
  // Styles 2 and 3 (chunks the writer LZ4- or deflate-compressed) belonged
  // to format version 2. A version-3 stream holding one, CRC-valid and
  // with the comp_len < raw_len those styles had, is corrupt; a version-2
  // header is refused before any frame is read.
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink);
  w.put_codec_chunk(std::vector<byte_t>{9, 8, 7, 6, 5}, 64, 0);
  w.finish();
  const auto read_chunk = [](const std::vector<byte_t>& s) {
    SpanSource src(s);
    FrameReader r(src);
    (void)r.next_chunk(64);
    r.expect_end();
  };
  EXPECT_NO_THROW(read_chunk(stream));
  for (const byte_t style : {byte_t{2}, byte_t{3}}) {
    auto bad = stream;
    bad[kStreamHeaderBytes] = style;
    refresh_crcs(bad);
    EXPECT_THROW(read_chunk(bad), corrupt_stream_error) << int{style};
  }
  auto v2 = stream;
  store<std::uint16_t>(v2, 4, 2);
  refresh_crcs(v2);
  EXPECT_THROW(read_chunk(v2), corrupt_stream_error);
  EXPECT_EQ(peek_base_version(v2), std::nullopt);
}

TEST(FrameTransport, HeaderPeekAndChunkSplitViewTheStream) {
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink, 41, 1);
  const std::vector<byte_t> a{1, 2, 3}, b{4, 5, 6, 7};
  w.put<std::uint32_t>(7);
  w.put_codec_chunk(a, 8, 0);
  w.put_ref_chunk(8, 1);
  w.put_raw_chunk(b, 0);
  w.finish();
  EXPECT_EQ(peek_base_version(stream), std::optional<int>{41});
  const auto parts = chunk_payloads(stream);
  ASSERT_TRUE(parts.has_value());
  ASSERT_EQ(parts->size(), 2u);  // the ref carries no payload
  EXPECT_TRUE(std::equal((*parts)[0].begin(), (*parts)[0].end(), a.begin()));
  EXPECT_TRUE(std::equal((*parts)[1].begin(), (*parts)[1].end(), b.begin()));

  const std::vector<byte_t> junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(peek_base_version(junk), std::nullopt);
  EXPECT_FALSE(chunk_payloads(junk).has_value());
  auto cut = stream;
  cut.pop_back();  // no complete terminator
  EXPECT_FALSE(chunk_payloads(cut).has_value());
}

// ----- manager: one writer, one reader --------------------------------------

std::unique_ptr<CheckpointStore> make_mode_store(CkptMode mode) {
  if (mode != CkptMode::kTiered) return std::make_unique<MemoryStore>();
  std::vector<TieredCheckpointStore::Level> levels;
  levels.push_back({TierSpec{"L1", FailureSeverity::kProcess, 4, 1},
                    std::make_unique<MemoryStore>()});
  levels.push_back({TierSpec{"L2", FailureSeverity::kNode, 4, 1},
                    std::make_unique<MemoryStore>()});
  return std::make_unique<TieredCheckpointStore>(std::move(levels),
                                                 /*auto_promote=*/true);
}

/// One checkpoint in `mode`: sync inline, async/tiered through the staged
/// drain.
void checkpoint_in(CheckpointManager& mgr, CkptMode mode) {
  if (mode == CkptMode::kSync) {
    mgr.checkpoint();
    return;
  }
  const StageTicket t = mgr.stage();
  mgr.wait_drain(t.version);
  mgr.commit_version(t.version);
}

TEST(ManagerStream, RecoveredValuesArePinnedForEveryCodecSizeAndMode) {
  // CRC-32 of the doubles recover() returned before the wire formats were
  // merged into one (legacy/block/framed/delta writers). Codec inputs are
  // the same slices — kChunkElems chunks in full checkpoints, the delta
  // chunk size in delta checkpoints — so lossy decoded values must match
  // to the bit. Each case takes two checkpoints (the second changes one
  // element, so a delta references every other chunk) and recovers the
  // second.
  struct Pin {
    const char* codec;
    std::size_t n;
    std::uint32_t full;
    std::uint32_t delta;
  };
  const Pin pins[] = {
      {"none", 1, 0x0dad645c, 0x0dad645c},
      {"none", 4095, 0x662d45a2, 0x662d45a2},
      {"none", 4096, 0x73a1baee, 0x73a1baee},
      {"none", 4097, 0x2ac3091c, 0x2ac3091c},
      {"none", 65535, 0xbdafa894, 0xbdafa894},
      {"none", 65536, 0xb4eaeb45, 0xb4eaeb45},
      {"none", 65537, 0x082d3c37, 0x082d3c37},
      {"none", 3 * 65536 + 5, 0x82c4c204, 0x82c4c204},
      {"sz", 1, 0xac0427e7, 0xac0427e7},
      {"sz", 4095, 0x2e1f5090, 0x2e1f5090},
      {"sz", 4096, 0x5c3b91fb, 0x5c3b91fb},
      {"sz", 4097, 0xd993fb63, 0x36290e7d},
      {"sz", 65535, 0x384163ca, 0x5c09c3c5},
      {"sz", 65536, 0x430c4d5d, 0xd309b168},
      {"sz", 65537, 0x1d092fb3, 0x5dd51ff6},
      {"sz", 3 * 65536 + 5, 0x3d7b6b92, 0xe57a4b1b},
      {"zfp", 1, 0xf66891bd, 0xf66891bd},
      {"zfp", 4095, 0x8c4a5b47, 0x8c4a5b47},
      {"zfp", 4096, 0xc703b727, 0xc703b727},
      {"zfp", 4097, 0xae24e9d3, 0xae24e9d3},
      {"zfp", 65535, 0xaa85bf72, 0xaa85bf72},
      {"zfp", 65536, 0x6ba82065, 0x6ba82065},
      {"zfp", 65537, 0xcf9b18c7, 0xcf9b18c7},
      {"zfp", 3 * 65536 + 5, 0x34ad06de, 0x34ad06de},
      {"trunc", 1, 0xf66891bd, 0xf66891bd},
      {"trunc", 4095, 0x24519f73, 0x24519f73},
      {"trunc", 4096, 0xa4c6ad35, 0xa4c6ad35},
      {"trunc", 4097, 0x350f45c1, 0x350f45c1},
      {"trunc", 65535, 0x2f3b6f68, 0x2f3b6f68},
      {"trunc", 65536, 0x63ea24a5, 0x63ea24a5},
      {"trunc", 65537, 0xe9a475e5, 0xe9a475e5},
      {"trunc", 3 * 65536 + 5, 0x5405dd10, 0x5405dd10},
      {"deflate", 1, 0x0dad645c, 0x0dad645c},
      {"deflate", 4095, 0x662d45a2, 0x662d45a2},
      {"deflate", 4096, 0x73a1baee, 0x73a1baee},
      {"deflate", 4097, 0x2ac3091c, 0x2ac3091c},
      {"deflate", 65535, 0xbdafa894, 0xbdafa894},
      {"deflate", 65536, 0xb4eaeb45, 0xb4eaeb45},
      {"deflate", 65537, 0x082d3c37, 0x082d3c37},
      {"deflate", 3 * 65536 + 5, 0x82c4c204, 0x82c4c204},
  };
  for (const Pin& pin : pins) {
    const auto comp =
        make_compressor(pin.codec, ErrorBound::pointwise_rel(1e-4));
    for (const bool delta : {false, true}) {
      for (const CkptMode mode :
           {CkptMode::kSync, CkptMode::kAsync, CkptMode::kTiered}) {
        SCOPED_TRACE(std::string(pin.codec) + " n=" + std::to_string(pin.n) +
                     (delta ? " delta " : " full ") + to_string(mode));
        CheckpointManager mgr(make_mode_store(mode), comp.get());
        if (delta) mgr.set_delta(4);
        Vector x = smooth_vector(pin.n, 1000 + pin.n);
        std::vector<byte_t> blob{1, 2, 3};
        mgr.protect(0, "x", &x);
        mgr.protect_blob(1, "blob", &blob);
        checkpoint_in(mgr, mode);
        x[pin.n / 2] += 0.5;
        checkpoint_in(mgr, mode);
        x.assign(pin.n, 0.0);
        blob.clear();
        const CheckpointRecord rec = mgr.recover();
        EXPECT_EQ(rec.base_version, delta ? 0 : -1);
        EXPECT_EQ(crc32(bytes_of(x)), delta ? pin.delta : pin.full);
        EXPECT_EQ(blob, (std::vector<byte_t>{1, 2, 3}));
      }
    }
  }
}

TEST(ManagerStream, WritesTheFramedFormat) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  Vector x = smooth_vector(600, 31);
  mgr.protect(0, "x", &x);
  const CheckpointRecord rec = mgr.checkpoint();
  const auto blob = store_raw->read(0);
  ASSERT_GE(blob.size(), kStreamHeaderBytes);
  EXPECT_EQ(load<std::uint32_t>(blob, 0), kFrameStreamMagic);
  EXPECT_EQ(load<std::uint16_t>(blob, 4), kFrameStreamVersion);
  EXPECT_EQ(peek_base_version(blob), std::optional<int>{-1});
  EXPECT_EQ(rec.stored_bytes, blob.size());
}

TEST(ManagerStream, NoneVectorsAreStoredAsRawFrames) {
  // The traditional scheme stores state verbatim: every chunk of a `none`
  // vector is a raw frame, even one a byte coder would shrink.
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  obs::MetricsRegistry metrics;
  mgr.set_observability({&metrics, nullptr});
  Vector x(3 * kChunkElems + 5);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<double>(i % 7);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();

  const auto stream = store_raw->read(0);
  std::size_t chunk_frames = 0;
  for (std::size_t pos = kStreamHeaderBytes; stream.at(pos) != 0;
       pos += kFrameHeaderBytes + load<std::uint32_t>(stream, pos + 5)) {
    const auto style = static_cast<FrameStyle>(stream[pos]);
    if (style == FrameStyle::kMeta) continue;
    EXPECT_EQ(style, FrameStyle::kRaw);
    ++chunk_frames;
  }
  EXPECT_EQ(chunk_frames, 4u);
  EXPECT_EQ(metrics.snapshot().counter("frame.frames{style=raw}"), 4.0);

  const Vector saved = x;
  x.assign(x.size(), -1.0);
  mgr.recover();
  ASSERT_EQ(x.size(), saved.size());
  EXPECT_EQ(std::memcmp(x.data(), saved.data(), x.size() * sizeof(double)), 0);
}

TEST(ManagerStream, StreamsOfOtherFormatsAreRejected) {
  NoneCompressor none;
  const auto recover_blob = [&none](const std::vector<byte_t>& blob) {
    auto store = std::make_unique<MemoryStore>();
    store->write(0, blob);
    CheckpointManager mgr(std::move(store), &none);
    Vector x;
    mgr.protect(0, "x", &x);
    mgr.recover();
  };
  // Magics of retired formats and a framed stream of format version 1.
  for (const std::uint32_t magic : {0x54504b43u, 0x54504b44u}) {
    std::vector<byte_t> old(64, 0);
    store(old, 0, magic);
    EXPECT_THROW(recover_blob(old), corrupt_stream_error);
  }
  std::vector<byte_t> good;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), &none);
    Vector x = smooth_vector(10, 1);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    good = store_raw->read(0);
  }
  EXPECT_NO_THROW(recover_blob(good));
  auto v1 = good;
  store<std::uint16_t>(v1, 4, 1);
  refresh_crcs(v1);
  EXPECT_THROW(recover_blob(v1), corrupt_stream_error);
}

TEST(ManagerStream, KindMismatchIsACorruptStream) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  std::vector<byte_t> blob{1, 2};
  Vector x = smooth_vector(10, 2);
  {
    CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
    mgr.protect(0, "v", &x);
    mgr.protect_blob(1, "b", &blob);
    mgr.checkpoint();
    store_raw->write(0, mgr.store().read(0));
  }
  CheckpointManager mgr(std::move(store), &none);
  mgr.protect_blob(0, "v", &blob);  // a vector in the stream
  mgr.protect(1, "b", &x);          // a blob in the stream
  EXPECT_THROW(mgr.recover(), corrupt_stream_error);
}

TEST(ManagerStream, ZeroLengthVectorAndBlobRoundTrip) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x;
  std::vector<byte_t> blob;
  mgr.protect(0, "x", &x);
  mgr.protect_blob(1, "empty", &blob);
  mgr.checkpoint();
  x.assign(17, -1.0);
  blob.assign(3, 9);
  mgr.recover();
  EXPECT_TRUE(x.empty());
  EXPECT_TRUE(blob.empty());
}

TEST(ManagerStream, CorruptCheckpointsAreRejected) {
  NoneCompressor none;
  std::vector<byte_t> good;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), &none);
    Vector x = smooth_vector(3000, 51);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    good = store_raw->read(0);
  }

  const auto recover_with = [&none](std::vector<byte_t> blob) {
    auto store = std::make_unique<MemoryStore>();
    store->write(0, blob);
    CheckpointManager mgr(std::move(store), &none);
    Vector x(3000, 0.0);
    mgr.protect(0, "x", &x);
    mgr.recover();
  };

  EXPECT_NO_THROW(recover_with(good));

  auto bad = good;  // truncated tail
  bad.resize(bad.size() - 10);
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad = good;  // flipped payload byte -> frame CRC mismatch
  bad[bad.size() / 2] ^= 0x20;
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad = good;  // oversized comp_len in the first frame header
  std::memset(bad.data() + kStreamHeaderBytes + 5, 0xff, 4);
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad = good;  // corrupt terminator (inside the final zero bytes)
  bad[bad.size() - 3] ^= 0x40;
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad.assign(4, 0);  // magic alone, then EOF
  store(bad, 0, kFrameStreamMagic);
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);
}

TEST(ManagerStream, HugeDeclaredSizesAreRejectedBeforeAllocating) {
  // Streams whose CRCs all pass but whose metadata declares 2^48 doubles or
  // a 2^40-byte blob: the reader must reject them from what the stream
  // actually backs, never size the target from the declared count first.
  NoneCompressor none;
  const auto recover_stream = [&none](const std::vector<byte_t>& s) {
    auto store = std::make_unique<MemoryStore>();
    store->write(0, s);
    CheckpointManager mgr(std::move(store), &none);
    Vector x;
    std::vector<byte_t> blob;
    mgr.protect(0, "x", &x);
    mgr.protect_blob(1, "b", &blob);
    mgr.recover();
  };
  const auto vector_stream = [](std::uint64_t elems, std::uint64_t chunk,
                                std::uint32_t count) {
    std::vector<byte_t> s;
    VectorSink sink(s);
    FrameWriter w(sink);
    w.put<std::uint32_t>(1);
    w.put<std::int32_t>(0);
    w.put_string("x");
    w.put<std::uint8_t>(0);
    w.put_string("none");
    w.put(elems);
    w.put(chunk);
    w.put(count);
    const std::vector<byte_t> one(8, 0);
    w.put_raw_chunk(one, 0);
    w.finish();
    return s;
  };
  EXPECT_NO_THROW(recover_stream(vector_stream(1, 1, 1)));
  // Consistent geometry, 2^28 chunks of 2^20 doubles, one frame present.
  EXPECT_THROW(recover_stream(vector_stream(std::uint64_t{1} << 48,
                                            std::uint64_t{1} << 20,
                                            std::uint32_t{1} << 28)),
               corrupt_stream_error);
  // A chunk size beyond the format bound.
  EXPECT_THROW(recover_stream(vector_stream(std::uint64_t{1} << 48,
                                            std::uint64_t{1} << 48, 1)),
               corrupt_stream_error);

  std::vector<byte_t> s;
  VectorSink sink(s);
  FrameWriter w(sink);
  w.put<std::uint32_t>(1);
  w.put<std::int32_t>(1);
  w.put_string("b");
  w.put<std::uint8_t>(1);
  w.put(std::uint64_t{1} << 40);
  w.put<std::uint32_t>(7);
  w.finish();
  EXPECT_THROW(recover_stream(s), corrupt_stream_error);
}

TEST(ManagerStream, AVectorListedTwiceKeepsReferencesInsideItsTarget) {
  // A tip that lists x twice, first as 8 doubles whose second chunk refers
  // to the base, then as 4: the second listing shrinks the target, so the
  // base's literal has no slice left to fill and recovery must reject the
  // stream instead of writing past the target's end.
  const std::vector<double> base_chunk{5, 6, 7, 8};
  const std::vector<double> tip_chunk{1, 2, 3, 4};
  const auto bytes = [](const std::vector<double>& v) {
    return std::span<const byte_t>(reinterpret_cast<const byte_t*>(v.data()),
                                   v.size() * sizeof(double));
  };
  const auto vector_header = [](FrameWriter& w, std::uint64_t elems,
                                std::uint32_t count) {
    w.put<std::int32_t>(0);
    w.put_string("x");
    w.put<std::uint8_t>(0);
    w.put_string("none");
    w.put(elems);
    w.put(std::uint64_t{4});
    w.put(count);
  };
  std::vector<byte_t> base_stream, tip_stream;
  VectorSink base_sink(base_stream);
  FrameWriter base(base_sink);
  base.put<std::uint32_t>(1);
  vector_header(base, 4, 1);
  base.put_raw_chunk(bytes(base_chunk), crc64(bytes(base_chunk)));
  base.finish();
  VectorSink tip_sink(tip_stream);
  FrameWriter tip(tip_sink, /*base_version=*/0, /*chain_len=*/1);
  tip.put<std::uint32_t>(2);
  vector_header(tip, 8, 2);
  tip.put_raw_chunk(bytes(tip_chunk), crc64(bytes(tip_chunk)));
  tip.put_ref_chunk(4 * sizeof(double), crc64(bytes(base_chunk)));
  vector_header(tip, 4, 1);
  tip.put_raw_chunk(bytes(tip_chunk), crc64(bytes(tip_chunk)));
  tip.finish();

  auto store = std::make_unique<MemoryStore>();
  store->write(0, base_stream);
  store->write(1, tip_stream);
  NoneCompressor none;
  CheckpointManager mgr(std::move(store), &none);
  Vector x;
  mgr.protect(0, "x", &x);
  EXPECT_THROW(mgr.recover(), corrupt_stream_error);
}

/// Store whose pending sink counts the appends it receives, so tests can
/// prove the manager streams into it instead of handing over whole blobs.
class CountingStore final : public CheckpointStore {
 public:
  void write(int v, std::span<const byte_t> d) override {
    ++whole_writes;
    inner_.write(v, d);
  }
  [[nodiscard]] std::vector<byte_t> read(int v) const override {
    return inner_.read(v);
  }
  [[nodiscard]] bool exists(int v) const override { return inner_.exists(v); }
  void remove(int v) override { inner_.remove(v); }
  [[nodiscard]] int latest_version() const override {
    return inner_.latest_version();
  }
  void write_pending(int v, std::span<const byte_t> d) override {
    ++whole_writes;
    CheckpointStore::write_pending(v, d);
  }
  void commit(int v) override {
    const std::lock_guard<std::mutex> lock(mu_);
    inner_.write(v, sealed_.at(v));
    sealed_.erase(v);
  }
  void abort(int v) override {
    const std::lock_guard<std::mutex> lock(mu_);
    sealed_.erase(v);
  }
  [[nodiscard]] std::unique_ptr<ByteSink> open_write_pending(
      int version) override {
    return std::make_unique<Sink>(*this, version);
  }
  std::size_t appends = 0, max_append = 0, whole_writes = 0;

 private:
  class Sink final : public ByteSink {
   public:
    Sink(CountingStore& store, int version) : store_(store), version_(version) {}
    void append(std::span<const byte_t> bytes) override {
      ++store_.appends;
      store_.max_append = std::max(store_.max_append, bytes.size());
      buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }
    void finish() override {
      const std::lock_guard<std::mutex> lock(store_.mu_);
      store_.sealed_[version_] = std::move(buf_);
    }

   private:
    CountingStore& store_;
    int version_;
    std::vector<byte_t> buf_;
  };

  std::mutex mu_;
  std::map<int, std::vector<byte_t>> sealed_;
  MemoryStore inner_;
};

TEST(ManagerStream, EveryCheckpointStreamsThroughTheStoreSink) {
  // The store-facing proof of the bounded-memory claim: full and delta
  // checkpoints, sync and staged, all reach the store as many small
  // appends into open_write_pending — never as one state-sized blob.
  for (const bool delta : {false, true}) {
    for (const bool staged : {false, true}) {
      SCOPED_TRACE(std::string(delta ? "delta" : "full") +
                   (staged ? " staged" : " sync"));
      NoneCompressor none;
      auto store = std::make_unique<CountingStore>();
      auto* store_raw = store.get();
      CheckpointManager mgr(std::move(store), &none);
      if (delta) mgr.set_delta(2);
      Vector x = smooth_vector(std::size_t{1} << 17, 61);  // 1 MiB of state
      mgr.protect(0, "x", &x);
      for (int k = 0; k < 2; ++k) {
        x[0] += 1.0;
        if (staged) {
          const StageTicket t = mgr.stage();
          mgr.commit_version(t.version);
        } else {
          mgr.checkpoint();
        }
      }
      const Vector saved = x;
      EXPECT_EQ(store_raw->whole_writes, 0u);
      EXPECT_GE(store_raw->appends, 4u);  // >= one per chunk
      EXPECT_LE(store_raw->max_append,
                std::max(kWriteBufferBytes,
                         kChunkElems * sizeof(double) + kFrameHeaderBytes));
      x.assign(x.size(), 0.0);
      mgr.recover();
      EXPECT_EQ(x, saved);
    }
  }
}

TEST(ManagerStream, DiskStoreStreamsToFileAndRecovers) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_frame_disk_" + std::to_string(::getpid()));
  for (const bool delta : {false, true}) {
    std::filesystem::remove_all(dir);
    NoneCompressor none;
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    if (delta) mgr.set_delta(4);
    Vector x = smooth_vector(std::size_t{1} << 16, 71);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    x[5] += 1.0;
    mgr.checkpoint();
    const Vector saved = x;
    // The streaming sink's .tmp must be gone and the version committed.
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      const auto name = e.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      EXPECT_EQ(name.find(".pending"), std::string::npos) << name;
    }
    x.assign(x.size(), 0.0);
    const CheckpointRecord rec = mgr.recover();
    EXPECT_EQ(rec.base_version, delta ? 0 : -1);
    EXPECT_EQ(x, saved);
  }
  std::filesystem::remove_all(dir);
}

// ----- mutation sweep: nothing but corrupt_stream_error ---------------------

/// A stored checkpoint history plus what recovering its tip must restore.
struct History {
  std::vector<std::vector<byte_t>> streams;  // by version
  Vector x, y;
  std::vector<byte_t> blob;
};

/// Protected state: two vectors through `codec` (raw frames under `none`,
/// codec frames under any other), and a blob. `versions` = 1 without delta
/// gives one full stream; otherwise a chain v0 full, v1 delta on v0, v2
/// delta on v1, each touching one chunk, so recovering the tip needs every
/// link.
History make_history(const Compressor& codec, int versions, bool delta) {
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &codec);
  if (delta) mgr.set_delta(4, 64);
  mgr.set_retention(8);
  History h;
  h.x = smooth_vector(300, 7);
  h.y = smooth_vector(200, 8);
  h.blob = {1, 2, 3, 4, 5};
  mgr.protect(0, "x", &h.x);
  mgr.protect(1, "y", &h.y);
  mgr.protect_blob(2, "blob", &h.blob);
  for (int v = 0; v < versions; ++v) {
    h.x[static_cast<std::size_t>(70 * v)] += 1.0;
    mgr.checkpoint();
  }
  for (int v = 0; v < versions; ++v) h.streams.push_back(store_raw->read(v));
  return h;
}

/// Recover the tip of `h` with stream `which` replaced by `bad`. Returns
/// true when the reader rejected it with corrupt_stream_error; any other
/// exception, or an accepted stream, fails the test.
bool rejected(const Compressor& codec, const History& h, std::size_t which,
              const std::vector<byte_t>& bad) {
  auto store = std::make_unique<MemoryStore>();
  for (std::size_t v = 0; v < h.streams.size(); ++v)
    store->write(static_cast<int>(v), v == which ? bad : h.streams[v]);
  CheckpointManager mgr(std::move(store), &codec);
  Vector x, y;
  std::vector<byte_t> blob;
  mgr.protect(0, "x", &x);
  mgr.protect(1, "y", &y);
  mgr.protect_blob(2, "blob", &blob);
  try {
    mgr.recover();
  } catch (const corrupt_stream_error&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-corrupt_stream_error exception: " << e.what();
    return true;
  }
  return false;
}

/// Stream offsets of the header fields the mutation sweep rewrites.
struct Field {
  std::string name;
  std::size_t offset;  // into the stream
  std::size_t width;
  std::uint64_t value;
};

/// Walk the metadata of `s` (layout per frame_stream.hpp) and list every
/// elem_count, chunk_elems, chunk_count and blob size, plus the header's
/// base version and chain length.
std::vector<Field> header_fields(const std::vector<byte_t>& s) {
  std::vector<std::size_t> at;  // stream offset of each metadata byte
  std::size_t pos = kStreamHeaderBytes;
  while (s[pos] != 0) {
    const auto comp_len = load<std::uint32_t>(s, pos + 5);
    if (static_cast<FrameStyle>(s[pos]) == FrameStyle::kMeta)
      for (std::size_t k = 0; k < comp_len; ++k)
        at.push_back(pos + kFrameHeaderBytes + k);
    pos += kFrameHeaderBytes + comp_len;
  }
  std::size_t m = 0;
  const auto next = [&](std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < width; ++k)
      v |= std::uint64_t{s[at[m + k]]} << (8 * k);
    m += width;
    return v;
  };
  std::vector<Field> fields{{"base_version", 6, 4, load<std::uint32_t>(s, 6)},
                            {"chain_len", 10, 4, load<std::uint32_t>(s, 10)}};
  const auto field = [&](const char* name, std::size_t width) {
    const std::size_t offset = at[m];
    fields.push_back({name, offset, width, next(width)});
  };
  const auto vars = next(4);
  for (std::uint64_t i = 0; i < vars; ++i) {
    next(4);        // id
    m += next(4);   // name
    if (next(1) == 0) {
      m += next(4);  // codec
      field("elem_count", 8);
      field("chunk_elems", 8);
      field("chunk_count", 4);
    } else {
      field("blob_size", 8);
      m += fields.back().value;
    }
  }
  return fields;
}

void sweep(const Compressor& codec, const History& h) {
  // The unmutated history recovers exactly.
  EXPECT_FALSE(rejected(codec, h, h.streams.size(), {}));
  Rng rng(0x5eed);
  for (std::size_t which = 0; which < h.streams.size(); ++which) {
    SCOPED_TRACE("stream v" + std::to_string(which));
    const auto& good = h.streams[which];
    for (std::size_t cut = 0; cut < good.size(); ++cut)
      ASSERT_TRUE(rejected(codec, h, which,
                           {good.begin(), good.begin() +
                                              static_cast<std::ptrdiff_t>(cut)}))
          << "truncation at " << cut << " accepted";
    for (int k = 0; k < 400; ++k) {
      auto bad = good;
      const std::size_t bit = rng.uniform_index(bad.size() * 8);
      bad[bit / 8] ^= static_cast<byte_t>(1u << (bit % 8));
      ASSERT_TRUE(rejected(codec, h, which, bad))
          << "bit flip at " << bit << " accepted";
    }
    for (const Field& f : header_fields(good)) {
      const std::uint64_t wide = f.width == 8 ? std::uint64_t{1} << 48
                                              : std::uint64_t{1} << 31;
      for (const std::uint64_t v :
           {f.value + 1, f.value - 1, std::uint64_t{0}, wide,
            f.value ^ 0xffffffffu}) {
        if (f.width == 4 && static_cast<std::uint32_t>(v) == f.value) continue;
        if (v == f.value) continue;
        auto bad = good;
        for (std::size_t k = 0; k < f.width; ++k)
          bad[f.offset + k] = static_cast<byte_t>(v >> (8 * k));
        refresh_crcs(bad);
        ASSERT_TRUE(rejected(codec, h, which, bad))
            << f.name << " " << f.value << " -> " << v << " accepted";
      }
    }
  }
}

/// Each sweep runs over a `none` history, whose vectors are raw frames,
/// and a deflate history, whose vectors are codec frames.
void sweep_both(int versions, bool delta) {
  for (const char* name : {"none", "deflate"}) {
    SCOPED_TRACE(name);
    const auto codec = make_compressor(name);
    sweep(*codec, make_history(*codec, versions, delta));
  }
}

TEST(StreamMutation, FullStream) { sweep_both(1, false); }

TEST(StreamMutation, DeltaStream) { sweep_both(2, true); }

TEST(StreamMutation, TwoLinkChain) { sweep_both(3, true); }

}  // namespace
}  // namespace lck
