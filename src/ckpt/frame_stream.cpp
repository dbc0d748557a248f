#include "ckpt/frame_stream.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace lck {
namespace {

constexpr std::size_t kMaxChunkBytes = kMaxChunkElems * sizeof(double);
/// Frame header bytes covered by the frame CRC (all but the CRC itself).
constexpr std::size_t kFrameCrcSpan = kFrameHeaderBytes - 4;
constexpr std::size_t kStreamCrcSpan = kStreamHeaderBytes - 4;

template <typename T>
void store(byte_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
T load(const byte_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Per-style length invariants, checked before any payload is allocated.
bool plausible_frame(FrameStyle style, std::uint32_t raw_len,
                     std::uint32_t comp_len) noexcept {
  switch (style) {
    case FrameStyle::kMeta:
      return raw_len > 0 && raw_len <= kMetaFrameBytes && comp_len == raw_len;
    case FrameStyle::kRaw:
      return raw_len > 0 && raw_len <= kMaxChunkBytes && comp_len == raw_len;
    case FrameStyle::kCodec:
      return raw_len > 0 && raw_len <= kMaxChunkBytes && comp_len > 0 &&
             comp_len <= codec_payload_bound(raw_len);
    case FrameStyle::kRef:
      return raw_len > 0 && raw_len <= kMaxChunkBytes && comp_len == 0;
  }
  return false;
}

}  // namespace

const char* frame_style_name(FrameStyle style) noexcept {
  switch (style) {
    case FrameStyle::kRaw: return "raw";
    case FrameStyle::kCodec: return "codec";
    case FrameStyle::kRef: return "ref";
    case FrameStyle::kMeta: return "meta";
  }
  return "?";
}

// ----- FrameWriter ----------------------------------------------------------

FrameWriter::FrameWriter(ByteSink& sink, int base_version,
                         std::uint32_t chain_len, obs::Sink obs)
    : sink_(sink), obs_(obs) {
  require((base_version < 0) == (chain_len == 0),
          "frame stream: a delta needs a base, a full checkpoint none");
  byte_t header[kStreamHeaderBytes];
  store(header, kFrameStreamMagic);
  store(header + 4, kFrameStreamVersion);
  store(header + 6, static_cast<std::int32_t>(base_version));
  store(header + 10, chain_len);
  store(header + kStreamCrcSpan, crc32({header, kStreamCrcSpan}));
  emit(header);
}

void FrameWriter::put_string(const std::string& s) {
  require(s.size() <= kMaxStreamStringBytes, "frame stream: string too long");
  put(static_cast<std::uint32_t>(s.size()));
  put_bytes({reinterpret_cast<const byte_t*>(s.data()), s.size()});
}

void FrameWriter::put_bytes(std::span<const byte_t> bytes) {
  require(!finished_, "frame stream: write after finish");
  while (!bytes.empty()) {
    const std::size_t n =
        std::min(kMetaFrameBytes - meta_.size(), bytes.size());
    meta_.insert(meta_.end(), bytes.begin(), bytes.begin() + n);
    bytes = bytes.subspan(n);
    if (meta_.size() == kMetaFrameBytes) flush_meta();
  }
}

void FrameWriter::put_raw_chunk(std::span<const byte_t> raw,
                                std::uint64_t hash) {
  require(!raw.empty() && raw.size() <= kMaxChunkBytes,
          "frame stream: chunk size out of range");
  flush_meta();
  emit_frame(FrameStyle::kRaw, raw.size(), raw, hash);
}

void FrameWriter::put_codec_chunk(std::span<const byte_t> payload,
                                  std::size_t raw_len, std::uint64_t hash) {
  require(raw_len > 0 && raw_len <= kMaxChunkBytes && !payload.empty() &&
              payload.size() <= codec_payload_bound(raw_len),
          "frame stream: codec chunk size out of range");
  flush_meta();
  emit_frame(FrameStyle::kCodec, raw_len, payload, hash);
}

void FrameWriter::put_ref_chunk(std::size_t raw_len, std::uint64_t hash) {
  require(raw_len > 0 && raw_len <= kMaxChunkBytes,
          "frame stream: chunk size out of range");
  flush_meta();
  emit_frame(FrameStyle::kRef, raw_len, {}, hash);
}

void FrameWriter::flush_meta() {
  require(!finished_, "frame stream: write after finish");
  if (meta_.empty()) return;
  emit_frame(FrameStyle::kMeta, meta_.size(), meta_, 0);
  meta_.clear();
}

void FrameWriter::emit_frame(FrameStyle style, std::size_t raw_len,
                             std::span<const byte_t> payload,
                             std::uint64_t hash) {
  byte_t header[kFrameHeaderBytes];
  header[0] = static_cast<byte_t>(style);
  store(header + 1, static_cast<std::uint32_t>(raw_len));
  store(header + 5, static_cast<std::uint32_t>(payload.size()));
  store(header + 9, hash);
  Crc32 crc;
  crc.update({header, kFrameCrcSpan});
  crc.update(payload);
  store(header + kFrameCrcSpan, crc.value());
  // Pending metadata and the write buffer coexist right now — this is the
  // writer's high-water mark.
  peak_ = std::max(peak_, meta_.size() + wbuf_.size() + kFrameHeaderBytes);
  emit(header);
  emit(payload);
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("frame.frames", 1.0, {{"style", frame_style_name(style)}});
    obs_.metrics->observe("frame.stored_bytes",
                          static_cast<double>(payload.size()));
    if (!payload.empty())
      obs_.metrics->observe("frame.comp_ratio",
                            static_cast<double>(raw_len) /
                                static_cast<double>(payload.size()));
  }
}

void FrameWriter::emit(std::span<const byte_t> bytes) {
  total_ += bytes.size();
  if (wbuf_.size() + bytes.size() > kWriteBufferBytes) flush_wbuf();
  if (bytes.size() >= kWriteBufferBytes) {
    sink_.append(bytes);  // oversized: hand straight to the sink
    return;
  }
  wbuf_.insert(wbuf_.end(), bytes.begin(), bytes.end());
}

void FrameWriter::flush_wbuf() {
  if (wbuf_.empty()) return;
  sink_.append(wbuf_);
  wbuf_.clear();
}

void FrameWriter::finish() {
  flush_meta();
  const byte_t terminator[kFrameHeaderBytes] = {};
  emit(terminator);
  flush_wbuf();
  finished_ = true;
}

// ----- FrameReader ----------------------------------------------------------

FrameReader::FrameReader(ByteSource& src) : src_(src) {
  byte_t header[kStreamHeaderBytes];
  read_exact(header, "stream header");
  if (load<std::uint32_t>(header) != kFrameStreamMagic)
    throw corrupt_stream_error("frame stream: bad magic");
  if (load<std::uint32_t>(header + kStreamCrcSpan) !=
      crc32({header, kStreamCrcSpan}))
    throw corrupt_stream_error("frame stream: header CRC mismatch");
  const auto version = load<std::uint16_t>(header + 4);
  if (version != kFrameStreamVersion)
    throw corrupt_stream_error("frame stream: unsupported version " +
                               std::to_string(version));
  base_ = load<std::int32_t>(header + 6);
  chain_len_ = load<std::uint32_t>(header + 10);
  if (base_ < -1 || (base_ < 0) != (chain_len_ == 0))
    throw corrupt_stream_error("frame stream: inconsistent delta base");
}

void FrameReader::read_exact(std::span<byte_t> dst, const char* what) {
  const std::size_t got = read_fully(src_, dst);
  total_ += got;
  if (got != dst.size())
    throw corrupt_stream_error(std::string("frame stream: truncated ") + what);
}

bool FrameReader::read_frame() {
  if (at_end_)
    throw corrupt_stream_error("frame stream: read past end of stream");
  byte_t header[kFrameHeaderBytes];
  read_exact(header, "frame header");
  if (header[0] == 0) {
    // Terminator: must be all-zero, anything else is corruption.
    if (std::any_of(header, header + kFrameHeaderBytes,
                    [](byte_t b) { return b != 0; }))
      throw corrupt_stream_error("frame stream: corrupt terminator frame");
    at_end_ = true;
    buf_.clear();
    pos_ = 0;
    return false;
  }
  const auto style = static_cast<FrameStyle>(header[0]);
  const auto raw_len = load<std::uint32_t>(header + 1);
  const auto comp_len = load<std::uint32_t>(header + 5);
  if (!plausible_frame(style, raw_len, comp_len))
    throw corrupt_stream_error("frame stream: implausible frame header");
  buf_.resize(comp_len);
  read_exact(buf_, "frame payload");
  Crc32 crc;
  crc.update({header, kFrameCrcSpan});
  crc.update(buf_);
  if (crc.value() != load<std::uint32_t>(header + kFrameCrcSpan))
    throw corrupt_stream_error("frame stream: frame CRC mismatch");
  style_ = style;
  raw_len_ = raw_len;
  hash_ = load<std::uint64_t>(header + 9);
  pos_ = 0;
  return true;
}

void FrameReader::read_into(std::span<byte_t> out) {
  while (!out.empty()) {
    if (pos_ == buf_.size()) {
      if (!read_frame())
        throw corrupt_stream_error("frame stream: metadata past end of stream");
      if (style_ != FrameStyle::kMeta)
        throw corrupt_stream_error("frame stream: chunk frame inside metadata");
    }
    const std::size_t n = std::min(out.size(), buf_.size() - pos_);
    std::memcpy(out.data(), buf_.data() + pos_, n);
    pos_ += n;
    out = out.subspan(n);
  }
}

void FrameReader::skip(std::uint64_t n) {
  byte_t scratch[4096];
  while (n > 0) {
    const auto k = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, sizeof scratch));
    read_into({scratch, k});
    n -= k;
  }
}

std::string FrameReader::get_string() {
  const auto n = get<std::uint32_t>();
  if (n > kMaxStreamStringBytes)
    throw corrupt_stream_error("frame stream: implausible string length");
  std::string s(n, '\0');
  read_into({reinterpret_cast<byte_t*>(s.data()), s.size()});
  return s;
}

FrameReader::Chunk FrameReader::next_chunk(std::size_t raw_len) {
  if (pos_ != buf_.size())
    throw corrupt_stream_error("frame stream: unread metadata before a chunk");
  if (!read_frame())
    throw corrupt_stream_error("frame stream: stream ends before its chunks");
  pos_ = buf_.size();
  if (style_ == FrameStyle::kMeta)
    throw corrupt_stream_error("frame stream: metadata where a chunk belongs");
  if (raw_len_ != raw_len)
    throw corrupt_stream_error("frame stream: chunk length disagrees with "
                               "the variable's chunk geometry");
  return {style_, hash_, buf_};
}

void FrameReader::expect_end() {
  if (pos_ != buf_.size())
    throw corrupt_stream_error("frame stream: trailing metadata bytes");
  if (!at_end_ && read_frame())
    throw corrupt_stream_error(
        "frame stream: expected terminator, found another frame");
  byte_t probe;
  if (src_.read_some({&probe, 1}) != 0)
    throw corrupt_stream_error("frame stream: trailing bytes after terminator");
}

// ----- header-only views ----------------------------------------------------

std::optional<int> peek_base_version(std::span<const byte_t> stream) noexcept {
  if (stream.size() < kStreamHeaderBytes ||
      load<std::uint32_t>(stream.data()) != kFrameStreamMagic ||
      load<std::uint16_t>(stream.data() + 4) != kFrameStreamVersion ||
      load<std::uint32_t>(stream.data() + kStreamCrcSpan) !=
          crc32(stream.first(kStreamCrcSpan)))
    return std::nullopt;
  return load<std::int32_t>(stream.data() + 6);
}

std::optional<std::vector<std::span<const byte_t>>> chunk_payloads(
    std::span<const byte_t> stream) {
  if (!peek_base_version(stream)) return std::nullopt;
  std::vector<std::span<const byte_t>> out;
  std::size_t pos = kStreamHeaderBytes;
  while (stream.size() - pos >= kFrameHeaderBytes) {
    const byte_t* h = stream.data() + pos;
    const auto style = static_cast<FrameStyle>(h[0]);
    const auto comp_len = load<std::uint32_t>(h + 5);
    pos += kFrameHeaderBytes;
    if (h[0] == 0) {
      if (pos != stream.size()) return std::nullopt;
      return out;
    }
    if (comp_len > stream.size() - pos) return std::nullopt;
    if ((style == FrameStyle::kRaw || style == FrameStyle::kCodec) &&
        comp_len > 0)
      out.push_back(stream.subspan(pos, comp_len));
    pos += comp_len;
  }
  return std::nullopt;  // no terminator
}

}  // namespace lck
