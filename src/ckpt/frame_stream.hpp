#pragma once
/// \file frame_stream.hpp
/// \brief The checkpoint wire format: one framed, chunk-addressed stream,
///        written and read frame by frame with bounded memory.
///
/// Every checkpoint — full or delta, sync or staged — is one stream. Each
/// chunk of a protected vector is one frame; variable headers and blob
/// bytes travel in metadata frames between them. FrameWriter pushes frames
/// through a small coalescing write buffer straight into a store-provided
/// ByteSink, so peak writer memory is one metadata frame plus the write
/// buffer, independent of checkpoint size. The writer compresses nothing:
/// a chunk is either the variable's codec stream, produced by the caller,
/// or its raw doubles. FrameReader is the inverse, one frame at a time.
///
/// On-wire layout (all integers little-endian):
///
///   stream     := header frame* terminator
///   header     := magic:u32 ("FKPT") version:u16 base:i32 chain_len:u32
///                 crc32:u32                              (18 bytes)
///   frame      := style:u8 raw_len:u32 comp_len:u32 hash:u64 crc32:u32
///                 payload[comp_len]                      (21-byte header)
///   terminator := 21 zero bytes
///
/// The header CRC covers the 14 bytes before it; a frame CRC covers the 17
/// header bytes before it plus the payload, so every field is checked.
/// `base` is the version a delta's references resolve against and
/// `chain_len` the number of deltas down to the chain's full checkpoint: a
/// full checkpoint is a stream with base -1 and chain_len 0.
///
/// Frame styles (closed set, numbering follows fd_checkpt's RAW=1):
///
///   1 raw      chunk of a `none`-codec variable: its doubles, stored as is
///              (the paper's traditional checkpoint)
///   4 codec    chunk compressed by the variable's Compressor; the payload
///              is that codec's stream for exactly this slice
///   5 ref      chunk with no payload: its content is the literal chunk with
///              the same hash earlier in this stream or down the base chain
///   6 meta     a piece of the metadata byte stream below, verbatim
///
/// Styles 2 and 3 (verbatim chunks the writer itself LZ4- or
/// deflate-compressed) existed up to format version 2 and are retired: a
/// chunk is compressed only by its variable's codec, and a version-2
/// stream is refused at its header. raw_len is the chunk's raw byte size
/// (the meta payload size for meta frames); hash is the CRC-64 of the
/// chunk's raw doubles in delta mode and 0 otherwise.
///
/// Metadata (carried by meta frames, read as one byte stream):
///
///   var_count:u32, then per variable  id:i32 name:str kind:u8
///     kind 0 (vector): codec:str elem_count:u64 chunk_elems:u64
///                      chunk_count:u32 — followed by chunk_count chunk
///                      frames, in order
///     kind 1 (blob):   size:u64 bytes[size]
///   str := len:u32 bytes[len]
///
/// A vector of n doubles is cut into chunks of kChunkElems in a full
/// checkpoint and of the manager's delta chunk size in delta mode; the
/// recorded chunk_elems is min(that size, max(n, 1)), so a one-chunk vector
/// records its own length and every geometry field is pinned by the
/// others. DedupChunkStore splits stored streams at the payload-carrying
/// chunk frames; TieredCheckpointStore reads `base` from the header.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/byte_stream.hpp"
#include "common/types.hpp"
#include "obs/observability.hpp"

namespace lck {

/// Magic prefix of checkpoint streams ("FKPT", little-endian).
inline constexpr std::uint32_t kFrameStreamMagic = 0x54504b46u;
/// Format version; streams of any other version are rejected.
inline constexpr std::uint16_t kFrameStreamVersion = 3;
inline constexpr std::size_t kStreamHeaderBytes = 4 + 2 + 4 + 4 + 4;
inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4 + 8 + 4;
/// Chunk size of a full checkpoint, in doubles: a vector is one chunk up to
/// this size and is cut into chunks of this size above it.
inline constexpr std::size_t kChunkElems = std::size_t{1} << 16;
/// Largest chunk the format admits (the delta chunk size is bounded by it).
inline constexpr std::size_t kMaxChunkElems = std::size_t{1} << 20;
/// Metadata is cut into frames of at most this many bytes.
inline constexpr std::size_t kMetaFrameBytes = std::size_t{64} << 10;
/// Strings inside checkpoint streams are variable and codec names; cap them
/// so a corrupt length prefix cannot demand a large allocation.
inline constexpr std::size_t kMaxStreamStringBytes = std::size_t{1} << 20;
/// Size of the writer's coalescing buffer in front of the store sink; an
/// emit of at least this many bytes bypasses it.
inline constexpr std::size_t kWriteBufferBytes = std::size_t{256} << 10;

/// Plausibility cap for a codec chunk payload: no in-tree codec expands
/// beyond ~2x (all have stored fallbacks), so 4x the raw chunk plus slack
/// can only mean a corrupt length field — rejected before the allocation.
constexpr std::size_t codec_payload_bound(std::size_t raw_bytes) noexcept {
  return raw_bytes * 4 + (std::size_t{1} << 20);
}

enum class FrameStyle : std::uint8_t {
  kRaw = 1,
  kCodec = 4,
  kRef = 5,
  kMeta = 6,
};

[[nodiscard]] const char* frame_style_name(FrameStyle style) noexcept;

/// How a vector of `elems` doubles splits into chunks of `chunk_elems`.
struct ChunkGeometry {
  std::size_t elems = 0;
  std::size_t chunk_elems = 1;

  constexpr ChunkGeometry(std::size_t n, std::size_t chunk) noexcept
      : elems(n), chunk_elems(chunk == 0 ? 1 : chunk) {}

  [[nodiscard]] constexpr std::size_t count() const noexcept {
    return elems == 0 ? 0 : (elems - 1) / chunk_elems + 1;
  }
  [[nodiscard]] constexpr std::size_t begin(std::size_t c) const noexcept {
    return c * chunk_elems;
  }
  [[nodiscard]] constexpr std::size_t length(std::size_t c) const noexcept {
    return elems - begin(c) < chunk_elems ? elems - begin(c) : chunk_elems;
  }
};

/// Writes one checkpoint stream into `sink`. Metadata goes through put*(),
/// vector chunks through the put_*_chunk() calls, in stream order. Call
/// finish() exactly once after the last put; the destructor does not write
/// the terminator (an abandoned writer leaves a detectably-truncated
/// stream, which is the correct crash semantic).
class FrameWriter {
 public:
  /// `obs`: optional metrics handle; when its registry is non-null each
  /// frame records its size and compression ratio (frame.* series).
  explicit FrameWriter(ByteSink& sink, int base_version = -1,
                       std::uint32_t chain_len = 0, obs::Sink obs = {});

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    put_bytes({reinterpret_cast<const byte_t*>(&v), sizeof(T)});
  }

  /// Length-prefixed string (u32 length + bytes).
  void put_string(const std::string& s);

  /// Append metadata bytes, flushing full meta frames as they fill.
  void put_bytes(std::span<const byte_t> bytes);

  /// Chunk of verbatim doubles, stored as is.
  void put_raw_chunk(std::span<const byte_t> raw, std::uint64_t hash);
  /// Chunk compressed by the variable's codec; `raw_len` is its raw size.
  void put_codec_chunk(std::span<const byte_t> payload, std::size_t raw_len,
                       std::uint64_t hash);
  /// Reference to the literal chunk with content hash `hash`.
  void put_ref_chunk(std::size_t raw_len, std::uint64_t hash);

  /// Flush pending metadata, write the terminator, drain the write buffer.
  /// Does NOT call sink.finish() — sealing the sink is the caller's job.
  void finish();

  /// Total bytes emitted to the sink so far (the final stream size once
  /// finish() has run).
  [[nodiscard]] std::size_t stream_bytes() const noexcept { return total_; }

  /// High-water mark of bytes buffered inside the writer — pending
  /// metadata + write buffer + one header.
  [[nodiscard]] std::size_t peak_buffered_bytes() const noexcept {
    return peak_;
  }

 private:
  void flush_meta();
  void emit_frame(FrameStyle style, std::size_t raw_len,
                  std::span<const byte_t> payload, std::uint64_t hash);
  void emit(std::span<const byte_t> bytes);
  void flush_wbuf();

  ByteSink& sink_;
  obs::Sink obs_{};
  std::vector<byte_t> meta_;  // metadata frame under construction
  std::vector<byte_t> wbuf_;  // coalescing buffer in front of the sink
  std::size_t total_ = 0;
  std::size_t peak_ = 0;
  bool finished_ = false;
};

/// Reads one checkpoint stream, one frame at a time. Throws
/// corrupt_stream_error on any malformed, truncated, or CRC-failing input,
/// and checks every length against the format's bounds before allocating.
class FrameReader {
 public:
  /// Reads and checks the stream header.
  explicit FrameReader(ByteSource& src);

  [[nodiscard]] int base_version() const noexcept { return base_; }
  [[nodiscard]] std::uint32_t chain_len() const noexcept { return chain_len_; }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T v;
    read_into({reinterpret_cast<byte_t*>(&v), sizeof(T)});
    return v;
  }

  std::string get_string();

  /// Fill `out` completely from the metadata stream.
  void read_into(std::span<byte_t> out);

  /// Consume `n` metadata bytes without keeping them.
  void skip(std::uint64_t n);

  struct Chunk {
    FrameStyle style = FrameStyle::kRaw;
    std::uint64_t hash = 0;
    /// Raw doubles for kRaw, the codec stream for kCodec, empty for kRef.
    /// Valid until the next read.
    std::span<const byte_t> payload;
  };

  /// Read the next frame, which must be a chunk frame of `raw_len` raw
  /// bytes; all metadata before it must have been consumed.
  Chunk next_chunk(std::size_t raw_len);

  /// Assert a clean end: metadata consumed, terminator present, source
  /// exhausted.
  void expect_end();

  /// Bytes consumed from the source, header included.
  [[nodiscard]] std::size_t stream_bytes() const noexcept { return total_; }

 private:
  /// Read the next frame into buf_ (CRC-checked); false at the terminator.
  bool read_frame();
  void read_exact(std::span<byte_t> dst, const char* what);

  ByteSource& src_;
  int base_ = -1;
  std::uint32_t chain_len_ = 0;
  FrameStyle style_ = FrameStyle::kMeta;  // of the frame in buf_
  std::uint32_t raw_len_ = 0;
  std::uint64_t hash_ = 0;
  std::vector<byte_t> buf_;  // payload of the current frame
  std::size_t pos_ = 0;      // metadata consumed from buf_
  std::size_t total_ = 0;
  bool at_end_ = false;
};

/// Base version recorded in a stream's header, or nullopt when `stream`
/// does not start with a valid header.
[[nodiscard]] std::optional<int> peek_base_version(
    std::span<const byte_t> stream) noexcept;

/// Payloads of the chunk frames that carry one (styles raw and codec), in
/// stream order, viewing into `stream`; nullopt when
/// `stream` is not a complete frame sequence. Frame CRCs are not checked.
[[nodiscard]] std::optional<std::vector<std::span<const byte_t>>>
chunk_payloads(std::span<const byte_t> stream);

}  // namespace lck
