#include "compress/lossless_compressors.hpp"

#include <cstring>

#include "common/byte_buffer.hpp"
#include "compress/lossless/byte_codecs.hpp"
#include "compress/lossless/deflate_like.hpp"

namespace lck {
namespace {

/// One lossless codec: its name and stream magic, whether it shuffles the
/// doubles' bytes before coding, whether its stream records that in a flag
/// byte, and its byte coder.
struct Format {
  const char* name;
  std::uint32_t magic;
  bool shuffle;
  bool flag_byte;
  std::vector<byte_t> (*encode)(std::span<const byte_t>);
  std::vector<byte_t> (*decode)(std::span<const byte_t>, std::size_t);
};

constexpr std::uint32_t kMagicRle = 0x31454c52u;      // "RLE1"
constexpr std::uint32_t kMagicShufRle = 0x31525353u;  // "SSR1"
constexpr std::uint32_t kMagicDeflate = 0x31464544u;  // "DEF1"

constexpr Format kFormats[] = {
    {"rle", kMagicRle, false, false, rle_encode, rle_decode},
    {"shuffle-rle", kMagicShufRle, true, false, rle_encode, rle_decode},
    {"deflate", kMagicDeflate, false, true, deflate_compress,
     deflate_decompress},
    {"shuffle-deflate", kMagicDeflate, true, true, deflate_compress,
     deflate_decompress},
};

class LosslessCompressor final : public Compressor {
 public:
  explicit LosslessCompressor(const Format& f) : f_(f) {}

  [[nodiscard]] std::string name() const override { return f_.name; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }

  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override {
    ByteWriter out;
    out.put(f_.magic);
    out.put(static_cast<std::uint64_t>(data.size()));
    if (f_.flag_byte) out.put(static_cast<std::uint8_t>(f_.shuffle ? 1 : 0));
    std::span<const byte_t> input{
        reinterpret_cast<const byte_t*>(data.data()), data.size_bytes()};
    std::vector<byte_t> shuffled;
    if (f_.shuffle) {
      shuffled = shuffle_bytes(input, sizeof(double));
      input = shuffled;
    }
    const auto enc = f_.encode(input);
    out.put(static_cast<std::uint64_t>(enc.size()));
    out.put_bytes(enc);
    return std::move(out).take();
  }

  /// A stream with a flag byte is unshuffled as its flag says, so either
  /// row of a coder decodes both of its streams.
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override {
    ByteReader in(stream);
    if (in.get<std::uint32_t>() != f_.magic)
      throw corrupt_stream_error(name() + ": bad magic");
    if (in.get<std::uint64_t>() != out.size())
      throw corrupt_stream_error(name() + ": size mismatch");
    const bool shuffled = f_.flag_byte ? in.get<std::uint8_t>() != 0
                                       : f_.shuffle;
    const auto enc_size = in.get<std::uint64_t>();
    auto decoded = f_.decode(in.get_bytes(enc_size), out.size_bytes());
    if (shuffled) decoded = unshuffle_bytes(decoded, sizeof(double));
    if (decoded.size() != out.size_bytes())
      throw corrupt_stream_error(name() + ": byte count mismatch");
    if (!decoded.empty())
      std::memcpy(out.data(), decoded.data(), decoded.size());
  }

 private:
  const Format& f_;
};

}  // namespace

std::unique_ptr<Compressor> make_lossless_compressor(const std::string& name) {
  for (const Format& f : kFormats)
    if (name == f.name) return std::make_unique<LosslessCompressor>(f);
  return nullptr;
}

}  // namespace lck
