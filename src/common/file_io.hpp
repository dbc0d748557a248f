#pragma once
/// \file file_io.hpp
/// \brief Whole-file byte I/O shared by the disk-backed checkpoint stores:
///        bounds-checked read, the one crash-safe publish (write to a
///        temporary, then rename()), and the strict parse of versioned
///        file names.

#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_stream.hpp"
#include "common/types.hpp"

namespace lck {

/// Read an entire file. Throws corrupt_stream_error if the file cannot be
/// opened or the read comes up short.
[[nodiscard]] inline std::vector<byte_t> read_file_bytes(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw corrupt_stream_error("file io: cannot open " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::vector<byte_t> data(size);
  f.read(reinterpret_cast<char*>(data.data()),
         static_cast<std::streamsize>(size));
  if (!f) throw corrupt_stream_error("file io: short read " + path);
  return data;
}

/// Publishes a file atomically: bytes stream into `path` + ".tmp", and
/// finish() closes and checks that file, then rename()s it to `path`
/// (atomic on POSIX), so readers never observe a torn file. The close is
/// checked because a small write sits in the stream buffer until then, and
/// a failed close would otherwise publish a truncated file. A sink
/// destroyed without a successful finish() (a failed write, a crashed
/// drain) removes its .tmp, so a crash leaves at most a sweepable .tmp.
class AtomicFileSink final : public ByteSink {
 public:
  explicit AtomicFileSink(std::string path)
      : tmp_path_(path + ".tmp"),
        path_(std::move(path)),
        f_(tmp_path_, std::ios::binary | std::ios::trunc) {
    if (!f_) throw corrupt_stream_error("file io: cannot open " + tmp_path_);
  }

  ~AtomicFileSink() override {
    if (!finished_) {
      f_.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path_, ec);
    }
  }

  void append(std::span<const byte_t> bytes) override {
    f_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!f_) throw corrupt_stream_error("file io: short write " + tmp_path_);
  }

  void finish() override {
    f_.close();
    if (f_.fail())
      throw corrupt_stream_error("file io: close failed " + tmp_path_);
    std::filesystem::rename(tmp_path_, path_);
    finished_ = true;
  }

 private:
  std::string tmp_path_;
  std::string path_;
  std::ofstream f_;
  bool finished_ = false;
};

/// Write `data` to `path` through an AtomicFileSink.
inline void atomic_write_file(const std::string& path,
                              std::span<const byte_t> data) {
  AtomicFileSink sink(path);
  sink.append(data);
  sink.finish();
}

/// Version of a file named exactly `<prefix><digits><suffix>` with the
/// digits in canonical form (no sign, no leading zero), or nullopt for any
/// other name: a stray "ckpt_12 (copy).lck" or "ckpt_007.lck" must not
/// register a version whose canonical file does not exist.
[[nodiscard]] inline std::optional<int> parse_versioned_name(
    std::string_view name, std::string_view prefix, std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix))
    return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  int v = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec != std::errc{} || end != digits.data() + digits.size() || v < 0 ||
      digits != std::to_string(v))
    return std::nullopt;
  return v;
}

}  // namespace lck
