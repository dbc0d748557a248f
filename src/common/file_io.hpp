#pragma once
/// \file file_io.hpp
/// \brief Whole-file byte I/O shared by the disk-backed checkpoint stores:
///        bounds-checked read, crash-safe write via the classic
///        write-to-temporary + rename() (atomic on POSIX) pattern, and the
///        strict parse of versioned file names.

#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

/// Write `data` to `path` atomically: the bytes land in `path` + ".tmp"
/// first and are rename()d into place, so readers never observe a torn
/// file and a crash leaves only a sweepable .tmp leftover. The stream is
/// closed and checked before the rename: a small write sits in the stream
/// buffer until that close, so a failed close would otherwise publish a
/// truncated file. Any failure removes the .tmp before the error escapes.
inline void atomic_write_file(const std::string& path,
                              std::span<const byte_t> data) {
  const std::string tmp = path + ".tmp";
  const auto discard_tmp = [&] {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  };
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  if (!f) throw corrupt_stream_error("file io: cannot open " + tmp);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  f.close();
  if (!f) {
    discard_tmp();
    throw corrupt_stream_error("file io: short write " + tmp);
  }
  try {
    std::filesystem::rename(tmp, path);
  } catch (...) {
    discard_tmp();
    throw;
  }
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
