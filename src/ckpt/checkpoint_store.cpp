#include "ckpt/checkpoint_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/file_io.hpp"

namespace lck {

namespace fs = std::filesystem;

// ----- CheckpointStore default pending implementation -----------------------

void CheckpointStore::write_pending(int version, std::span<const byte_t> data) {
  const std::lock_guard<std::mutex> lock(pending_mu_);
  pending_[version].assign(data.begin(), data.end());
}

void CheckpointStore::commit(int version) {
  std::vector<byte_t> data;
  {
    const std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = pending_.find(version);
    require(it != pending_.end(), "checkpoint store: commit of a version "
                                  "without a pending write");
    data = std::move(it->second);
    pending_.erase(it);
  }
  write(version, data);
}

void CheckpointStore::abort(int version) {
  const std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.erase(version);
}

bool CheckpointStore::has_pending(int version) const {
  const std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.contains(version);
}

namespace {

/// Default streaming sink: accumulate in memory, hand the blob to the
/// store's (virtual) write_pending on finish. Correct for every backend;
/// bounded-memory only for backends that override open_write_pending.
class BufferedPendingSink final : public ByteSink {
 public:
  BufferedPendingSink(CheckpointStore& store, int version)
      : store_(store), version_(version) {}
  void append(std::span<const byte_t> bytes) override {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void finish() override { store_.write_pending(version_, buf_); }

 private:
  CheckpointStore& store_;
  int version_;
  std::vector<byte_t> buf_;
};

}  // namespace

std::unique_ptr<ByteSink> CheckpointStore::open_write_pending(int version) {
  return std::make_unique<BufferedPendingSink>(*this, version);
}

std::unique_ptr<ByteSource> CheckpointStore::open_read(int version) const {
  return std::make_unique<OwningSource>(read(version));
}

// ----- MemoryStore ----------------------------------------------------------

void MemoryStore::write(int version, std::span<const byte_t> data) {
  blobs_[version].assign(data.begin(), data.end());
}

std::vector<byte_t> MemoryStore::read(int version) const {
  const auto it = blobs_.find(version);
  if (it == blobs_.end())
    throw corrupt_stream_error("memory store: no checkpoint version " +
                               std::to_string(version));
  return it->second;
}

bool MemoryStore::exists(int version) const {
  return blobs_.contains(version);
}

void MemoryStore::remove(int version) { blobs_.erase(version); }

int MemoryStore::latest_version() const {
  return blobs_.empty() ? -1 : blobs_.rbegin()->first;
}

// ----- DiskStore ------------------------------------------------------------

DiskStore::DiskStore(std::string directory) : dir_(std::move(directory)) {
  fs::create_directories(dir_);
  // A .lck.pending file is by definition an uncommitted leftover (the
  // process died between write_pending and commit); sweep them on open so
  // crashed runs cannot accumulate full-size orphan blobs. The directory
  // is owned by one store at a time.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("ckpt_") &&
        (name.ends_with(".lck.pending") || name.ends_with(".tmp"))) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }
  }
}

std::string DiskStore::path_for(int version) const {
  return dir_ + "/ckpt_" + std::to_string(version) + ".lck";
}

std::string DiskStore::pending_path_for(int version) const {
  return path_for(version) + ".pending";
}

void DiskStore::write(int version, std::span<const byte_t> data) {
  atomic_write_file(path_for(version), data);  // tmp + rename: atomic commit
}

std::vector<byte_t> DiskStore::read(int version) const {
  if (!fs::exists(path_for(version)))
    throw corrupt_stream_error("disk store: no checkpoint version " +
                               std::to_string(version));
  return read_file_bytes(path_for(version));
}

bool DiskStore::exists(int version) const {
  return fs::exists(path_for(version));
}

void DiskStore::remove(int version) {
  std::error_code ec;
  fs::remove(path_for(version), ec);
}

int DiskStore::latest_version() const {
  int latest = -1;
  if (!fs::exists(dir_)) return latest;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    // ".lck.pending" files are staged drains, not committed checkpoints.
    if (const auto v = parse_versioned_name(name, "ckpt_", ".lck"))
      latest = std::max(latest, *v);
  }
  return latest;
}

void DiskStore::write_pending(int version, std::span<const byte_t> data) {
  const std::string pending_path = pending_path_for(version);
  std::ofstream f(pending_path, std::ios::binary | std::ios::trunc);
  if (!f)
    throw corrupt_stream_error("disk store: cannot open " + pending_path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f)
    throw corrupt_stream_error("disk store: short write " + pending_path);
}

void DiskStore::commit(int version) {
  require(has_pending(version), "checkpoint store: commit of a version "
                                "without a pending write");
  fs::rename(pending_path_for(version), path_for(version));
}

void DiskStore::abort(int version) {
  std::error_code ec;
  fs::remove(pending_path_for(version), ec);
}

bool DiskStore::has_pending(int version) const {
  return fs::exists(pending_path_for(version));
}

namespace {

/// Streams frames to `<pending>.tmp`; finish() flushes and renames to the
/// .pending path, so has_pending() only ever sees complete blobs. A sink
/// destroyed without finish() removes its temporary (crashed drain).
class DiskPendingSink final : public ByteSink {
 public:
  DiskPendingSink(std::string tmp_path, std::string pending_path)
      : tmp_path_(std::move(tmp_path)),
        pending_path_(std::move(pending_path)),
        f_(tmp_path_, std::ios::binary | std::ios::trunc) {
    if (!f_)
      throw corrupt_stream_error("disk store: cannot open " + tmp_path_);
  }

  ~DiskPendingSink() override {
    if (!finished_) {
      f_.close();
      std::error_code ec;
      fs::remove(tmp_path_, ec);
    }
  }

  void append(std::span<const byte_t> bytes) override {
    f_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!f_)
      throw corrupt_stream_error("disk store: short write " + tmp_path_);
  }

  void finish() override {
    f_.close();
    if (f_.fail())
      throw corrupt_stream_error("disk store: close failed " + tmp_path_);
    fs::rename(tmp_path_, pending_path_);
    finished_ = true;
  }

 private:
  std::string tmp_path_;
  std::string pending_path_;
  std::ofstream f_;
  bool finished_ = false;
};

/// Incremental read of a committed checkpoint file.
class DiskSource final : public ByteSource {
 public:
  explicit DiskSource(const std::string& path)
      : f_(path, std::ios::binary) {
    if (!f_) throw corrupt_stream_error("disk store: cannot open " + path);
  }

  [[nodiscard]] std::size_t read_some(std::span<byte_t> dst) override {
    f_.read(reinterpret_cast<char*>(dst.data()),
            static_cast<std::streamsize>(dst.size()));
    return static_cast<std::size_t>(f_.gcount());
  }

 private:
  std::ifstream f_;
};

}  // namespace

std::unique_ptr<ByteSink> DiskStore::open_write_pending(int version) {
  const std::string pending = pending_path_for(version);
  return std::make_unique<DiskPendingSink>(pending + ".tmp", pending);
}

std::unique_ptr<ByteSource> DiskStore::open_read(int version) const {
  const std::string path = path_for(version);
  if (!fs::exists(path))
    throw corrupt_stream_error("disk store: no checkpoint version " +
                               std::to_string(version));
  return std::make_unique<DiskSource>(path);
}

}  // namespace lck
