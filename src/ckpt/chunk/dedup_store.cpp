#include "ckpt/chunk/dedup_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ckpt/chunk/chunk_hash.hpp"
#include "ckpt/frame_stream.hpp"
#include "common/byte_buffer.hpp"
#include "common/file_io.hpp"
#include "obs/metrics.hpp"

namespace lck {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kSkelMagic = 0x50554444u;  // "DDUP"

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

DedupChunkStore::DedupChunkStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) load_from_dir();
}

std::string DedupChunkStore::skel_path(int version) const {
  return dir_ + "/skel_" + std::to_string(version) + ".lcks";
}

std::string DedupChunkStore::chunk_path(std::uint64_t hash) const {
  return dir_ + "/chunks/" + hash_hex(hash) + ".chk";
}

std::string DedupChunkStore::legacy_path(int version) const {
  return dir_ + "/ckpt_" + std::to_string(version) + ".lck";
}

void DedupChunkStore::add_chunk_ref(std::uint64_t hash,
                                    std::span<const byte_t> payload) {
  const auto it = chunks_.find(hash);
  if (it != chunks_.end()) {
    ++it->second.refs;
    ++hits_;
    bytes_saved_ += payload.size();
    if (obs_.metrics != nullptr) {
      obs_.metrics->add("chunk.hits", 1.0);
      obs_.metrics->add("chunk.bytes_saved",
                        static_cast<double>(payload.size()));
      obs_.metrics->add("chunk.ref_acquires", 1.0);
    }
    return;
  }
  Chunk c;
  c.size = payload.size();
  c.refs = 1;
  if (dir_.empty())
    c.bytes.assign(payload.begin(), payload.end());
  else
    atomic_write_file(chunk_path(hash), payload);
  chunks_.emplace(hash, std::move(c));
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("chunk.misses", 1.0);
    obs_.metrics->add("chunk.ref_acquires", 1.0);
    obs_.metrics->observe("chunk.stored_bytes",
                          static_cast<double>(payload.size()));
  }
}

void DedupChunkStore::drop_chunk_ref(std::uint64_t hash) {
  const auto it = chunks_.find(hash);
  if (it == chunks_.end()) return;
  if (obs_.metrics != nullptr) obs_.metrics->add("chunk.ref_releases", 1.0);
  if (--it->second.refs <= 0) {
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove(chunk_path(hash), ec);
    }
    chunks_.erase(it);
  }
}

void DedupChunkStore::write(int version, std::span<const byte_t> data) {
  (void)write_counted(version, data);
}

DedupWriteStats DedupChunkStore::write_counted(int version,
                                               std::span<const byte_t> data) {
  // Split at the chunk frames: each payload becomes a chunk keyed by the
  // CRC-64 of its stored bytes, everything between them (stream header,
  // frame headers, metadata) stays in the skeleton. A blob that is not a
  // complete frame stream is stored verbatim: dedup is an optimization,
  // never a gatekeeper.
  Skeleton skel;
  skel.logical_size = data.size();
  std::size_t cursor = 0;
  const auto raw_part = [&](std::size_t end) {
    if (end <= cursor) return;
    Part raw;
    raw.raw.assign(data.begin() + static_cast<std::ptrdiff_t>(cursor),
                   data.begin() + static_cast<std::ptrdiff_t>(end));
    skel.parts.push_back(std::move(raw));
  };
  if (const auto payloads = chunk_payloads(data)) {
    for (const auto payload : *payloads) {
      const auto offset =
          static_cast<std::size_t>(payload.data() - data.data());
      raw_part(offset);
      Part p;
      p.is_chunk = true;
      p.hash = crc64(payload);
      p.size = payload.size();
      skel.parts.push_back(p);
      cursor = offset + payload.size();
    }
  }
  raw_part(data.size());

  // Take the new skeleton's chunk references *before* retiring the old
  // version's: an overwrite with shared content then keeps every shared
  // chunk's refcount above zero (a pure dedup hit) instead of deleting and
  // immediately rewriting its file. The payload bytes are found by
  // replaying the part layout (parts partition the stream in order).
  // A throw anywhere (e.g. ENOSPC writing a chunk or the skeleton) rolls
  // the refs taken by THIS call back, so a failed write never pins chunks
  // a reader cannot reach. The split above touched no shared state,
  // so concurrent writers only serialize on this index/refcount section.
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t hits_before = hits_;
  const std::size_t saved_before = bytes_saved_;
  std::size_t refs_taken = 0;
  std::size_t chunk_parts = 0;
  try {
    std::size_t cursor = 0;
    for (const auto& part : skel.parts) {
      if (part.is_chunk) {
        add_chunk_ref(
            part.hash,
            data.subspan(cursor, static_cast<std::size_t>(part.size)));
        ++refs_taken;
        ++chunk_parts;
        cursor += static_cast<std::size_t>(part.size);
      } else {
        cursor += part.raw.size();
      }
    }
    remove_locked(version);
    if (!dir_.empty()) persist_skeleton(version, skel);
  } catch (...) {
    std::size_t i = 0;
    for (const auto& part : skel.parts) {
      if (!part.is_chunk) continue;
      if (i++ >= refs_taken) break;
      drop_chunk_ref(part.hash);
    }
    throw;
  }
  skeletons_[version] = std::move(skel);
  DedupWriteStats stats;
  stats.hits = hits_ - hits_before;
  stats.bytes_saved = bytes_saved_ - saved_before;
  stats.chunks = chunk_parts;
  return stats;
}

std::vector<byte_t> DedupChunkStore::read(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = skeletons_.find(version);
  if (it == skeletons_.end()) {
    if (legacy_versions_.contains(version))
      return read_file_bytes(legacy_path(version));
    throw corrupt_stream_error("dedup store: no checkpoint version " +
                               std::to_string(version));
  }
  std::vector<byte_t> out;
  out.reserve(it->second.logical_size);
  for (const auto& part : it->second.parts) {
    if (part.is_chunk) {
      const auto ch = chunks_.find(part.hash);
      if (ch == chunks_.end() || ch->second.size != part.size)
        throw corrupt_stream_error("dedup store: missing chunk " +
                                   hash_hex(part.hash));
      if (dir_.empty()) {
        out.insert(out.end(), ch->second.bytes.begin(),
                   ch->second.bytes.end());
      } else {
        const auto payload = read_file_bytes(chunk_path(part.hash));
        if (payload.size() != part.size)
          throw corrupt_stream_error("dedup store: truncated chunk " +
                                     hash_hex(part.hash));
        out.insert(out.end(), payload.begin(), payload.end());
      }
    } else {
      out.insert(out.end(), part.raw.begin(), part.raw.end());
    }
  }
  return out;
}

bool DedupChunkStore::exists(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return skeletons_.contains(version) || legacy_versions_.contains(version);
}

void DedupChunkStore::remove(int version) {
  const std::lock_guard<std::mutex> lock(mu_);
  remove_locked(version);
}

void DedupChunkStore::remove_locked(int version) {
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove(legacy_path(version), ec);
  }
  legacy_versions_.erase(version);
  const auto it = skeletons_.find(version);
  if (it == skeletons_.end()) return;
  // Skeleton file first, then the chunks it referenced: a crash between the
  // two leaves unreferenced chunk files (swept at the next open), never a
  // skeleton pointing at deleted chunks.
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove(skel_path(version), ec);
  }
  for (const auto& part : it->second.parts)
    if (part.is_chunk) drop_chunk_ref(part.hash);
  skeletons_.erase(it);
}

int DedupChunkStore::latest_version() const {
  const std::lock_guard<std::mutex> lock(mu_);
  int latest = skeletons_.empty() ? -1 : skeletons_.rbegin()->first;
  if (!legacy_versions_.empty())
    latest = std::max(latest, *legacy_versions_.rbegin());
  return latest;
}

std::vector<int> DedupChunkStore::versions_in(int lo, int hi) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (auto it = skeletons_.lower_bound(lo);
       it != skeletons_.end() && it->first < hi; ++it)
    out.push_back(it->first);
  for (auto it = legacy_versions_.lower_bound(lo);
       it != legacy_versions_.end() && *it < hi; ++it)
    out.push_back(*it);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t DedupChunkStore::chunk_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return chunks_.size();
}

std::size_t DedupChunkStore::physical_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, skel] : skeletons_)
    for (const auto& part : skel.parts)
      if (!part.is_chunk) total += part.raw.size();
  for (const auto& [h, c] : chunks_) total += c.size;
  return total;
}

std::size_t DedupChunkStore::logical_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [v, skel] : skeletons_) total += skel.logical_size;
  return total;
}

std::size_t DedupChunkStore::dedup_hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t DedupChunkStore::dedup_bytes_saved() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bytes_saved_;
}

void DedupChunkStore::set_observability(obs::Sink sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  obs_ = sink;
}

void DedupChunkStore::persist_skeleton(int version,
                                       const Skeleton& skel) const {
  ByteWriter out;
  out.put(kSkelMagic);
  out.put(static_cast<std::uint64_t>(skel.logical_size));
  out.put(static_cast<std::uint32_t>(skel.parts.size()));
  for (const auto& part : skel.parts) {
    out.put(static_cast<std::uint8_t>(part.is_chunk ? 1 : 0));
    if (part.is_chunk) {
      out.put(part.hash);
      out.put(part.size);
    } else {
      out.put(static_cast<std::uint64_t>(part.raw.size()));
      out.put_bytes(part.raw);
    }
  }
  atomic_write_file(skel_path(version), out.view());
}

void DedupChunkStore::load_from_dir() {
  fs::create_directories(dir_ + "/chunks");
  // A crash inside atomic_write_file leaves a *.tmp behind; sweep them at
  // open like DiskStore sweeps stale .lck.pending files.
  for (const std::string& sub : {std::string(""), std::string("/chunks")}) {
    for (const auto& entry : fs::directory_iterator(dir_ + sub)) {
      if (entry.path().filename().string().ends_with(".tmp")) {
        std::error_code ec;
        fs::remove(entry.path(), ec);
      }
    }
  }
  // Chunk payloads first (skeleton refcounts are rebuilt from skeletons).
  for (const auto& entry : fs::directory_iterator(dir_ + "/chunks")) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".chk") || name.size() != 16 + 4) continue;
    std::uint64_t hash = 0;
    try {
      std::size_t used = 0;
      hash = std::stoull(name.substr(0, 16), &used, 16);
      if (used != 16) continue;  // non-hex leftovers are not ours
    } catch (...) {  // NOLINT: ignore unrelated files
      continue;
    }
    // Payload bytes stay on disk; only the size is indexed (read() loads
    // them on demand), so a directory-backed tier does not mirror the
    // whole PFS in RAM.
    Chunk c;
    c.size = static_cast<std::uint64_t>(entry.file_size());
    c.refs = 0;
    chunks_.emplace(hash, std::move(c));
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    // Pre-dedup DiskStore history (ckpt_<v>.lck) stays readable after the
    // L3 backend swap: the files are indexed as opaque legacy versions and
    // served verbatim.
    if (const auto v = parse_versioned_name(name, "ckpt_", ".lck")) {
      legacy_versions_.insert(*v);
      continue;
    }
    const auto parsed_version = parse_versioned_name(name, "skel_", ".lcks");
    if (!parsed_version) continue;
    const int version = *parsed_version;
    // A skeleton that does not parse, or that references a chunk that is
    // gone (a crash inside remove()'s deletion window), is a dead version:
    // drop it instead of refusing to open — dedup is an optimization,
    // never a gatekeeper.
    Skeleton skel;
    bool ok = true;
    try {
      const std::vector<byte_t> data = read_file_bytes(entry.path().string());
      ByteReader in(data);
      if (in.get<std::uint32_t>() != kSkelMagic)
        throw corrupt_stream_error("dedup store: bad skeleton magic");
      skel.logical_size = static_cast<std::size_t>(in.get<std::uint64_t>());
      const auto part_count = in.get<std::uint32_t>();
      for (std::uint32_t p = 0; p < part_count; ++p) {
        Part part;
        part.is_chunk = in.get<std::uint8_t>() != 0;
        if (part.is_chunk) {
          part.hash = in.get<std::uint64_t>();
          part.size = in.get<std::uint64_t>();
          const auto it = chunks_.find(part.hash);
          if (it == chunks_.end() || it->second.size != part.size)
            throw corrupt_stream_error("dedup store: missing chunk " +
                                       hash_hex(part.hash));
          ++it->second.refs;
        } else {
          const auto len = in.get<std::uint64_t>();
          const auto bytes = in.get_bytes(len);
          part.raw.assign(bytes.begin(), bytes.end());
        }
        skel.parts.push_back(std::move(part));
      }
    } catch (const corrupt_stream_error&) {
      ok = false;
    }
    if (ok) {
      skeletons_[version] = std::move(skel);
    } else {
      // Roll back the refcounts the partial parse took — decrement only
      // (no file deletion: a later skeleton may still claim the chunk; the
      // orphan sweep below reclaims whatever stays unreferenced).
      for (const auto& part : skel.parts)
        if (part.is_chunk)
          if (const auto it = chunks_.find(part.hash); it != chunks_.end())
            --it->second.refs;
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }
  }
  // Chunks nothing references are a removed run's garbage; sweep them like
  // DiskStore sweeps stale .lck.pending files.
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs == 0) {
      std::error_code ec;
      fs::remove(chunk_path(it->first), ec);
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace lck
