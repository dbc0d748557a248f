#pragma once
/// \file dedup_store.hpp
/// \brief Content-addressed checkpoint store: checkpoint streams are split
///        at their chunk frames (ckpt/frame_stream.hpp) into a skeleton
///        (stream and frame headers, metadata) plus chunk payloads keyed by
///        the CRC-64 of their bytes, so identical chunks across versions —
///        and across runs, via the on-disk chunk index — are stored once.
///
/// This is the L3 dedup of the tiered hierarchy: promotion hands the PFS
/// tier a version's full stream, and the store keeps only the chunks not
/// already resident. `read()` reassembles the original stream byte-exactly,
/// so every reader stays dedup-agnostic. Blobs that are not a complete
/// frame stream are stored verbatim (single raw part) — the store never
/// changes observable bytes.
///
/// Thread-safety: *internally* synchronized, unlike the other backends.
/// One DedupChunkStore is the shared L3 of the multi-tenant
/// CheckpointService, where N jobs' promotion workers write genuinely
/// concurrently — each job's TieredCheckpointStore level lock serializes
/// only that job's traffic, so refcount acquire/release, the skeleton
/// index and the hit counters are guarded by one internal mutex here.
/// (Single-tenant stacks pay one uncontended lock per call.)

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hpp"

namespace lck {

/// What one DedupChunkStore::write_counted() call did — the deltas of the
/// cumulative counters, captured atomically under the store's lock so a
/// multi-tenant caller can attribute them to the writing job (two separate
/// before/after reads would interleave with concurrent writers).
struct DedupWriteStats {
  std::size_t hits = 0;         ///< Chunk writes satisfied by residency.
  std::size_t bytes_saved = 0;  ///< Payload bytes those hits avoided.
  std::size_t chunks = 0;       ///< Chunk parts in the written stream.
};

class DedupChunkStore final : public CheckpointStore {
 public:
  /// `dir` empty ⇒ fully in-memory. Otherwise chunks persist under
  /// `dir`/chunks/<hash>.chk and skeletons as `dir`/skel_<version>.lcks;
  /// reopening rebuilds the index, so a new run dedups against the chunks
  /// the previous run left behind. Chunks no skeleton references are swept
  /// at open (the referencing versions are gone, so they are garbage).
  explicit DedupChunkStore(std::string dir = "");

  void write(int version, std::span<const byte_t> data) override;
  /// write() plus an atomic report of what this call deduplicated — the
  /// multi-tenant service records the deltas as per-job labeled metrics.
  DedupWriteStats write_counted(int version, std::span<const byte_t> data);
  [[nodiscard]] std::vector<byte_t> read(int version) const override;
  [[nodiscard]] bool exists(int version) const override;
  void remove(int version) override;
  [[nodiscard]] int latest_version() const override;
  /// Committed (skeleton or legacy) versions in [lo, hi), ascending — how a
  /// namespace view over the shared store enumerates its own key range.
  [[nodiscard]] std::vector<int> versions_in(int lo, int hi) const;

  // ----- dedup accounting ---------------------------------------------------
  /// Unique chunk payloads resident.
  [[nodiscard]] std::size_t chunk_count() const;
  /// Bytes actually resident: skeleton raw bytes + unique chunk bytes.
  [[nodiscard]] std::size_t physical_bytes() const;
  /// Bytes the stored versions reassemble to (what a dedup-less store
  /// would hold).
  [[nodiscard]] std::size_t logical_bytes() const;
  /// Chunk writes satisfied by an already-resident chunk (cumulative).
  [[nodiscard]] std::size_t dedup_hits() const;
  /// Payload bytes those hits avoided re-storing (cumulative).
  [[nodiscard]] std::size_t dedup_bytes_saved() const;

  /// Attach observability handles: records chunk hit/miss counters, bytes
  /// saved, and refcount churn into the registry (chunk.* series).
  void set_observability(obs::Sink sink) override;

 private:
  struct Part {
    bool is_chunk = false;
    std::vector<byte_t> raw;   ///< is_chunk == false
    std::uint64_t hash = 0;    ///< is_chunk == true
    std::uint64_t size = 0;    ///< chunk payload size (redundant check)
  };
  struct Skeleton {
    std::vector<Part> parts;
    std::size_t logical_size = 0;
  };
  struct Chunk {
    /// In-memory mode: the payload. Directory mode: empty — payloads live
    /// in `dir`/chunks/<hash>.chk and read() loads them on demand, so the
    /// PFS tier is not mirrored in RAM.
    std::vector<byte_t> bytes;
    std::uint64_t size = 0;
    int refs = 0;
  };

  void add_chunk_ref(std::uint64_t hash, std::span<const byte_t> payload);
  void drop_chunk_ref(std::uint64_t hash);
  void remove_locked(int version);
  void persist_skeleton(int version, const Skeleton& skel) const;
  [[nodiscard]] std::string skel_path(int version) const;
  [[nodiscard]] std::string chunk_path(std::uint64_t hash) const;
  [[nodiscard]] std::string legacy_path(int version) const;
  void load_from_dir();

  /// Guards every member below (and the chunk/skeleton files' lifecycle):
  /// the service's promotion pool makes concurrent writers the norm, so
  /// refcounts, the indexes and the counters are one critical section.
  mutable std::mutex mu_;
  std::string dir_;  ///< Empty ⇒ in-memory only.
  std::map<int, Skeleton> skeletons_;
  std::map<std::uint64_t, Chunk> chunks_;
  /// Versions a pre-dedup DiskStore left in the directory as ckpt_<v>.lck
  /// files; served verbatim so the backend swap cannot orphan old history.
  std::set<int> legacy_versions_;
  std::size_t hits_ = 0;
  std::size_t bytes_saved_ = 0;
  obs::Sink obs_{};  ///< Observability handles (both null => off).
};

}  // namespace lck
