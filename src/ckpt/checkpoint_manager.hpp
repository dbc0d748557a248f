#pragma once
/// \file checkpoint_manager.hpp
/// \brief FTI-like checkpoint/restart API (paper §4.2 workflow):
///        Protect() registers variables, Checkpoint() saves them,
///        Recover() restores them — with a pluggable compressor per
///        variable and CRC-32 integrity on every payload.
///
/// Two write paths share one serialization core:
///  - checkpoint() — the synchronous path (CkptMode::kSync): compress +
///    write + commit inline, blocking the caller for the full duration.
///  - stage() / wait_drain() / commit_version() / abort_version() — the
///    staged pipeline (CkptMode::kAsync): stage() memcpys the protected
///    variables into one of two staging slots and returns immediately; a
///    background AsyncCheckpointWriter drains the slot (compression + store
///    write) into a *pending* store version; the caller later promotes it
///    with commit_version() or rolls it back with abort_version(). A third
///    stage() while both slots are busy blocks until a drain finishes
///    (double-buffer back-pressure, matching FTI semantics).

#include <array>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint_record.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/frame_stream.hpp"
#include "compress/compressor.hpp"
#include "obs/observability.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {

class AsyncCheckpointWriter;

/// Whether checkpoints block for the full compress+write (kSync), only for
/// the staging copy with the drain in the background (kAsync), or go
/// through the multi-level hierarchy — staged L1 drain plus background
/// L1→L2→L3 promotion and severity-aware recovery (kTiered).
enum class CkptMode { kSync, kAsync, kTiered };

[[nodiscard]] const char* to_string(CkptMode m) noexcept;

/// Receipt of a stage(): identifies the in-flight version and what the
/// staging copy cost for real.
struct StageTicket {
  int version = -1;
  std::size_t raw_bytes = 0;   ///< Uncompressed bytes captured in the slot.
  double stage_seconds = 0.0;  ///< Real seconds spent on the staging memcpy.
};

/// Checkpoint manager in the style of FTI: variables are registered once
/// with Protect(), then Checkpoint()/Recover() move all of them at once.
///
/// Double-array variables go through the configured compressor (per-variable
/// override possible: the lossy scheme compresses only the solution vector,
/// while scalar/state blobs are stored verbatim).
class CheckpointManager {
 public:
  /// `default_compressor` applies to every protected vector without an
  /// override; not owned, may be mutated between checkpoints (adaptive
  /// error bounds) — but never while a drain is in flight.
  CheckpointManager(std::unique_ptr<CheckpointStore> store,
                    const Compressor* default_compressor);
  ~CheckpointManager();

  /// FTI Protect(): register a double-vector variable under a unique id.
  /// Passing a per-variable compressor overrides the default.
  void protect(int id, std::string name, Vector* data,
               const Compressor* compressor = nullptr);

  /// Protect with a split source/target: checkpoints read from `source`
  /// (e.g. the solver's live solution vector — no intermediate copy), while
  /// recover() restores into `restore_target`. Both must outlive the
  /// registration; they may alias. `source` must not mutate during a
  /// synchronous checkpoint() or a stage() call (the staging copy snapshots
  /// it; afterwards it is free to change).
  void protect(int id, std::string name, const Vector* source,
               Vector* restore_target, const Compressor* compressor = nullptr);

  /// Register an opaque byte blob (solver scalar state, app metadata).
  /// Blobs are stored verbatim (never lossy).
  void protect_blob(int id, std::string name, std::vector<byte_t>* data);

  /// Remove a registration.
  void unprotect(int id);

  /// Save all protected variables as a new checkpoint version
  /// (synchronous: compress + write + commit before returning).
  CheckpointRecord checkpoint();

  // ----- staged (asynchronous) pipeline ------------------------------------

  /// Copy all protected variables into a free staging slot and enqueue the
  /// background drain. Returns as soon as the copy is done; blocks only if
  /// both staging slots hold unfinished drains (back-pressure).
  StageTicket stage();

  /// Block until `version`'s drain (compression + pending store write) has
  /// finished and return its record. Idempotent until the version is
  /// committed or aborted. Rethrows any drain-side exception.
  CheckpointRecord wait_drain(int version);

  /// Promote a drained version to committed and prune per retention.
  void commit_version(int version);

  /// Roll back a staged/drained version (failure during the drain window):
  /// the pending store blob is dropped and recover() keeps using the last
  /// committed version.
  void abort_version(int version);

  /// Drains submitted but not yet committed/aborted.
  [[nodiscard]] int versions_in_flight() const noexcept {
    return static_cast<int>(staged_versions_.size());
  }

  // --------------------------------------------------------------------------

  /// Restore all protected variables from the latest committed checkpoint.
  /// Vectors are resized to the checkpointed length.
  CheckpointRecord recover();

  /// FTI Snapshot(): recover() if a restart is pending, else checkpoint().
  CheckpointRecord snapshot();

  /// Mark that the next snapshot() must recover (set after a failure).
  void request_recovery() noexcept { recovery_pending_ = true; }

  [[nodiscard]] bool has_checkpoint() const {
    return store_->latest_version() >= 0;
  }
  [[nodiscard]] int latest_version() const { return store_->latest_version(); }

  /// Discard a committed version (used when a failure interrupts the
  /// checkpoint write itself, so the torn file must not be recovered from).
  /// A discarded version can no longer serve as a delta base: the next
  /// checkpoint after a discard starts a fresh chain.
  void discard_version(int version);

  /// Keep at most `n` most recent versions (older ones deleted on write).
  void set_retention(int n) {
    require(n >= 1, "checkpoint manager: retention must be >= 1");
    retention_ = n;
  }

  /// Default chunk size of delta checkpoints, in doubles.
  static constexpr std::size_t kDefaultChunkElems = 4096;

  /// Configure delta checkpointing. `max_delta_chain` = 0 (the default)
  /// writes every checkpoint in full, cut into kChunkElems chunks. With a
  /// positive value vectors are cut into `chunk_elems` chunks, and chunks
  /// whose raw content is unchanged since the previous committed checkpoint
  /// are stored as references; at most `max_delta_chain` consecutive deltas
  /// ride on one full checkpoint before the next full is forced (bounding
  /// both recovery read amplification and how long retention must keep
  /// chain bases). Retention pruning never drops a version that a live
  /// chain references. Must not change while a drain is in flight.
  void set_delta(int max_delta_chain,
                 std::size_t chunk_elems = kDefaultChunkElems) {
    require(max_delta_chain >= 0,
            "checkpoint manager: max_delta_chain must be >= 0");
    require(chunk_elems >= 1 && chunk_elems <= kMaxChunkElems,
            "checkpoint manager: delta chunk_elems must be in [1, 2^20]");
    max_delta_chain_ = max_delta_chain;
    delta_chunk_elems_ = chunk_elems;
  }
  [[nodiscard]] int max_delta_chain() const noexcept {
    return max_delta_chain_;
  }
  [[nodiscard]] std::size_t delta_chunk_elems() const noexcept {
    return delta_chunk_elems_;
  }

  /// Configure the stream writer (see frame_stream.hpp): the write-buffer
  /// size and the style of verbatim chunks. Must not change while a drain
  /// is in flight.
  void set_streaming(const StreamingConfig& cfg) {
    cfg.validate();
    streaming_ = cfg;
  }
  [[nodiscard]] const StreamingConfig& streaming() const noexcept {
    return streaming_;
  }

  [[nodiscard]] const CheckpointStore& store() const { return *store_; }

  /// Attach (or detach, with a null sink) the observability handles. The
  /// sink is forwarded to the store hierarchy and the async writer; the
  /// pointed-to registry/recorder must outlive the manager or be detached
  /// before they die. Must not change while a drain is in flight.
  void set_observability(obs::Sink sink);

 private:
  struct Entry {
    std::string name;
    const Vector* src = nullptr;  // checkpointed data (exactly one of
    Vector* dst = nullptr;        //   src/blob is set; dst is recover()'s
    std::vector<byte_t>* blob = nullptr;  //   target, == src unless split)
    const Compressor* compressor = nullptr;  // null => manager default
  };

  /// One variable captured in a staging slot (owning copies, so the live
  /// solver state can keep mutating while the drain compresses).
  struct StagedVar {
    int id = 0;
    std::string name;
    bool is_vector = false;
    Vector vec;
    std::vector<byte_t> blob;
    const Compressor* compressor = nullptr;  // effective (resolved) compressor
  };

  /// Double-buffered staging area: one slot drains while the other stages.
  struct StagingSlot {
    std::vector<StagedVar> vars;
    bool busy = false;
  };

  /// Borrowed view of one variable for the shared serializer. Sync points
  /// it at the live protected data, async at a staging slot.
  struct VarView {
    int id = 0;
    const std::string* name = nullptr;
    const Vector* vec = nullptr;
    const std::vector<byte_t>* blob = nullptr;
    const Compressor* compressor = nullptr;
  };

  [[nodiscard]] const Compressor* compressor_for(const Entry& e) const {
    return e.compressor != nullptr ? e.compressor : default_compressor_;
  }

  /// Chunk hashes of one variable in an encoded version. The compressor
  /// name rides along so a mid-run codec swap can never produce a reference
  /// to a payload the new codec cannot decode.
  struct VarChunkHashes {
    int id = 0;
    std::string comp_name;
    std::vector<std::uint64_t> hashes;
  };

  /// Everything a successor checkpoint needs to delta against a version.
  struct ChunkBaseState {
    int version = -1;
    std::size_t chunk_elems = 0;
    std::uint32_t chain_len = 0;  ///< 0 for a full (chain-start) checkpoint.
    std::vector<VarChunkHashes> vars;

    /// Hashes usable as reference targets for variable `id` under
    /// compressor `comp_name` — null when the variable is new or its codec
    /// changed.
    [[nodiscard]] const std::vector<std::uint64_t>* hashes_for(
        int id, const std::string& comp_name) const {
      for (const auto& v : vars)
        if (v.id == id) return v.comp_name == comp_name ? &v.hashes : nullptr;
      return nullptr;
    }
  };

  /// The one writer: serialize one snapshot as a stream straight into
  /// `sink` with bounded memory (see frame_stream.hpp). `state` is non-null
  /// in delta mode only; the writer then hashes every chunk into it and
  /// stores chunks found in `base` (or earlier in this stream) as
  /// references. Shared by the sync path and the background drain, so the
  /// two produce byte-identical streams for identical variable values.
  /// Calls FrameWriter's finish() but NOT sink.finish() — sealing the sink
  /// is the caller's job (the async drain seals after releasing its slot).
  CheckpointRecord write_stream(const std::vector<VarView>& vars, int version,
                                const ChunkBaseState* base,
                                ChunkBaseState* state, ByteSink& sink) const;

  /// The base the next checkpoint deltas against, or nullptr when a full
  /// checkpoint is due (no committed predecessor, chain at max length,
  /// chunk size changed, or the candidate was discarded).
  [[nodiscard]] std::shared_ptr<const ChunkBaseState> pick_delta_base() const;

  /// Empty chunk-hash state for `version` on top of `base` in delta mode;
  /// nullptr when delta checkpointing is off.
  [[nodiscard]] std::shared_ptr<ChunkBaseState> new_delta_state(
      int version, const ChunkBaseState* base) const;

  void prune_retention(int latest_committed);
  /// Insert `v` and its base_of_ chain into `live`. Hop-bounded as pure
  /// defense (base links always point strictly downward, so a well-formed
  /// map cannot cycle).
  void mark_chain(int v, std::set<int>& live) const;
  int acquire_slot();              ///< Blocks until a staging slot is free.
  void release_slot(int slot);

  std::unique_ptr<CheckpointStore> store_;
  const Compressor* default_compressor_;
  NoneCompressor none_;
  std::map<int, Entry> entries_;
  int next_version_ = 0;
  int retention_ = 1;
  int prune_floor_ = 0;  ///< Versions below this are already pruned.
  StreamingConfig streaming_{};  ///< Stream writer knobs.
  obs::Sink sink_{};  ///< Observability handles (both null => off).
  bool recovery_pending_ = false;

  // Delta checkpointing state, all owner-thread. A drain fills the
  // ChunkBaseState its staged version points to; the owner reads it only
  // after wait_drain joined that drain.
  int max_delta_chain_ = 0;
  std::size_t delta_chunk_elems_ = kDefaultChunkElems;
  /// Chunk hashes of the most recent *committed* version — the only
  /// version a new checkpoint may delta against.
  std::shared_ptr<const ChunkBaseState> committed_state_;
  /// Chunk hashes of staged versions, filled by their drains, awaiting
  /// commit.
  std::map<int, std::shared_ptr<ChunkBaseState>> staged_states_;
  /// Committed version → base version (-1 = full); drives the ref-counted
  /// retention that keeps live chain bases alive.
  std::map<int, int> base_of_;
  /// Staged (uncommitted) version → the base captured at stage time, so
  /// pruning cannot retire a base an in-flight delta still needs.
  std::map<int, int> staged_base_;

  // Async pipeline state. The writer thread is created on first stage(), so
  // purely synchronous users never spawn a thread.
  std::array<StagingSlot, 2> slots_;
  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  std::map<int, CheckpointRecord> drained_;  ///< wait_drain() results cache.
  std::set<int> failed_drains_;  ///< Versions whose drain threw (awaiting abort).
  std::set<int> staged_versions_;  ///< stage()d, not yet committed/aborted.
  // Declared last: drain jobs touch the slots, the slot mutex and the
  // store, so the worker must join (writer destruction) before any of them
  // is torn down.
  std::unique_ptr<AsyncCheckpointWriter> writer_;
};

}  // namespace lck
