#pragma once
/// \file checkpoint_manager.hpp
/// \brief FTI-like checkpoint/restart API (paper §4.2 workflow):
///        Protect() registers variables, Checkpoint() saves them,
///        Recover() restores them — with one codec for every vector, as
///        each of the paper's schemes uses, and CRC-32 integrity on every
///        payload.
///
/// Two ways to checkpoint share one write step (open the store's pending
/// sink, write the stream, seal it) and one commit step (commit in the
/// store, install the delta base, prune to retention):
///  - checkpoint() — the synchronous path (CkptMode::kSync): write + commit
///    inline, on the calling thread, blocking it for the full duration.
///  - stage() / wait_drain() / commit_version() / abort_version() — the
///    staged pipeline (CkptMode::kAsync): stage() memcpys the protected
///    variables into the staged copy and returns immediately; the manager's
///    SerialWorker thread drains that copy (compression, with helper lanes
///    beside it, + store write) into a *pending* store version; the caller
///    later promotes it with commit_version() or rolls it back with
///    abort_version(). One staged version at a time, as in FTI: until it
///    is committed or aborted, stage() and checkpoint() refuse
///    (config_error), so the caller's wait_drain() is the one-deep
///    back-pressure. abort_version() does not wait out a drain it throws
///    away: it requests the staged version's stop
///    (common/stop_request.hpp), and the drain abandons its work at its
///    next check — before each chunk it writes, and every 4 KiB inside
///    deflate's match finder on every lane.

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint_record.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/frame_stream.hpp"
#include "common/serial_worker.hpp"
#include "common/stop_request.hpp"
#include "compress/compressor.hpp"
#include "obs/observability.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {

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
  std::size_t raw_bytes = 0;   ///< Uncompressed bytes in the staged copy.
  double stage_seconds = 0.0;  ///< Real seconds spent on the staging memcpy.
};

/// Checkpoint manager in the style of FTI: variables are registered once
/// with Protect(), then Checkpoint()/Recover() move all of them at once.
///
/// Every double-array variable goes through the manager's one codec, and
/// byte blobs (scalar/solver state) are stored verbatim. The lossy scheme
/// protects only the solution vector, so SZ sees nothing else; the
/// traditional scheme passes the `none` codec, whose chunks are stored as
/// raw frames.
class CheckpointManager {
 public:
  /// `codec` compresses every protected vector; not owned, must not be
  /// null. It may be mutated between checkpoints (adaptive error bounds),
  /// but never while a drain is in flight.
  CheckpointManager(std::unique_ptr<CheckpointStore> store,
                    const Compressor* codec);
  /// Rolls back a version still in flight as abort_version() does: stops
  /// its drain at the next check, joins it and drops its pending blob.
  ~CheckpointManager();

  /// FTI Protect(): register a double-vector variable under a unique id.
  void protect(int id, std::string name, Vector* data);

  /// Protect with a split source/target: checkpoints read from `source`
  /// (e.g. the solver's live solution vector — no intermediate copy), while
  /// recover() restores into `restore_target`. Both must outlive the
  /// registration; they may alias. `source` must not mutate during a
  /// synchronous checkpoint() or a stage() call (the staging copy snapshots
  /// it; afterwards it is free to change).
  void protect(int id, std::string name, const Vector* source,
               Vector* restore_target);

  /// Register an opaque byte blob (solver scalar state, app metadata).
  /// Blobs are stored verbatim (never lossy).
  void protect_blob(int id, std::string name, std::vector<byte_t>* data);

  /// Save all protected variables as a new checkpoint version
  /// (synchronous: compress + write + commit before returning). Refused
  /// (config_error) while a staged version awaits commit or abort.
  CheckpointRecord checkpoint();

  // ----- staged (asynchronous) pipeline ------------------------------------

  /// Copy all protected variables into the staged copy and enqueue the
  /// background drain. Returns as soon as the copy is done. One staged
  /// version at a time: while the previous one awaits commit_version() or
  /// abort_version(), stage() throws config_error and takes no version
  /// number.
  StageTicket stage();

  /// Block until `version`'s drain (compression + pending store write) has
  /// finished and return its record. Idempotent until the version is
  /// committed or aborted: every call rethrows a failed drain's exception.
  CheckpointRecord wait_drain(int version);

  /// Promote a drained version to committed and prune per retention.
  void commit_version(int version);

  /// Roll back a staged/drained version (failure during the drain window):
  /// the pending store blob is dropped and recover() keeps using the last
  /// committed version. A drain still running is asked to stop and stops
  /// at its next check (see compressor.hpp for what a codec checks); it is
  /// joined before the store drops the version. Its stop_requested_error
  /// stays inside the manager; a stopped drain adds 1 to the
  /// `ckpt.drains_stopped` counter.
  void abort_version(int version);

  /// Staged versions not yet committed/aborted: 0 or 1.
  [[nodiscard]] int versions_in_flight() const noexcept {
    return in_flight_.has_value() ? 1 : 0;
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

  [[nodiscard]] const CheckpointStore& store() const { return *store_; }

  /// Attach (or detach, with a null sink) the observability handles. The
  /// sink is forwarded to the store hierarchy and the drain; the
  /// pointed-to registry/recorder must outlive the manager or be detached
  /// before they die. Must not change while a drain is in flight.
  void set_observability(obs::Sink sink);

 private:
  struct Entry {
    std::string name;
    const Vector* src = nullptr;  // checkpointed data (exactly one of
    Vector* dst = nullptr;        //   src/blob is set; dst is recover()'s
    std::vector<byte_t>* blob = nullptr;  //   target, == src unless split)
  };

  /// One variable in the staged copy: owning copies of its data, so the
  /// live solver state can keep mutating while the drain compresses.
  struct StagedVar {
    Vector vec;
    std::vector<byte_t> blob;
  };

  /// Borrowed view of one variable for the writer. checkpoint() points it
  /// at the live protected data, stage() at the staged copy.
  struct VarView {
    int id = 0;
    const std::string* name = nullptr;
    const Vector* vec = nullptr;  // exactly one of vec/blob is set
    const std::vector<byte_t>* blob = nullptr;
  };

  /// Chunk hashes of one variable in an encoded version.
  struct VarChunkHashes {
    int id = 0;
    std::vector<std::uint64_t> hashes;
  };

  /// Everything a successor checkpoint needs to delta against a version.
  struct ChunkBaseState {
    int version = -1;
    std::size_t chunk_elems = 0;
    std::uint32_t chain_len = 0;  ///< 0 for a full (chain-start) checkpoint.
    std::vector<VarChunkHashes> vars;

    /// Hashes usable as reference targets for variable `id` — null when
    /// the variable is new.
    [[nodiscard]] const std::vector<std::uint64_t>* hashes_for(int id) const {
      for (const auto& v : vars)
        if (v.id == id) return &v.hashes;
      return nullptr;
    }
  };

  /// The one write step: stream one snapshot as `version` straight into
  /// the store's pending sink with bounded memory (see frame_stream.hpp),
  /// then seal the sink. `state` is non-null in delta mode only; the writer
  /// then hashes every chunk into it and stores chunks found in `base` (or
  /// earlier in its vector) as references. It plans every variable first,
  /// then compresses the literal chunks of all vectors as one list, in
  /// batches of 2 × W on W lanes (lanes_; W is num_threads() on the calling
  /// thread), and writes the frames in variable and chunk order on the
  /// calling thread. Shared by checkpoint() and the background drain, so
  /// the two produce byte-identical streams for identical variable values,
  /// whatever W. Under a stop request it stops before the seal.
  CheckpointRecord write_stream(const std::vector<VarView>& vars, int version,
                                const ChunkBaseState* base,
                                ChunkBaseState* state);

  /// The one commit step: commit `rec.version` in the store, make `state`
  /// (null outside delta mode) the delta base, and prune to retention.
  void commit(const CheckpointRecord& rec,
              const std::shared_ptr<ChunkBaseState>& state);

  /// The base the next checkpoint deltas against, or nullptr when a full
  /// checkpoint is due (no committed predecessor, chain at max length,
  /// chunk size changed, or the candidate was discarded).
  [[nodiscard]] std::shared_ptr<const ChunkBaseState> pick_delta_base() const;

  /// Empty chunk-hash state for `version` on top of `base` in delta mode;
  /// nullptr when delta checkpointing is off.
  [[nodiscard]] std::shared_ptr<ChunkBaseState> new_delta_state(
      int version, const ChunkBaseState* base) const;

  /// Stop the in-flight drain, join it, drop its pending blob and retire
  /// the version.
  void abort_in_flight();

  void prune_retention(int latest_committed);
  /// Insert `v` and its base_of_ chain into `live`. Hop-bounded as pure
  /// defense (base links always point strictly downward, so a well-formed
  /// map cannot cycle).
  void mark_chain(int v, std::set<int>& live) const;

  std::unique_ptr<CheckpointStore> store_;
  const Compressor* codec_;
  std::map<int, Entry> entries_;
  int next_version_ = 0;
  int retention_ = 1;
  int prune_floor_ = 0;  ///< Versions below this are already pruned.
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
  /// Committed version → base version (-1 = full); drives the ref-counted
  /// retention that keeps live chain bases alive.
  std::map<int, int> base_of_;

  /// The stage()d version until commit_version() or abort_version() retires
  /// it.
  struct InFlight {
    int version = -1;
    /// The drain's record, or its exception — for every wait.
    std::shared_future<CheckpointRecord> drain;
    /// Chunk hashes the drain fills, installed as the delta base on commit;
    /// null when delta mode is off.
    std::shared_ptr<ChunkBaseState> state;
  };

  // Async pipeline state. The worker is created on the first stage(), so
  // purely synchronous users never spawn a thread. The drain reads staged_
  // until its future is ready; the owner rewrites staged_ only in stage(),
  // when nothing is in flight, so the future orders the two without a lock.
  std::vector<StagedVar> staged_;
  std::optional<InFlight> in_flight_;
  /// The in-flight version's stop request: stage() clears it, abort and
  /// the destructor set it, and its drain polls it.
  StopRequest stop_drain_{false};
  /// The helper lanes of write_stream(), used by one writer at a time: the
  /// owner in checkpoint(), or the drain, which nothing else writes beside.
  /// Declared before the worker, so they outlive its drains.
  LaneRunner lanes_;
  // Declared last: drains touch the staged copy and the store, so the worker
  // must join before either is torn down.
  std::unique_ptr<SerialWorker> worker_;
};

}  // namespace lck
