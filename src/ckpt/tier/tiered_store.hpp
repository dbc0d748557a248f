#pragma once
/// \file tiered_store.hpp
/// \brief Multi-level checkpoint store: N tiers of increasing durability and
///        cost (L1 node-local, L2 partner-copy, L3 PFS), FTI/VeloC style.
///
/// All writes (including the async pipeline's pending→committed protocol)
/// land in the cheapest tier, L1. Committed versions are then *promoted*
/// up the hierarchy — L1→L2→L3 — either by a background worker (an
/// `AsyncCheckpointWriter` running one promotion job per version, so the
/// solver never blocks on a PFS write) or, for the virtual-time
/// `ResilientRunner`, by explicit `promote_now()` calls issued when the
/// simulated promotion window elapses.
///
/// Failures carry a `FailureSeverity`; `invalidate(severity)` destroys the
/// contents of every tier that does not survive it (per its `TierSpec`),
/// after which `read()`/`latest_version()` transparently fall back to the
/// cheapest surviving tier — a process failure recovers from L1, a node
/// failure from the L2 partner copy, a partition or system failure from the
/// PFS-backed L3.

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hpp"
#include "common/severity.hpp"

namespace lck {

class AsyncCheckpointWriter;

/// Where a tiered store's background promotion jobs run. By default each
/// store owns a single worker thread; the multi-tenant CheckpointService
/// instead installs one shared, fairness-scheduled pool across all jobs'
/// stores via set_promotion_executor(), so N tenants cannot each spawn a
/// thread and the pool can arbitrate who promotes next.
class PromotionExecutor {
 public:
  virtual ~PromotionExecutor() = default;
  /// Run `task` asynchronously. `fair_key` identifies the submitting client
  /// (one per tenant) and `weight_bytes` the job's cost, so a deficit-
  /// round-robin scheduler can keep heavy writers from starving light ones.
  /// Implementations must eventually run every accepted task exactly once.
  virtual void submit(int fair_key, std::size_t weight_bytes,
                      std::function<void()> task) = 0;
};

/// Static description of one tier of the hierarchy.
struct TierSpec {
  std::string name = "tier";
  /// Highest failure severity this tier's contents survive. A failure with
  /// severity strictly greater destroys the tier.
  FailureSeverity survives = FailureSeverity::kProcess;
  /// Committed versions kept in this tier (older ones are pruned as new
  /// versions arrive). Must be >= 1.
  int retention = 2;
  /// Auto-promotion filter: every `promote_every`-th version enters this
  /// tier (1 = all). Ignored for level 0, which receives every write.
  int promote_every = 1;
};

class TieredCheckpointStore final : public CheckpointStore {
 public:
  struct Level {
    TierSpec spec;
    std::unique_ptr<CheckpointStore> store;
  };

  /// `auto_promote` spawns the background promotion worker; pass false when
  /// an external driver (the virtual-time runner) calls `promote_now()`
  /// itself.
  explicit TieredCheckpointStore(std::vector<Level> levels,
                                 bool auto_promote = true);
  ~TieredCheckpointStore() override;

  // ----- CheckpointStore interface (writes target L1, reads fall back) ------
  void write(int version, std::span<const byte_t> data) override;
  [[nodiscard]] std::vector<byte_t> read(int version) const override;
  [[nodiscard]] bool exists(int version) const override;
  /// Removes `version` from *every* tier (discard of a torn write).
  void remove(int version) override;
  [[nodiscard]] int latest_version() const override;

  void write_pending(int version, std::span<const byte_t> data) override;
  void commit(int version) override;
  void abort(int version) override;
  [[nodiscard]] bool has_pending(int version) const override;

  // ----- hierarchy introspection --------------------------------------------
  [[nodiscard]] int level_count() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] const TierSpec& spec(int level) const;
  /// Cheapest level holding a committed copy of `version`, or -1.
  [[nodiscard]] int level_of(int version) const;
  [[nodiscard]] bool exists_at(int level, int version) const;
  [[nodiscard]] int latest_version_at(int level) const;
  /// Backend of one level, e.g. to inspect the L3 DedupChunkStore's chunk
  /// index. External synchronization: do not touch it while background
  /// promotions are running.
  [[nodiscard]] const CheckpointStore& store_at(int level) const;

  // ----- severity model -----------------------------------------------------
  /// Destroy every tier whose spec does not survive `severity`. A node
  /// failure against a surviving PartnerStore tier additionally drops the
  /// lost node's pieces, so subsequent reads exercise the real
  /// parity-reconstruction path.
  void invalidate(FailureSeverity severity);

  // ----- promotion ----------------------------------------------------------
  /// Synchronously copy `version` into `level` from the nearest lower tier
  /// that still holds it. Returns false (no-op) when no source survives —
  /// e.g. the version was invalidated or pruned before the promotion ran.
  bool promote_now(int version, int level);

  /// Block until every queued background promotion has finished.
  void drain_promotions();

  /// Background promotion jobs queued or running.
  [[nodiscard]] std::size_t promotions_in_flight() const;

  /// Bound the background promotion queue: a commit that would exceed the
  /// bound blocks until a promotion finishes (back-pressure, so a slow PFS
  /// cannot accumulate unbounded staged copies). Must be >= 1.
  void set_max_inflight_promotions(std::size_t n);

  /// Promotions that failed inside the background worker (source tier read
  /// or destination write threw). The copy is skipped — lower tiers still
  /// hold the version — and the error is counted rather than propagated.
  [[nodiscard]] std::size_t failed_promotions() const;

  /// Attach observability handles; forwarded to every level backend (the
  /// L3 DedupChunkStore records its own chunk metrics). Call before any
  /// concurrent traffic, like the other configuration methods.
  void set_observability(obs::Sink sink) override;

  /// Route background promotions to `exec` (tagged `fair_key`) instead of a
  /// store-owned worker thread. Call before any traffic; the executor must
  /// outlive this store. The in-flight bound and drain_promotions() still
  /// apply — the destructor waits for this store's submitted tasks, so pool
  /// workers never touch a dead store.
  void set_promotion_executor(PromotionExecutor* exec, int fair_key);

 private:
  [[nodiscard]] bool committed_at_locked(int level, int version) const;
  bool promote_locked(int version, int level, int depth = 0);
  /// Background single-hop promotion: decides under mu_, copies under the
  /// per-level store locks only (so the owner's L1 writes and other-tier
  /// reads keep flowing), republishes under mu_ with an epoch check so a
  /// concurrent invalidate() cannot be undone by a stale copy.
  void promote_background(int version, int level, int depth = 0);
  void prune_level_locked(int level);
  /// Delta base of `version` (-1 full / non-delta), learned by peeking the
  /// blob header as it entered the hierarchy. Guarded by mu_.
  [[nodiscard]] int delta_base_locked(int version) const;
  /// Enqueue the background promotion of `version` through levels 1..N-1
  /// (per their promote_every filters). Blocks while the queue is full.
  /// `weight` is the version's blob size, forwarded to an installed
  /// executor for fairness scheduling.
  void schedule_promotions(int version, std::size_t weight);
  /// One queued job's work: promote `version` into every eligible tier.
  void run_promotion_pass(int version);
  void reap_finished_locked();

  std::vector<Level> levels_;
  const bool auto_promote_;
  obs::Sink obs_{};  ///< Observability handles (both null => off).

  /// Lock order: mu_ before any level mutex, never the reverse. mu_ guards
  /// the committed-version sets, the epoch and the promotion bookkeeping;
  /// level_mu_[i] guards levels_[i].store operations, so a slow background
  /// copy into L2/L3 never blocks L1 traffic.
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<std::mutex>> level_mu_;
  std::condition_variable promo_cv_;
  std::vector<std::set<int>> committed_;   ///< Per level.
  /// Levels whose backend held versions at construction (a reopened
  /// DiskStore): only these may satisfy reads from the backend without a
  /// committed_-set entry. Fresh backends must not — a stale background
  /// promotion writes the destination store before its epoch check, and
  /// the fallback would transiently resurrect an invalidated version.
  std::vector<bool> preloaded_;
  /// version → delta base version, for chain-aware pruning and promotion
  /// (absent or -1 ⇒ full checkpoint). Learned at write/write_pending
  /// time by peeking the stream header.
  std::map<int, int> delta_base_;
  std::uint64_t epoch_ = 0;  ///< Bumped by invalidate()/remove().
  std::size_t promo_in_flight_ = 0;
  std::size_t max_inflight_ = 16;
  std::size_t failed_promotions_ = 0;
  int promo_seq_ = 0;                      ///< Unique writer job keys.
  std::deque<int> finished_keys_;          ///< Completed jobs awaiting reap.
  /// Blob size of each pending (write_pending, not yet committed) version:
  /// commit() forwards it as the promotion weight. Erased at commit/abort,
  /// so the map is bounded by the async pipeline's in-flight pendings.
  std::map<int, std::size_t> pending_bytes_;
  /// External promotion executor (non-owning) and this store's fairness
  /// key; nullptr ⇒ the store lazily spawns its own worker below.
  PromotionExecutor* executor_ = nullptr;
  int fair_key_ = 0;
  /// Declared last so the worker joins before the levels and mutex die.
  /// Created lazily on the first scheduled promotion (never when an
  /// external executor is installed).
  std::unique_ptr<AsyncCheckpointWriter> promoter_;
};

/// The canonical 3-level hierarchy: L1 node-local (MemoryStore), L2
/// partner-copy (PartnerStore), L3 PFS (DiskStore under `pfs_dir`, or a
/// MemoryStore stand-in when `pfs_dir` is empty).
[[nodiscard]] std::unique_ptr<TieredCheckpointStore> make_tiered_store(
    int retention = 2, int l2_promote_every = 1, int l3_promote_every = 1,
    const std::string& pfs_dir = "", bool auto_promote = true);

}  // namespace lck
