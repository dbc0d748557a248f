#pragma once
/// \file tiered_store.hpp
/// \brief Multi-level checkpoint store: N tiers of increasing durability and
///        cost (L1 node-local, L2 partner-copy, L3 PFS), FTI/VeloC style.
///
/// All writes (including the async pipeline's pending→committed protocol)
/// land in the cheapest tier, L1. Committed versions are then *promoted*
/// up the hierarchy — L1→L2→L3 — along one path: plan_promotion(version,
/// level) lists the copies still needed (the delta-chain bases the tier
/// lacks, deepest first, then the version itself), and promote(hop) makes
/// one copy. Only who executes a plan differs:
///  - a self-promoting store (`auto_promote`) runs each committed version's
///    plan as a background job on its own SerialWorker, in commit order, so
///    the solver never blocks on a PFS write;
///  - a caller-driven store leaves execution to its owner: promote_now()
///    runs a plan synchronously, and the virtual-time ResilientRunner
///    prices each hop on its simulated clock and calls promote(hop) when
///    the hop's window closes.
/// Either way one thread runs the plans — the worker, or the owner — so no
/// version lands in a tier ahead of the chain bases planned for it.
///
/// Failures carry a `FailureSeverity`; `invalidate(severity)` destroys the
/// contents of every tier that does not survive it (per its `TierSpec`),
/// after which `read()`/`latest_version()` transparently fall back to the
/// cheapest surviving tier — a process failure recovers from L1, a node
/// failure from the L2 partner copy, a partition or system failure from the
/// PFS-backed L3.

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hpp"
#include "common/serial_worker.hpp"
#include "common/severity.hpp"

namespace lck {

/// Static description of one tier of the hierarchy.
struct TierSpec {
  /// Value of the tier label on tier.* series; the store refuses a name
  /// that obs::is_label_value() rejects.
  std::string name = "tier";
  /// Highest failure severity this tier's contents survive. A failure with
  /// severity strictly greater destroys the tier.
  FailureSeverity survives = FailureSeverity::kProcess;
  /// Committed versions kept in this tier (older ones are pruned as new
  /// versions arrive). Must be >= 1. The runner's built-in stack and every
  /// service job's stack keep this default.
  int retention = 2;
  /// Auto-promotion filter: every `promote_every`-th version enters this
  /// tier (1 = all). Read only by a self-promoting store; a caller-driven
  /// store's owner picks the versions it promotes. Ignored for level 0,
  /// which receives every write.
  int promote_every = 1;
};

/// One copy of a committed version into a higher tier.
struct PromotionHop {
  int version = -1;
  int level = -1;
  std::size_t bytes = 0;  ///< Stream size of the version.
};

/// What the store records about a version as it enters the hierarchy.
struct VersionRecord {
  int base = -1;          ///< Delta base version; -1 for a full checkpoint.
  std::size_t bytes = 0;  ///< Stream size.
};

class TieredCheckpointStore final : public CheckpointStore {
 public:
  struct Level {
    TierSpec spec;
    std::unique_ptr<CheckpointStore> store;
  };

  /// `auto_promote` runs every committed version's promotions as a
  /// background job; pass false when the owner executes plans itself
  /// (promote_now(), or the virtual-time runner's promote(hop) calls).
  explicit TieredCheckpointStore(std::vector<Level> levels,
                                 bool auto_promote = true);

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
  /// Cheapest level holding a committed copy of `version`, or -1.
  [[nodiscard]] int level_of(int version) const;
  [[nodiscard]] bool exists_at(int level, int version) const;
  [[nodiscard]] int latest_version_at(int level) const;
  /// Delta base and stream size of `version`, learned by peeking the blob
  /// header as it entered the hierarchy; nullopt once no tier holds it (or
  /// for a version a reopened backend held before construction).
  [[nodiscard]] std::optional<VersionRecord> record(int version) const;

  // ----- severity model -----------------------------------------------------
  /// Destroy every tier whose spec does not survive `severity`. A node
  /// failure against a surviving PartnerStore tier additionally drops the
  /// lost node's pieces, so subsequent reads exercise the real
  /// parity-reconstruction path. Planned hops are forgotten: a promote()
  /// of one planned before the failure declines.
  void invalidate(FailureSeverity severity);

  // ----- promotion ----------------------------------------------------------
  /// The copies that would bring `version` into `level` (in [1, levels)):
  /// the chain bases the level lacks, deepest first, then the version. A
  /// hop already at the level or already planned is skipped, and the walk
  /// stops there and at a base the store has no record of. Empty when the
  /// version is at the level, already planned, or held by no lower tier.
  /// Marks every returned hop planned until promote() runs it.
  [[nodiscard]] std::vector<PromotionHop> plan_promotion(int version,
                                                         int level);
  /// Copy one planned hop from the nearest lower tier that holds it. True
  /// when the version is at hop.level afterwards. False (no copy) when
  /// invalidate() ran since the plan, no lower tier still holds the version,
  /// or the destination write threw (counted in failed_promotions()).
  bool promote(const PromotionHop& hop);
  /// plan_promotion() + promote() of every hop, synchronously. True when
  /// `version` is at `level` on return. For caller-driven stores only: on
  /// a self-promoting store the worker runs every plan, and promote_now()
  /// throws config_error.
  bool promote_now(int version, int level);

  /// Whether committed versions are promoted by background jobs.
  [[nodiscard]] bool auto_promote() const noexcept { return auto_promote_; }

  /// Block until every queued background promotion has finished.
  void drain_promotions();

  /// Background promotion jobs queued or running.
  [[nodiscard]] std::size_t promotions_in_flight() const;

  /// Bound the background promotion queue: a commit that would exceed the
  /// bound blocks until a promotion finishes (back-pressure, so a slow PFS
  /// cannot accumulate unbounded staged copies). Must be >= 1.
  void set_max_inflight_promotions(std::size_t n);

  /// Promotions whose destination write threw. The copy is skipped — lower
  /// tiers still hold the version — and the error is counted rather than
  /// propagated.
  [[nodiscard]] std::size_t failed_promotions() const;

  /// Attach observability handles; forwarded to every level backend (the
  /// L3 DedupChunkStore records its own chunk metrics). Call before any
  /// concurrent traffic, like the other configuration methods.
  void set_observability(obs::Sink sink) override;

 private:
  [[nodiscard]] bool committed_at_locked(int level, int version) const;
  /// Cheapest level holding `version`, or -1.
  [[nodiscard]] int level_of_locked(int version) const;
  /// Nearest level below `level` holding `version` (a promotion's copy
  /// source), or -1.
  [[nodiscard]] int source_locked(int version, int level) const;
  void prune_level_locked(int level);
  /// Submit the background promotion job of `version`. Blocks while the
  /// queue is full.
  void schedule_promotions(int version);
  /// One background job: plan and promote `version` into every tier whose
  /// promote_every filter admits it.
  void run_promotion_pass(int version);

  std::vector<Level> levels_;
  const bool auto_promote_;
  obs::Sink obs_{};  ///< Observability handles (both null => off).

  /// Lock order: mu_, then any level mutex — never the reverse. mu_ guards
  /// the committed-version sets, the records, the planned marks, the epoch
  /// and the promotion bookkeeping; level_mu_[i] guards levels_[i].store
  /// operations, so a slow copy into L2/L3 never blocks L1 traffic.
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<std::mutex>> level_mu_;
  std::condition_variable promo_cv_;
  std::vector<std::set<int>> committed_;  ///< Per level.
  std::vector<std::set<int>> planned_;    ///< Per level: hops not yet run.
  /// Levels whose backend held versions at construction (a reopened
  /// DiskStore): only these may satisfy reads from the backend without a
  /// committed_-set entry. Fresh backends must not — a stale background
  /// promotion writes the destination store before its epoch check, and
  /// the fallback would transiently resurrect an invalidated version.
  std::vector<bool> preloaded_;
  /// One record per version some tier (or L1's pending slot) holds, for
  /// chain-aware pruning and promotion planning.
  std::map<int, VersionRecord> records_;
  std::uint64_t epoch_ = 0;  ///< Bumped by invalidate()/remove().
  std::size_t promo_in_flight_ = 0;
  std::size_t max_inflight_ = 16;
  std::size_t failed_promotions_ = 0;
  /// Runs the background jobs; created by the first one. Declared last, so
  /// it finishes every queued job and joins before the levels and mutexes
  /// die.
  std::unique_ptr<SerialWorker> promoter_;
};

/// The canonical 3-level hierarchy: L1 node-local (MemoryStore), L2
/// partner-copy (PartnerStore), L3 PFS (a content-addressed DedupChunkStore
/// held in memory). Every level keeps `retention` versions.
[[nodiscard]] std::unique_ptr<TieredCheckpointStore> make_tiered_store(
    int retention = 2, int l2_promote_every = 1, int l3_promote_every = 1,
    bool auto_promote = true);

}  // namespace lck
