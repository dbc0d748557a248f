#pragma once
/// \file resilient_runner.hpp
/// \brief The paper's primary contribution, executable: drive any iterative
///        solver to convergence under fail-stop failure injection with
///        traditional, lossless-compressed, or lossy-compressed
///        checkpointing (Algorithms 1 and 2).
///
/// Solver mathematics (iterations, residuals, compression losses) run for
/// real; wall-clock time is accumulated on a virtual clock using the
/// calibrated ClusterModel, so cluster-scale results (paper §5.4) are
/// reproducible on one node: the convergence behaviour under failures is
/// real, and only the cluster's I/O and compute speed is modelled.
///
/// Checkpoint modes (ResilienceConfig::ckpt_mode):
///  - CkptMode::kSync — the paper's setting: the solver stops for the full
///    compress + PFS-write duration of every checkpoint.
///  - CkptMode::kAsync — staged pipeline: only the node-local staging copy
///    blocks the virtual clock; the drain (compression + PFS write) overlaps
///    subsequent iterations. A failure inside the drain window aborts the
///    pending version and recovery falls back to the previous *committed*
///    checkpoint; a checkpoint request while the previous drain is still in
///    flight back-pressures until it commits.
///  - CkptMode::kTiered — multi-level hierarchy (FTI/VeloC style): the
///    staged drain lands in a node-local L1 tier (cheap), and committed
///    versions are promoted L1→L2(partner)→L3(PFS) on a virtual background
///    channel that never blocks the solver. The store plans each promotion
///    (TieredCheckpointStore::plan_promotion: missing chain bases, then the
///    version); the runner only prices the hops on the channel and executes
///    each one when its virtual window closes. Failures carry a severity
///    (process/node/partition/system, sampled per ResilienceConfig
///    weights); a severity-k failure destroys the tiers that do not survive
///    it and recovery reads the cheapest surviving tier, paying that tier's
///    read cost (plus a static-state re-read for node-or-worse failures).

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/severity.hpp"
#include "core/ckpt_policy.hpp"
#include "obs/observability.hpp"
#include "sim/cluster_model.hpp"
#include "sim/failure.hpp"
#include "solvers/solver.hpp"

namespace lck {

/// Which checkpointing scheme to run (paper §5.1 terminology).
enum class CkptScheme { kTraditional, kLossless, kLossy };

[[nodiscard]] const char* to_string(CkptScheme s) noexcept;

/// The compressed schemes' error bound plus the Theorem-3 adaptive one. The
/// lossless scheme runs "deflate" (the paper's gzip) and the lossy scheme
/// SZ under `lossy_eb`.
struct CompressionConfig {
  ErrorBound lossy_eb = ErrorBound::pointwise_rel(1e-4);

  /// Theorem 3: refresh the lossy error bound to θ·||r||/||b|| before every
  /// checkpoint (the paper's GMRES setting).
  bool adaptive_error_bound = false;
  double adaptive_theta = 1.0;
};

/// Fail-stop failure injection with exponential inter-arrival times
/// (λ = 1/MTTI, the paper's model) and the severity mix of the multi-level
/// hierarchy.
struct FailureConfig {
  double mtti_seconds = 3600.0;
  /// Disable for failure-free baselines.
  bool inject = true;
  std::uint64_t seed = 1;
  /// Probability of each failure severity (process, node, partition,
  /// system); must sum to 1. Only sampled in tiered mode.
  std::array<double, kSeverityCount> severity_weights =
      kDefaultSeverityWeights;
};

/// Multi-level hierarchy knobs (CkptMode::kTiered only). Each tier keeps
/// TierSpec's default retention, in the built-in stack and in a service
/// job's stack alike.
struct TieredConfig {
  /// Every k-th committed checkpoint is promoted to the L2 partner tier.
  /// Both cadences reach the runner through its policy (the adaptive one
  /// re-derives them) and apply to every stack, a store_factory one
  /// included.
  int l2_promote_every = 1;
  /// Every k-th committed checkpoint is promoted to the L3 PFS tier.
  int l3_promote_every = 4;
};

/// Chunked content-addressed delta checkpointing (ckpt/chunk/). Disabled by
/// default: at `max_delta_chain = 0` every scheme × mode combination emits
/// streams byte-identical to the pre-delta serializer.
struct DeltaConfig {
  /// Maximum consecutive delta checkpoints riding on one full checkpoint
  /// before the next full is forced (bounds recovery read amplification
  /// and how long retention must keep chain bases). 0 disables delta
  /// encoding entirely.
  int max_delta_chain = 0;
  /// Chunk size in doubles — the unit of hashing, dedup and parallel
  /// compression.
  std::size_t chunk_elems = CheckpointManager::kDefaultChunkElems;
};

/// Checkpoint pacing (see ckpt_policy.hpp for the policy implementations).
struct PolicyConfig {
  /// make_policy name: "fixed" (the paper's offline interval, default),
  /// "young" (model-derived once) or "adaptive" (online re-derivation).
  std::string name = "fixed";
  /// Virtual seconds between checkpoints for the fixed policy
  /// (Young-optimal in the paper), and every policy's fallback when
  /// failure injection is off.
  double interval_seconds = 420.0;
};

struct ResilienceConfig {
  CkptScheme scheme = CkptScheme::kLossy;

  /// Synchronous (paper), staged/overlapped, or multi-level writes.
  CkptMode ckpt_mode = CkptMode::kSync;

  CompressionConfig compression{};
  FailureConfig failure{};
  TieredConfig tiered{};
  PolicyConfig policy{};
  DeltaConfig delta{};
  /// Observability gates (obs/observability.hpp). Both off by default: no
  /// registry or recorder is allocated and every instrumentation site in
  /// the checkpoint stack reduces to one null-pointer test. Enabling them
  /// never changes simulation decisions — runs stay bit-stable.
  obs::ObservabilityConfig obs{};

  /// Externally-owned store stack: when set, the runner calls this factory
  /// instead of building its own store (the multi-tenant CheckpointService
  /// hands per-job stacks out this way — see svc/checkpoint_service.hpp).
  /// In tiered mode the factory must yield a TieredCheckpointStore (the
  /// runner executes its promotions); any CheckpointStore works otherwise.
  /// A TieredCheckpointStore that promotes on its own (auto_promote) is
  /// rejected in every mode: its real-time copies would race the runner's
  /// virtual clock. The stack's TierSpecs set its retention; a service
  /// job's keep the default, as the built-in stack does.
  /// The returned store is owned by the runner's manager; resources it
  /// borrows (the service's shared L3) must outlive the runner.
  std::function<std::unique_ptr<CheckpointStore>()> store_factory;

  /// Virtual cost of one solver iteration at cluster scale (calibrated per
  /// method, e.g. GMRES ≈ 1.22 s at 2,048 ranks — paper §4.3).
  double iteration_seconds = 1.0;

  ClusterModel cluster{};

  /// Cluster-scale bytes per real (local) byte of dynamic state: the
  /// evaluation solves a laptop-sized instance whose vectors stand in for
  /// the paper's 78.8 GB ones. Compression ratios are measured on the real
  /// data; sizes and times are scaled by this factor.
  double dynamic_scale = 1.0;

  /// Cluster-scale bytes of static state (A, M, b) re-read on recovery.
  double static_bytes = 0.0;

  /// Check every knob and throw one config_error naming *all* violations
  /// (one clear message per violation). Called by the runner constructor.
  void validate() const;
};

struct ResilienceResult {
  bool converged = false;

  /// Solver steps actually executed (includes rollback re-execution).
  index_t executed_steps = 0;
  /// solver.iteration() at convergence: N plus any lossy delay N′,
  /// excluding rollback re-execution (the paper's Fig. 8 metric).
  index_t convergence_iteration = 0;
  double final_residual_norm = 0.0;

  /// Virtual wall-clock of the whole run (paper's Tt).
  double virtual_seconds = 0.0;

  int failures = 0;
  int checkpoints = 0;
  int recoveries = 0;
  /// Async only: staged versions rolled back because a failure struck
  /// before their drain committed.
  int aborted_drains = 0;

  /// Virtual seconds the solver was *blocked* by checkpointing: the full
  /// compress+write in sync mode; staging copies plus back-pressure waits
  /// in async mode.
  double ckpt_seconds_total = 0.0;
  /// Async only: drain seconds (compression + PFS write) that actually ran
  /// overlapped with iterations — off the critical path, not part of
  /// virtual_seconds. The back-pressured tail of a drain counts toward
  /// ckpt_seconds_total/backpressure_seconds_total instead, never here.
  double ckpt_drain_seconds_total = 0.0;
  /// Async only: portion of ckpt_seconds_total spent stalled because a new
  /// checkpoint was requested while the previous drain was still in flight.
  double backpressure_seconds_total = 0.0;
  double recovery_seconds_total = 0.0;
  /// Mean blocking seconds per *committed* checkpoint (excludes the staging
  /// cost of later-aborted versions, which stays in ckpt_seconds_total).
  double mean_ckpt_seconds = 0.0;
  double mean_recovery_seconds = 0.0;

  /// Failure count per severity class. Without the tiered severity model
  /// every failure is kProcess.
  std::array<int, kSeverityCount> failures_by_severity{};
  /// Tiered only: recoveries served by each hierarchy level (0 = L1
  /// node-local, 1 = L2 partner, 2 = L3 PFS).
  std::array<int, 3> recoveries_by_tier{};
  /// Tiered only: L1→L2/L3 promotions that completed before the run (or a
  /// failure) cut them off, and their total virtual seconds — background
  /// work, never part of virtual_seconds.
  int promotions_completed = 0;
  double promotion_seconds_total = 0.0;

  /// Cluster-scale stored checkpoint size (mean over checkpoints) and the
  /// achieved dynamic-state compression ratio. With delta encoding the
  /// ratio reflects *full* checkpoints only (a delta's raw/stored quotient
  /// would conflate chunk dedup with the codec); delta savings are in
  /// delta_bytes_total / chunks_deduped below.
  double mean_ckpt_stored_bytes = 0.0;
  double compression_ratio = 1.0;

  /// Delta checkpointing counters. At max_delta_chain = 0,
  /// delta_bytes_total and chunks_deduped are zero and full_checkpoints
  /// equals checkpoints (every committed checkpoint is full).
  /// delta_bytes_total: cluster-scale stored bytes of the committed
  /// *delta* (non-full) checkpoints — what the runner actually paid to
  /// stage/drain them.
  double delta_bytes_total = 0.0;
  /// Chunks stored as references instead of payload bytes, summed over
  /// committed checkpoints.
  std::size_t chunks_deduped = 0;
  /// Committed chain-start (full) checkpoints.
  int full_checkpoints = 0;

  /// The pacing policy's target interval when the run ended (the fixed
  /// interval for "fixed", the derived one for "young"/"adaptive") and how
  /// many times it changed mid-run (0 for the static policies) — so benches
  /// and tests can observe pacing without parsing logs.
  double policy_interval_final = 0.0;
  int interval_adjustments = 0;
};

/// Drives one solver instance to convergence under the configured scheme.
class ResilientRunner {
 public:
  ResilientRunner(IterativeSolver& solver, ResilienceConfig cfg);
  ~ResilientRunner();

  /// Execute to convergence (or a safety cap of 2,000,000 executed steps).
  /// May be called once.
  [[nodiscard]] ResilienceResult run();

  /// The pacing policy driving this run (for observability; owned).
  [[nodiscard]] const CheckpointPolicy& policy() const noexcept {
    return *policy_;
  }

  /// The run's metrics registry, or nullptr when cfg.obs.metrics is off.
  /// Snapshot it after run() for per-stage histograms and counters.
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_.get();
  }
  /// The run's trace recorder, or nullptr when cfg.obs.trace is off.
  [[nodiscard]] obs::TraceRecorder* trace() const noexcept {
    return trace_.get();
  }
  /// Transfer ownership of the trace recorder so callers can merge several
  /// runs into one Chrome trace file after the runners are gone. Returns
  /// null when tracing was off.
  [[nodiscard]] std::unique_ptr<obs::TraceRecorder> take_trace() noexcept;

 private:
  void register_variables();
  /// Model predictions and failure rates the pacing policy is built from.
  [[nodiscard]] PolicyContext make_policy_context() const;
  /// Scheme-dependent virtual cost of (de)compressing `raw_bytes` of
  /// dynamic state (zero for the traditional scheme). Shared by every
  /// checkpoint/drain/recovery duration below.
  [[nodiscard]] double compress_cost(double raw_bytes) const;
  [[nodiscard]] double decompress_cost(double raw_bytes) const;
  [[nodiscard]] double checkpoint_duration(const CheckpointRecord& rec) const;
  /// Virtual seconds of the background drain window: compression + PFS
  /// write (kAsync) or compression + node-local L1 write (kTiered).
  [[nodiscard]] double drain_duration(const CheckpointRecord& rec) const;
  [[nodiscard]] double recovery_duration(double stored_bytes,
                                         double raw_dynamic_bytes) const;
  /// Tiered recovery cost from hierarchy level `level`; `worst` is the
  /// highest severity seen since the last successful recovery (node or
  /// worse adds the static-state PFS re-read).
  [[nodiscard]] double tiered_recovery_duration(int version, int level,
                                                FailureSeverity worst) const;
  void refresh_adaptive_bound();
  void capture_solver_state();  ///< Copy x / scalars into protected buffers.
  bool do_checkpoint();   ///< Sync path. Returns false if a failure hit it.
  bool do_stage();        ///< Async path. Returns false if a failure hit it.
  /// Join the drain and fix its virtual window. Returns false if the drain
  /// itself failed (background compressor/store error): the pending version
  /// is then aborted like a torn write and the caller must not commit it.
  [[nodiscard]] bool ensure_drain_record();
  /// Promote the drained version; `overlapped_drain_seconds` is the part of
  /// its drain window that ran concurrently with iterations (the rest, if
  /// any, was back-pressure and is charged as blocking time by the caller).
  void commit_pending(double overlapped_drain_seconds);
  /// Shared commit accounting for the sync and staged paths: cluster-scale
  /// last-committed sizes, the chain-total recovery bytes, and the delta
  /// counters.
  void account_committed(const CheckpointRecord& rec);
  void settle_pending_at_failure();  ///< Commit or abort at failure time t_.
  void finish_pending_at_exit();     ///< Commit the tail drain on run end.
  void handle_failure();
  /// Count a failure with severity `sev`; in tiered mode also applies
  /// matured promotions, drops in-flight promotion work and invalidates
  /// the destroyed tiers.
  void note_failure(FailureSeverity sev);
  /// Price the store's promotion plan of a committed version into every
  /// tier the policy's cadence admits, hop by hop, on the (serial)
  /// background channel, starting no earlier than `ready_t`.
  void schedule_virtual_promotions(int version, double ready_t);
  /// Execute every queued promotion whose virtual window ended by `now`.
  void apply_promotions(double now);

  IterativeSolver& solver_;
  ResilienceConfig cfg_;
  std::unique_ptr<CheckpointPolicy> policy_;
  // Allocated only when cfg_.obs enables them; sink_ carries the borrowed
  // pointers down the checkpoint stack.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  obs::Sink sink_{};
  std::unique_ptr<Compressor> compressor_;
  LossyCompressor* lossy_ = nullptr;  // non-null iff scheme == kLossy
  std::unique_ptr<CheckpointManager> manager_;

  Vector x_buf_;                   // lossy scheme: checkpointed copy of x
  std::vector<byte_t> scalar_blob_;  // traditional/lossless scalar state
  std::vector<byte_t> iter_blob_;  // serialized solver iteration (lossy path)

  FailureInjector injector_;
  double t_ = 0.0;                 // virtual clock
  double last_ckpt_t_ = 0.0;
  ResilienceResult result_;
  double stored_bytes_last_ = 0.0;  // cluster-scale stored size of last
  double raw_dyn_bytes_last_ = 0.0;  // *committed* checkpoint
  /// Cluster-scale bytes a recovery of the last committed version must
  /// read: the version itself plus its delta-chain bases (== the stored
  /// size when delta encoding is off).
  double chain_stored_last_ = 0.0;

  // Async pipeline: the drain in flight, if any.
  int pending_version_ = -1;
  bool pending_known_ = false;       // drain joined, record + window fixed
  double drain_start_t_ = 0.0;
  double drain_end_t_ = 0.0;
  double pending_blocking_ = 0.0;    // blocking seconds of the pending ckpt
  double committed_blocking_total_ = 0.0;  // numerator of mean_ckpt_seconds
  CheckpointRecord pending_rec_{};

  // Tiered hierarchy: borrowed from manager_'s store (manager owns it).
  TieredCheckpointStore* tiered_ = nullptr;
  /// One planned hop (into L2 or L3) on the serial virtual promotion
  /// channel.
  struct VirtualPromotion {
    PromotionHop hop;
    double done_t = 0.0;  ///< Virtual completion time.
    double cost = 0.0;    ///< Seconds of background channel time.
  };
  std::deque<VirtualPromotion> promo_queue_;
  double promo_tail_t_ = 0.0;  ///< Busy-until time of the promotion channel.
};

}  // namespace lck
