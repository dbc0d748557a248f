#pragma once
/// \file ckpt_policy.hpp
/// \brief Pluggable checkpoint-pacing policies: when should the runner take
///        the next checkpoint?
///
/// The paper picks a single Young-optimal interval offline and paces every
/// run with it. The staged and tiered modes have overlap-aware and per-tier
/// cost models whose optimal intervals differ per mode — this layer lets a
/// policy choose the interval that the runner's
/// `now - last >= interval` comparison paces with:
///
///  - FixedIntervalPolicy — the paper's setting, bit-identical to the old
///    hardwired pacing (and the default, so existing runs are unchanged).
///  - YoungPolicy — derives the interval once, at construction, from the
///    perf_model inverse helpers given λ and the model-predicted blocking
///    cost of the active CkptMode.
///  - AdaptiveCostPolicy — online: re-derives the interval after every
///    committed checkpoint from the *observed* blocking cost and stored
///    size (EWMA), using the overlap-aware formula in staged modes; in
///    tiered mode it also adapts the effective L2/L3 promotion cadence from
///    the per-tier optimal intervals.
///
/// Policies are deterministic: their state is a pure function of the
/// virtual clock and the observed (virtual) costs the runner feeds them, so
/// reruns with the same seed stay bit-stable.

#include <array>
#include <memory>
#include <string>

#include "ckpt/checkpoint_manager.hpp"  // CkptMode

namespace lck {

/// Everything a pacing policy may consult, captured at construction: the
/// failure rate, the configured fixed interval (the fixed policy's pacing
/// and every other policy's fallback when λ = 0), and the perf-model
/// predictions for one checkpoint of the active mode. The predictions use a
/// compression ratio of 1 (conservative); adaptive policies replace them
/// with observed values as checkpoints commit.
struct PolicyContext {
  CkptMode mode = CkptMode::kSync;
  /// Failure rate λ = 1/MTTI; 0 when failure injection is disabled (the
  /// model-driven policies then fall back to the fixed interval — with no
  /// failures the "optimal" interval diverges).
  double lambda = 0.0;
  double fixed_interval_seconds = 420.0;
  /// Model-predicted solver-blocking seconds of one checkpoint: the full
  /// compress+write (kSync) or the staging copy (kAsync/kTiered).
  double predicted_blocking_seconds = 0.0;
  /// Model-predicted background drain seconds (== blocking for kSync).
  double predicted_drain_seconds = 0.0;
  /// Model-predicted stored bytes (cluster scale, ratio-1 guess). Adaptive
  /// policies rescale the drain/copy predictions by observed/predicted.
  double predicted_stored_bytes = 0.0;
  /// kTiered: model-predicted seconds to place one checkpoint on L2/L3.
  double l2_copy_seconds = 0.0;
  double l3_copy_seconds = 0.0;
  /// kTiered: per-recovery-tier failure rates (severity_tier_lambdas).
  std::array<double, 3> tier_lambdas{};
  /// kTiered: configured promotion cadence (adaptive policies may override).
  int l2_promote_every = 1;
  int l3_promote_every = 4;
};

/// Abstract checkpoint-timing decision, consulted by ResilientRunner once
/// per iteration and told the observed cost of every committed checkpoint.
/// A policy sets the pacing through current_interval() and the tiered
/// promotion cadence; the decision rule itself is fixed.
class CheckpointPolicy {
 public:
  explicit CheckpointPolicy(PolicyContext ctx) : ctx_(std::move(ctx)) {}
  virtual ~CheckpointPolicy() = default;

  /// Short identifier, e.g. "fixed", "young", "adaptive".
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Target seconds between checkpoints right now (observability and the
  /// decision rule below).
  [[nodiscard]] virtual double current_interval() const noexcept = 0;

  /// Decide whether to checkpoint at virtual time `now`: true once
  /// current_interval() seconds have passed since `last_ckpt_t`, when the
  /// checkpoint timer was last reset (previous checkpoint end or recovery
  /// end).
  [[nodiscard]] bool should_checkpoint(double now, double last_ckpt_t) const {
    return now - last_ckpt_t >= current_interval();
  }

  /// A checkpoint version committed (default: ignored). `blocking_seconds`
  /// is what the solver paid for it (full cost in sync mode; staging copy
  /// plus any back-pressure in staged modes); `stored_bytes` its
  /// cluster-scale stored size.
  virtual void on_checkpoint_committed(double blocking_seconds,
                                       double stored_bytes) {
    (void)blocking_seconds;
    (void)stored_bytes;
  }

  // ----- tiered promotion cadence -------------------------------------------

  /// Every k-th committed version is promoted to L2 / L3 (kTiered only).
  /// Defaults to the configured cadence; AdaptiveCostPolicy re-derives it
  /// from the per-tier optimal intervals.
  [[nodiscard]] virtual int l2_promote_every() const noexcept {
    return ctx_.l2_promote_every;
  }
  [[nodiscard]] virtual int l3_promote_every() const noexcept {
    return ctx_.l3_promote_every;
  }

  /// Times the target interval changed since construction (0 for static
  /// policies) — surfaced as ResilienceResult::interval_adjustments.
  [[nodiscard]] virtual int interval_adjustments() const noexcept {
    return 0;
  }

  [[nodiscard]] const PolicyContext& context() const noexcept { return ctx_; }

 protected:
  PolicyContext ctx_;
};

/// The paper's pacing: one fixed wall-clock interval, chosen offline.
/// Bit-identical to the pre-policy hardwired comparison.
class FixedIntervalPolicy final : public CheckpointPolicy {
 public:
  explicit FixedIntervalPolicy(PolicyContext ctx);
  /// Standalone convenience (e.g. examples driving CheckpointManager
  /// directly): pace at `interval_seconds` with a default context.
  explicit FixedIntervalPolicy(double interval_seconds);

  [[nodiscard]] const char* name() const noexcept override { return "fixed"; }
  [[nodiscard]] double current_interval() const noexcept override {
    return ctx_.fixed_interval_seconds;
  }
};

/// Young's formula evaluated once at construction on the model-predicted
/// blocking cost of the active mode: sqrt(2c/λ) for kSync, the overlap-aware
/// fixed point for kAsync/kTiered. Falls back to the configured fixed
/// interval when λ = 0 or the prediction is degenerate.
class YoungPolicy final : public CheckpointPolicy {
 public:
  explicit YoungPolicy(PolicyContext ctx);

  [[nodiscard]] const char* name() const noexcept override { return "young"; }
  [[nodiscard]] double current_interval() const noexcept override {
    return interval_;
  }

 private:
  double interval_ = 0.0;
};

/// Online pacing: starts from the YoungPolicy prediction, then re-derives
/// the interval after every committed checkpoint from EWMAs of the observed
/// blocking cost and stored size. In staged modes the back-pressure share
/// of the blocking cost closes a natural feedback loop (interval too short
/// ⇒ back-pressure ⇒ observed cost up ⇒ interval up). In tiered mode the
/// per-tier optimal intervals additionally drive the effective L2/L3
/// promotion cadence.
class AdaptiveCostPolicy final : public CheckpointPolicy {
 public:
  /// `smoothing` is the EWMA weight of the newest observation in (0, 1].
  explicit AdaptiveCostPolicy(PolicyContext ctx, double smoothing = 0.5);

  [[nodiscard]] const char* name() const noexcept override {
    return "adaptive";
  }
  [[nodiscard]] double current_interval() const noexcept override {
    return interval_;
  }
  void on_checkpoint_committed(double blocking_seconds,
                               double stored_bytes) override;

  [[nodiscard]] int l2_promote_every() const noexcept override {
    return l2_every_;
  }
  [[nodiscard]] int l3_promote_every() const noexcept override {
    return l3_every_;
  }
  [[nodiscard]] int interval_adjustments() const noexcept override {
    return adjustments_;
  }

  /// Current EWMA of the observed solver-blocking seconds per checkpoint.
  [[nodiscard]] double blocking_estimate() const noexcept {
    return blocking_ewma_;
  }

 private:
  void rederive();

  double alpha_;
  double blocking_ewma_ = 0.0;
  double stored_ewma_ = 0.0;
  double interval_ = 0.0;
  int l2_every_ = 1;
  int l3_every_ = 1;
  int adjustments_ = 0;
};

/// Factory mirroring make_compressor: "fixed" | "young" | "adaptive".
/// Throws config_error for unknown names.
[[nodiscard]] std::unique_ptr<CheckpointPolicy> make_policy(
    const std::string& name, const PolicyContext& ctx);

/// True iff `name` is resolvable by make_policy — the single source of
/// truth for the known-policy list (ResilienceConfig::validate uses it).
[[nodiscard]] bool is_known_policy(const std::string& name) noexcept;

}  // namespace lck
