#pragma once
/// \file failure.hpp
/// \brief Fail-stop failure injection with exponentially distributed
///        inter-arrival times (paper §5.4: "the failure intervals follow an
///        exponential distribution"), or Weibull(shape, scale) arrivals for
///        bursty fleet scenarios (set_weibull; shape < 1 front-loads the
///        hazard the way real failure logs do). Failures may land during
///        computation, checkpointing, or recovery. For the multi-level
///        checkpoint hierarchy each failure optionally carries a severity
///        (process / node / partition / system) sampled from configurable
///        weights, so λ splits into per-severity rates λ_k = w_k·λ.

#include <array>

#include "common/rng.hpp"
#include "common/severity.hpp"
#include "common/types.hpp"

namespace lck {

/// Default severity mix for the tiered experiments: most failures are
/// process-level (software aborts dominate field data), node losses are the
/// common hardware case, partition/system outages are rare.
inline constexpr std::array<double, kSeverityCount> kDefaultSeverityWeights{
    0.55, 0.30, 0.10, 0.05};

class FailureInjector {
 public:
  /// `mtti_seconds` is the mean time to interruption (λ = 1/MTTI);
  /// pass enabled=false for failure-free baselines.
  FailureInjector(double mtti_seconds, std::uint64_t seed, bool enabled = true)
      : rng_(seed), mtti_(mtti_seconds), enabled_(enabled) {
    require(mtti_seconds > 0.0, "failure injector: MTTI must be positive");
    arm(0.0);
  }

  /// Virtual time of the next failure (infinity when disabled).
  [[nodiscard]] double next_failure_time() const noexcept { return next_; }

  /// Severity of the armed (next) failure. Always kProcess unless severity
  /// sampling was enabled with set_severity_weights().
  [[nodiscard]] FailureSeverity severity() const noexcept {
    return next_severity_;
  }

  /// True if the armed failure lands in the half-open window
  /// [start, start + duration). Consecutive windows [t, t+d1), [t+d1, d2), …
  /// tile the timeline, so every failure is delivered exactly once — in
  /// particular a failure armed at *exactly* `start`. That case is real:
  /// arm(now) computes `now + Exp(MTTI)`, and for large `now` a small draw
  /// rounds to exactly `now` in double precision. The previous strict
  /// `next_ > start` test dropped such a failure forever, since every later
  /// window also starts at or after it.
  [[nodiscard]] bool interrupts(double start, double duration) const noexcept {
    return enabled_ && next_ >= start && next_ < start + duration;
  }

  /// Re-arm after handling a failure (or to skip one): samples the next
  /// arrival at `now` + Exp(MTTI) — or `now` + Weibull(shape, scale) when
  /// the Weibull model is active — plus its severity when the severity
  /// model is active. Runs that never enable severities or Weibull draw
  /// exactly the same RNG sequence as before these extensions (bit-stable
  /// seeds).
  void arm(double now) {
    next_ = enabled_ ? now + sample_interarrival()
                     : std::numeric_limits<double>::infinity();
    next_severity_ = enabled_ && severities_enabled_
                         ? sample_severity()
                         : FailureSeverity::kProcess;
  }

  /// Switch inter-arrival sampling to Weibull(shape, scale). shape < 1
  /// gives the bursty heavy-early-mass arrivals real failure logs show;
  /// shape = 1 is exactly exponential with mean `scale` (same draws, same
  /// values — bit-stable against the default model when scale == MTTI).
  /// The currently armed failure is re-armed from `now` under the new
  /// distribution so the switch takes effect immediately.
  void set_weibull(double shape, double scale, double now = 0.0) {
    require(shape > 0.0, "failure injector: Weibull shape must be positive");
    require(scale > 0.0, "failure injector: Weibull scale must be positive");
    weibull_enabled_ = true;
    weibull_shape_ = shape;
    weibull_scale_ = scale;
    arm(now);
  }

  [[nodiscard]] bool weibull_enabled() const noexcept {
    return weibull_enabled_;
  }

  /// Enable per-failure severity sampling. Weights must be non-negative and
  /// sum to ~1; the severity of the *currently armed* failure is resampled.
  void set_severity_weights(const std::array<double, kSeverityCount>& w) {
    double sum = 0.0;
    for (const double x : w) {
      require(x >= 0.0, "failure injector: negative severity weight");
      sum += x;
    }
    require(sum > 0.999 && sum < 1.001,
            "failure injector: severity weights must sum to 1");
    weights_ = w;
    severities_enabled_ = true;
    if (enabled_) next_severity_ = sample_severity();
  }

  /// Pin the next failure to an exact virtual time (and severity). Used for
  /// trace replay and for tests that need boundary cases — e.g. a failure
  /// armed exactly at a window start — which random draws hit only with
  /// probability ~0.
  void set_next_failure(double t,
                        FailureSeverity sev = FailureSeverity::kProcess) noexcept {
    next_ = t;
    next_severity_ = sev;
  }

  [[nodiscard]] double mtti() const noexcept { return mtti_; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

 private:
  [[nodiscard]] double sample_interarrival() noexcept {
    return weibull_enabled_ ? rng_.weibull(weibull_shape_, weibull_scale_)
                            : rng_.exponential(mtti_);
  }

  [[nodiscard]] FailureSeverity sample_severity() noexcept {
    const double u = rng_.uniform();
    double acc = 0.0;
    for (std::size_t k = 0; k < kSeverityCount; ++k) {
      acc += weights_[k];
      if (u < acc) return static_cast<FailureSeverity>(k);
    }
    return FailureSeverity::kSystem;  // rounding tail
  }

  Rng rng_;
  double mtti_;
  bool enabled_;
  bool severities_enabled_ = false;
  bool weibull_enabled_ = false;
  double weibull_shape_ = 1.0;
  double weibull_scale_ = 1.0;
  std::array<double, kSeverityCount> weights_ = kDefaultSeverityWeights;
  double next_ = 0.0;
  FailureSeverity next_severity_ = FailureSeverity::kProcess;
};

}  // namespace lck
