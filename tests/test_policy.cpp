/// Tests for the pluggable checkpoint-pacing policy layer: the perf-model
/// inverse helpers, the three policy implementations, the make_policy
/// factory, ResilienceConfig::validate(), and — most load-bearing — that
/// FixedIntervalPolicy (the default) reproduces the pre-redesign runner
/// behaviour bit-for-bit for all three checkpoint modes.

#include <gtest/gtest.h>

#include <cmath>

#include "core/ckpt_policy.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "sim/perf_model.hpp"

namespace lck {
namespace {

constexpr double kLambda = 1.0 / 3600.0;

PolicyContext sync_context(double blocking, double lambda = kLambda) {
  PolicyContext ctx;
  ctx.mode = CkptMode::kSync;
  ctx.lambda = lambda;
  ctx.fixed_interval_seconds = 420.0;
  ctx.predicted_blocking_seconds = blocking;
  ctx.predicted_drain_seconds = blocking;
  ctx.predicted_stored_bytes = 1e9;
  return ctx;
}

// ----- perf_model inverse helpers -------------------------------------------

TEST(PolicyModel, OptimalIntervalIsYoungInverse) {
  // sqrt(2c/λ) == young_interval_seconds(c, MTTI) with MTTI = 1/λ.
  EXPECT_DOUBLE_EQ(optimal_interval_seconds(120.0, kLambda),
                   young_interval_seconds(120.0, 3600.0));
  EXPECT_DOUBLE_EQ(optimal_interval_seconds(2.0, 0.5), std::sqrt(8.0));
  EXPECT_TRUE(std::isinf(optimal_interval_seconds(120.0, 0.0)));
  EXPECT_TRUE(std::isinf(optimal_interval_seconds(0.0, kLambda)));
}

TEST(PolicyModel, AsyncOptimalIntervalWithoutBackpressure) {
  // Drain shorter than the stage-only Young interval: no back-pressure, the
  // optimum is the plain Young interval of the staging cost.
  const double t = async_optimal_interval_seconds(0.1, 5.0, kLambda);
  EXPECT_DOUBLE_EQ(t, optimal_interval_seconds(0.1, kLambda));
  EXPECT_GE(t, 5.0);
}

TEST(PolicyModel, AsyncOptimalIntervalIsSelfConsistentUnderBackpressure) {
  // Slow drain: the fixed point t = sqrt(2·(stage + max(0, drain − t))/λ).
  const double stage = 0.5, drain = 400.0, lambda = 1.0 / 600.0;
  const double t = async_optimal_interval_seconds(stage, drain, lambda);
  EXPECT_LE(t, drain);
  const double blocking = stage + std::max(0.0, drain - t);
  EXPECT_NEAR(t, std::sqrt(2.0 * blocking / lambda), 1e-9 * t);
}

TEST(PolicyModel, AsyncOptimalIntervalDegenerateCases) {
  EXPECT_TRUE(std::isinf(async_optimal_interval_seconds(0.1, 10.0, 0.0)));
  EXPECT_TRUE(std::isinf(async_optimal_interval_seconds(0.0, 0.0, kLambda)));
  // Zero stage cost but a real drain still needs a positive interval.
  EXPECT_GT(async_optimal_interval_seconds(0.0, 10.0, kLambda), 0.0);
}

TEST(PolicyModel, PromoteCadenceRoundsAndClamps) {
  EXPECT_EQ(promote_cadence(100.0, 350.0), 4);   // round(3.5) to even = 4
  EXPECT_EQ(promote_cadence(100.0, 249.0), 2);
  EXPECT_EQ(promote_cadence(100.0, 50.0), 1);    // never below 1
  EXPECT_EQ(promote_cadence(100.0,
                            std::numeric_limits<double>::infinity()),
            1000000);
  EXPECT_EQ(promote_cadence(0.0, 500.0), 1);     // degenerate base
}

// ----- FixedIntervalPolicy --------------------------------------------------

TEST(FixedPolicy, ReproducesHardwiredComparison) {
  const FixedIntervalPolicy p(20.0);
  EXPECT_STREQ(p.name(), "fixed");
  EXPECT_DOUBLE_EQ(p.current_interval(), 20.0);
  EXPECT_FALSE(p.should_checkpoint(19.999, 0.0));
  EXPECT_TRUE(p.should_checkpoint(20.0, 0.0));  // >= boundary, like the old code
  EXPECT_TRUE(p.should_checkpoint(45.0, 20.0));
  EXPECT_EQ(p.interval_adjustments(), 0);
}

TEST(FixedPolicy, RejectsNonPositiveInterval) {
  EXPECT_THROW(FixedIntervalPolicy(0.0), config_error);
  EXPECT_THROW(FixedIntervalPolicy(-5.0), config_error);
}

// ----- YoungPolicy ----------------------------------------------------------

TEST(YoungPolicy, SyncIntervalMatchesClosedForm) {
  const double c = 120.0;
  const YoungPolicy p(sync_context(c));
  EXPECT_STREQ(p.name(), "young");
  EXPECT_DOUBLE_EQ(p.current_interval(), std::sqrt(2.0 * c / kLambda));
  EXPECT_DOUBLE_EQ(p.current_interval(),
                   young_interval_seconds(c, 1.0 / kLambda));
}

TEST(YoungPolicy, StagedModeUsesOverlapAwareInterval) {
  PolicyContext ctx = sync_context(0.0);
  ctx.mode = CkptMode::kAsync;
  ctx.predicted_blocking_seconds = 0.2;   // staging copy
  ctx.predicted_drain_seconds = 130.0;    // compress + PFS write
  const YoungPolicy p(ctx);
  EXPECT_DOUBLE_EQ(p.current_interval(),
                   async_optimal_interval_seconds(0.2, 130.0, ctx.lambda));
  // Much shorter than the sync interval of the full cost: overlap makes
  // frequent checkpoints cheap.
  EXPECT_LT(p.current_interval(),
            optimal_interval_seconds(130.2, ctx.lambda));
}

TEST(YoungPolicy, FallsBackToFixedIntervalWithoutFailures) {
  PolicyContext ctx = sync_context(120.0, /*lambda=*/0.0);
  const YoungPolicy p(ctx);
  EXPECT_DOUBLE_EQ(p.current_interval(), 420.0);
}

// ----- AdaptiveCostPolicy ---------------------------------------------------

TEST(AdaptivePolicy, ConvergesToYoungIntervalUnderStationaryCosts) {
  // Start from a wildly wrong prediction; feed a stationary observed cost.
  PolicyContext ctx = sync_context(/*blocking=*/500.0);
  AdaptiveCostPolicy p(ctx);
  const double c = 5.0;
  for (int i = 0; i < 60; ++i) p.on_checkpoint_committed(c, 1e8);
  const double young = std::sqrt(2.0 * c / kLambda);
  EXPECT_NEAR(p.current_interval(), young, 1e-6 * young);
  EXPECT_NEAR(p.blocking_estimate(), c, 1e-9 * c);
  EXPECT_GT(p.interval_adjustments(), 0);
}

TEST(AdaptivePolicy, ReAdaptsAfterCostStepChange) {
  PolicyContext ctx = sync_context(/*blocking=*/10.0);
  AdaptiveCostPolicy p(ctx);
  for (int i = 0; i < 60; ++i) p.on_checkpoint_committed(10.0, 1e9);
  const double before = p.current_interval();
  EXPECT_NEAR(before, std::sqrt(2.0 * 10.0 / kLambda), 1e-6 * before);
  const int adj_before = p.interval_adjustments();
  // Cost quadruples (e.g. compression ratio collapsed): the Young interval
  // must double.
  for (int i = 0; i < 60; ++i) p.on_checkpoint_committed(40.0, 1e9);
  EXPECT_NEAR(p.current_interval(), 2.0 * before, 1e-6 * before);
  EXPECT_GT(p.interval_adjustments(), adj_before);
}

TEST(AdaptivePolicy, TieredModeAdaptsPromotionCadence) {
  PolicyContext ctx;
  ctx.mode = CkptMode::kTiered;
  ctx.lambda = 1.0 / 600.0;
  ctx.fixed_interval_seconds = 420.0;
  ctx.predicted_blocking_seconds = 0.5;
  ctx.predicted_drain_seconds = 1.0;
  ctx.predicted_stored_bytes = 1e9;
  ctx.l2_copy_seconds = 8.0;
  ctx.l3_copy_seconds = 60.0;
  ctx.tier_lambdas = severity_tier_lambdas(ctx.lambda,
                                           kDefaultSeverityWeights);
  ctx.l2_promote_every = 1;
  ctx.l3_promote_every = 4;
  AdaptiveCostPolicy p(ctx);
  for (int i = 0; i < 40; ++i) p.on_checkpoint_committed(0.5, 1e9);

  // The cadence must match the per-tier optimal intervals exactly.
  const std::array<double, 3> costs{p.blocking_estimate(), 8.0, 60.0};
  const auto t = tiered_optimal_intervals(costs, ctx.tier_lambdas);
  EXPECT_EQ(p.l2_promote_every(), promote_cadence(p.current_interval(), t[1]));
  EXPECT_EQ(p.l3_promote_every(), promote_cadence(p.current_interval(), t[2]));
  // L3 is more expensive and covers rarer failures: promote less often.
  EXPECT_GE(p.l3_promote_every(), p.l2_promote_every());
  EXPECT_GE(p.l2_promote_every(), 1);
}

TEST(AdaptivePolicy, RejectsBadSmoothing) {
  EXPECT_THROW(AdaptiveCostPolicy(sync_context(1.0), 0.0), config_error);
  EXPECT_THROW(AdaptiveCostPolicy(sync_context(1.0), 1.5), config_error);
}

// ----- make_policy factory --------------------------------------------------

TEST(MakePolicy, CreatesAllKnownPolicies) {
  const PolicyContext ctx = sync_context(10.0);
  EXPECT_STREQ(make_policy("fixed", ctx)->name(), "fixed");
  EXPECT_STREQ(make_policy("young", ctx)->name(), "young");
  EXPECT_STREQ(make_policy("adaptive", ctx)->name(), "adaptive");
}

TEST(MakePolicy, ThrowsForUnknownName) {
  EXPECT_THROW(make_policy("", sync_context(1.0)), config_error);
  EXPECT_THROW(make_policy("youngish", sync_context(1.0)), config_error);
}

// ----- ResilienceConfig::validate -------------------------------------------

TEST(ConfigValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(ResilienceConfig{}.validate());
}

void expect_rejected(const ResilienceConfig& cfg, const std::string& needle) {
  try {
    cfg.validate();
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ConfigValidate, RejectsEachBadKnobWithItsOwnMessage) {
  ResilienceConfig cfg;
  cfg.policy.interval_seconds = 0.0;
  expect_rejected(cfg, "policy.interval_seconds");

  cfg = {};
  cfg.policy.name = "bogus";
  expect_rejected(cfg, "policy.name");

  cfg = {};
  cfg.iteration_seconds = -1.0;
  expect_rejected(cfg, "iteration_seconds");

  cfg = {};
  cfg.dynamic_scale = 0.0;
  expect_rejected(cfg, "dynamic_scale");

  cfg = {};
  cfg.static_bytes = -1.0;
  expect_rejected(cfg, "static_bytes");

  cfg = {};
  cfg.failure.mtti_seconds = 0.0;
  expect_rejected(cfg, "failure.mtti_seconds");

  cfg = {};
  cfg.failure.severity_weights = {0.5, 0.5, 0.5, 0.5};
  expect_rejected(cfg, "sum to 1");

  cfg = {};
  cfg.failure.severity_weights = {1.5, -0.5, 0.0, 0.0};
  expect_rejected(cfg, "non-negative");

  cfg = {};
  cfg.tiered.l2_promote_every = 0;
  expect_rejected(cfg, "tiered.l2_promote_every");

  cfg = {};
  cfg.tiered.l3_promote_every = -2;
  expect_rejected(cfg, "tiered.l3_promote_every");

  cfg = {};
  cfg.tiered.retention = 0;
  expect_rejected(cfg, "tiered.retention");

  cfg = {};
  cfg.max_steps = 0;
  expect_rejected(cfg, "max_steps");
}

TEST(ConfigValidate, CollectsEveryViolationInOneError) {
  ResilienceConfig cfg;
  cfg.policy.interval_seconds = -1.0;
  cfg.iteration_seconds = 0.0;
  cfg.tiered.retention = 0;
  try {
    cfg.validate();
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("policy.interval_seconds"), std::string::npos);
    EXPECT_NE(what.find("iteration_seconds"), std::string::npos);
    EXPECT_NE(what.find("tiered.retention"), std::string::npos);
  }
}

// ----- FixedIntervalPolicy == pre-redesign runner behaviour -----------------

/// ResilienceResults of the fixed-interval runner for CG/grid-8 under the
/// aggressive test config below, recorded with %.17g — first from the
/// pre-policy-API runner (commit 1fd6ed0), re-recorded once when every
/// checkpoint became one framed, chunk-addressed stream: the stored bytes
/// moved by the framing, and with them the byte-priced clock sums. A few
/// counters moved too: the fixed policy compares t − last_ckpt_t against
/// its 20 s interval after four 5 s iterations, a difference of 0 or ±1
/// ulp, so a last-bit change in a byte-priced duration takes or skips that
/// checkpoint and shifts later failures. The default FixedIntervalPolicy
/// must reproduce the table exactly: integer counters bit-for-bit, clock
/// sums to 1e-9 relative (libm slack across platforms — locally the full
/// struct is bit-identical).
struct GoldenRun {
  int scheme;
  int mode;
  index_t executed_steps;
  index_t convergence_iteration;
  int failures, checkpoints, recoveries, aborted_drains;
  double virtual_seconds, ckpt_seconds_total, ckpt_drain_seconds_total;
  double backpressure_seconds_total, recovery_seconds_total;
  double mean_ckpt_stored_bytes;
};

constexpr GoldenRun kGoldenRuns[] = {
    {0, 0, 27, 23, 6, 5, 5, 0, 155.47494621307743, 5.3200526750000003, 0, 0,
     5.3263029000000008, 8428},
    {0, 1, 27, 23, 6, 5, 5, 0, 149.46093600071632, 0.25000071319444445,
     5.3200526412500153, 0, 5.3263029000000008, 8422.6000000000004},
    {0, 2, 25, 23, 3, 5, 2, 0, 128.65508904159407, 0.25000071319444445,
     0.25000073102428999, 0, 1.1152607269444446, 8421.3999999999996},
    {2, 0, 33, 29, 6, 7, 5, 0, 187.60293055566075, 7.4480135540000001, 0, 0,
     5.3262569966666664, 819.42857142857144},
    {2, 1, 34, 29, 6, 7, 5, 0, 184.56092643341074, 0.35000049875,
     7.4480135539999921, 0, 5.3262569966666664, 819.42857142857144},
    {2, 2, 27, 25, 3, 5, 2, 0, 138.65508140637183, 0.25000035625,
     0.25000464296873659, 0, 1.1152536749027777, 955.79999999999995},
};

void expect_golden_near(double actual, double golden) {
  EXPECT_NEAR(actual, golden, 1e-9 * std::max(1.0, std::abs(golden)));
}

TEST(FixedPolicyGolden, BitIdenticalToPreRedesignRunsForAllModes) {
  for (const GoldenRun& g : kGoldenRuns) {
    SCOPED_TRACE("scheme=" + std::to_string(g.scheme) +
                 " mode=" + std::to_string(g.mode));
    const LocalProblem p = make_local_problem("cg", 8, 1e-8);
    auto solver = p.make_solver();
    ResilienceConfig cfg;
    cfg.scheme = static_cast<CkptScheme>(g.scheme);
    cfg.ckpt_mode = static_cast<CkptMode>(g.mode);
    cfg.policy.interval_seconds = 20.0;
    cfg.failure.mtti_seconds = 60.0;
    cfg.iteration_seconds = 5.0;
    cfg.failure.seed = 7;
    cfg.dynamic_scale = 1.0;
    cfg.cluster.ranks = 64;
    cfg.cluster.pfs_per_rank_overhead = 0.001;
    cfg.static_bytes = 1e6;
    cfg.tiered.l2_promote_every = 1;
    cfg.tiered.l3_promote_every = 2;
    ResilientRunner runner(*solver, cfg);
    const ResilienceResult r = runner.run();

    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.executed_steps, g.executed_steps);
    EXPECT_EQ(r.convergence_iteration, g.convergence_iteration);
    EXPECT_EQ(r.failures, g.failures);
    EXPECT_EQ(r.checkpoints, g.checkpoints);
    EXPECT_EQ(r.recoveries, g.recoveries);
    EXPECT_EQ(r.aborted_drains, g.aborted_drains);
    expect_golden_near(r.virtual_seconds, g.virtual_seconds);
    expect_golden_near(r.ckpt_seconds_total, g.ckpt_seconds_total);
    expect_golden_near(r.ckpt_drain_seconds_total, g.ckpt_drain_seconds_total);
    expect_golden_near(r.backpressure_seconds_total,
                       g.backpressure_seconds_total);
    expect_golden_near(r.recovery_seconds_total, g.recovery_seconds_total);
    expect_golden_near(r.mean_ckpt_stored_bytes, g.mean_ckpt_stored_bytes);
    // Pacing observability: the fixed policy never adjusts.
    EXPECT_DOUBLE_EQ(r.policy_interval_final, 20.0);
    EXPECT_EQ(r.interval_adjustments, 0);
  }
}

// ----- runner integration with the model-driven policies --------------------

class RunnerPolicy : public ::testing::TestWithParam<const char*> {};

TEST_P(RunnerPolicy, ConvergesUnderFailuresInEveryMode) {
  for (const CkptMode mode :
       {CkptMode::kSync, CkptMode::kAsync, CkptMode::kTiered}) {
    SCOPED_TRACE(to_string(mode));
    const LocalProblem p = make_local_problem("cg", 8, 1e-8);
    auto solver = p.make_solver();
    ResilienceConfig cfg;
    cfg.scheme = CkptScheme::kLossy;
    cfg.ckpt_mode = mode;
    cfg.policy.name = GetParam();
    cfg.policy.interval_seconds = 20.0;
    cfg.failure.mtti_seconds = 60.0;
    cfg.iteration_seconds = 5.0;
    cfg.failure.seed = 7;
    cfg.cluster.ranks = 64;
    cfg.cluster.pfs_per_rank_overhead = 0.001;
    cfg.static_bytes = 1e6;
    ResilientRunner runner(*solver, cfg);
    const ResilienceResult r = runner.run();
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.failures, 0) << "test should exercise failures";
    EXPECT_GT(r.policy_interval_final, 0.0);
  }
}

TEST_P(RunnerPolicy, DeterministicForFixedSeed) {
  const LocalProblem p = make_local_problem("cg", 7, 1e-8);
  ResilienceConfig cfg;
  cfg.scheme = CkptScheme::kLossy;
  cfg.ckpt_mode = CkptMode::kTiered;
  cfg.policy.name = GetParam();
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;
  cfg.iteration_seconds = 5.0;
  cfg.failure.seed = 31;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;

  auto s1 = p.make_solver();
  const auto r1 = ResilientRunner(*s1, cfg).run();
  auto s2 = p.make_solver();
  const auto r2 = ResilientRunner(*s2, cfg).run();
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.executed_steps, r2.executed_steps);
  EXPECT_EQ(r1.checkpoints, r2.checkpoints);
  EXPECT_DOUBLE_EQ(r1.virtual_seconds, r2.virtual_seconds);
  EXPECT_DOUBLE_EQ(r1.policy_interval_final, r2.policy_interval_final);
  EXPECT_EQ(r1.interval_adjustments, r2.interval_adjustments);
}

INSTANTIATE_TEST_SUITE_P(Policies, RunnerPolicy,
                         ::testing::Values("fixed", "young", "adaptive"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(RunnerPolicyIntegration, AdaptiveReportsItsAdjustments) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg;
  cfg.scheme = CkptScheme::kLossy;
  cfg.policy.name = "adaptive";
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 120.0;
  cfg.iteration_seconds = 5.0;
  cfg.failure.seed = 7;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  ResilientRunner runner(*solver, cfg);
  const ResilienceResult r = runner.run();
  EXPECT_TRUE(r.converged);
  ASSERT_GT(r.checkpoints, 0);
  // The ratio-1 prediction is wrong for the lossy scheme, so the first
  // committed checkpoint must already trigger a re-derivation.
  EXPECT_GT(r.interval_adjustments, 0);
  EXPECT_GT(r.policy_interval_final, 0.0);
}

TEST(RunnerPolicyIntegration, YoungUsesFallbackWhenInjectionDisabled) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg;
  cfg.scheme = CkptScheme::kTraditional;
  cfg.policy.name = "young";
  cfg.policy.interval_seconds = 35.0;
  cfg.failure.inject = false;
  cfg.iteration_seconds = 5.0;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  ResilientRunner runner(*solver, cfg);
  const ResilienceResult r = runner.run();
  EXPECT_TRUE(r.converged);
  // λ = 0 ⇒ the model interval diverges; the policy paces at the
  // configured fixed interval instead.
  EXPECT_DOUBLE_EQ(r.policy_interval_final, 35.0);
}

}  // namespace
}  // namespace lck
