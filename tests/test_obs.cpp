/// Observability layer tests: registry semantics (concurrency, buckets,
/// label identity, snapshot determinism, pinned renderings, snapshots taken
/// while other threads record), the pass counter, trace recorder content,
/// and the two contracts the layer makes to the rest of the library — exact
/// agreement between the registry and the legacy ResilienceResult
/// accounting, and bit-stable simulation results whether observability is
/// on or off.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/pass_counter.hpp"
#include "obs/trace.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

// ----- MetricsRegistry ------------------------------------------------------

TEST(Metrics, CountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.add("a", 2.0);
  reg.add("a", 3.0);
  reg.add("a", 1.0, {{"k", "v"}});
  reg.set_gauge("g", 7.0);
  reg.set_gauge("g", 9.0);  // last writer wins

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("a"), 5.0);
  EXPECT_EQ(snap.counter("a{k=v}"), 1.0);
  EXPECT_EQ(snap.counter_total("a"), 6.0);
  EXPECT_EQ(snap.gauges.at("g"), 9.0);
  EXPECT_EQ(snap.counter("missing"), 0.0);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(Metrics, ConcurrentAddsFromEightThreads) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg] {
      for (int i = 0; i < kOps; ++i) {
        reg.add("c", 1.0);
        reg.observe("h", 1.0, {{"tier", "L2"}});
      }
    });
  for (auto& t : threads) t.join();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), static_cast<double>(kThreads * kOps));
  const auto* h = snap.histogram("h{tier=L2}");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(h->sum, static_cast<double>(kThreads * kOps));
}

TEST(Metrics, HistogramBucketBoundaries) {
  obs::MetricsRegistry reg;
  // Exact powers of two are their own upper bound; anything in (2^k, 2^k+1]
  // lands at 2^(k+1); non-positive values get the 0 bucket.
  reg.observe("h", 1.0);   // -> bucket 1
  reg.observe("h", 2.0);   // -> bucket 2
  reg.observe("h", 1.5);   // -> bucket 2
  reg.observe("h", 3.0);   // -> bucket 4
  reg.observe("h", 0.0);   // -> bucket 0
  reg.observe("h", -2.5);  // -> bucket 0
  reg.observe("h", 0.25);  // -> bucket 0.25

  const auto snap = reg.snapshot();
  const auto* h = snap.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 7u);
  EXPECT_EQ(h->min, -2.5);
  EXPECT_EQ(h->max, 3.0);
  const std::vector<std::pair<double, std::uint64_t>> want{
      {0.0, 2}, {0.25, 1}, {1.0, 1}, {2.0, 2}, {4.0, 1}};
  EXPECT_EQ(h->buckets, want);
}

TEST(Metrics, ValuesAboveTheLargestFiniteBoundCountOnlyUnderInf) {
  obs::MetricsRegistry reg;
  reg.observe("h", 1e308);  // above 2^1023: the next bound would be inf
  reg.observe("h", std::numeric_limits<double>::infinity());
  reg.observe("h", 0x1p1023);  // its own, finite, bound
  reg.observe("h", 3.0);
  const auto snap = reg.snapshot();
  const auto* h = snap.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  const std::vector<std::pair<double, std::uint64_t>> want{{4.0, 1},
                                                           {0x1p1023, 1}};
  EXPECT_EQ(h->buckets, want);
  for (const auto& [upper, n] : h->buckets) EXPECT_TRUE(std::isfinite(upper));
  EXPECT_EQ(h->quantile(1.0), std::numeric_limits<double>::infinity());

  const std::string prom = snap.to_prometheus();
  std::size_t inf_lines = 0;
  for (std::size_t at = prom.find("le=\"+Inf\""); at != std::string::npos;
       at = prom.find("le=\"+Inf\"", at + 1))
    ++inf_lines;
  EXPECT_EQ(inf_lines, 1u) << prom;
  EXPECT_NE(prom.find("h_bucket{le=\"4\"} 1\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("h_bucket{le=\"+Inf\"} 4\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("h_count 4\n"), std::string::npos) << prom;
  EXPECT_EQ(snap.to_json().find("[null"), std::string::npos);

  // NaN stays in the bucket it always had, with bound 0.
  obs::MetricsRegistry nan_reg;
  nan_reg.observe("h", std::numeric_limits<double>::quiet_NaN());
  const auto nan_snap = nan_reg.snapshot();
  const auto* nan_h = nan_snap.histogram("h");
  ASSERT_NE(nan_h, nullptr);
  const std::vector<std::pair<double, std::uint64_t>> nan_want{{0.0, 1}};
  EXPECT_EQ(nan_h->buckets, nan_want);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  obs::MetricsRegistry reg;
  reg.add("x", 1.0, {{"tier", "L2"}, {"codec", "sz"}});
  reg.add("x", 1.0, {{"codec", "sz"}, {"tier", "L2"}});
  const auto snap = reg.snapshot();
  // Canonical suffix sorts by key, so both adds hit one series.
  EXPECT_EQ(snap.counter("x{codec=sz,tier=L2}"), 2.0);
  EXPECT_EQ(snap.counters.size(), 1u);

  const obs::LabelSet a{{"b", "2"}, {"a", "1"}};
  EXPECT_EQ(a.suffix(), "{a=1,b=2}");
}

TEST(Metrics, SnapshotSerializationIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.add("z.counter", 3.25, {{"k", "v"}});
  reg.observe("a.hist", 0.125);
  reg.observe("a.hist", 1024.0);
  reg.set_gauge("m.gauge", -1.5);

  const std::string j1 = reg.snapshot().to_json();
  const std::string j2 = reg.snapshot().to_json();
  EXPECT_EQ(j1, j2);
  const std::string p1 = reg.snapshot().to_prometheus();
  const std::string p2 = reg.snapshot().to_prometheus();
  EXPECT_EQ(p1, p2);

  // Sanity of the renderings, not a golden: JSON groups by kind, the
  // Prometheus text expands histograms into _bucket/_sum/_count.
  EXPECT_NE(j1.find("\"z.counter{k=v}\": 3.25"), std::string::npos);
  EXPECT_NE(p1.find("z_counter{k=\"v\"} 3.25"), std::string::npos);
  EXPECT_NE(p1.find("a_hist_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(p1.find("a_hist_count 2"), std::string::npos);
}

TEST(Metrics, QuantilesInterpolateWithinBuckets) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 100; ++i) reg.observe("h", 10.0);
  const auto snap = reg.snapshot();
  const auto* h = snap.histogram("h");
  ASSERT_NE(h, nullptr);
  // All mass in one bucket: quantiles clamp to [min, max] = [10, 10].
  EXPECT_EQ(h->quantile(0.5), 10.0);
  EXPECT_EQ(h->quantile(0.99), 10.0);
}

/// Renderings of a fixed registry, pinned byte for byte: counters with and
/// without labels, gauges at +inf, -inf and NaN (`null` in JSON, `+Inf`,
/// `-Inf` and `NaN` in the Prometheus text), and
/// histograms holding a non-positive, an exact power-of-two and an ordinary
/// observation. Only the Prometheus sample lines are pinned here; the
/// `# TYPE` lines have a test of their own below.
TEST(Metrics, RenderingsMatchGolden) {
  obs::MetricsRegistry reg;
  reg.add("ckpt.committed", 3.0);
  reg.add("ckpt.committed", 4.0);
  reg.add("ckpt.committed", 1.0, {{"kind", "sync"}});
  reg.add("ckpt.stored_bytes", 0.1, {{"tier", "L2-partner"}, {"codec", "sz"}});
  reg.set_gauge("run.final_residual_norm",
                std::numeric_limits<double>::infinity());
  reg.set_gauge("run.virtual_seconds",
                std::numeric_limits<double>::quiet_NaN());
  reg.set_gauge("run.final_log10_residual",
                -std::numeric_limits<double>::infinity());
  reg.set_gauge("run.converged", 1.0);
  reg.observe("recovery.seconds", -0.5);
  reg.observe("recovery.seconds", 4.0);
  reg.observe("recovery.seconds", 0.3);
  reg.observe("tier.write_bytes", 1000.0, {{"tier", "L1-local"}});
  const obs::MetricsSnapshot snap = reg.snapshot();

  EXPECT_EQ(snap.to_json(), R"({
  "counters": {
    "ckpt.committed": 7,
    "ckpt.committed{kind=sync}": 1,
    "ckpt.stored_bytes{codec=sz,tier=L2-partner}": 0.10000000000000001
  },
  "gauges": {
    "run.converged": 1,
    "run.final_log10_residual": null,
    "run.final_residual_norm": null,
    "run.virtual_seconds": null
  },
  "histograms": {
    "recovery.seconds": {"count": 3, "sum": 3.7999999999999998, "min": -0.5, "max": 4, "p50": 0.25, "p99": 3.8949999999999991, "buckets": [[0, 1], [0.5, 1], [4, 1]]},
    "tier.write_bytes{tier=L1-local}": {"count": 1, "sum": 1000, "min": 1000, "max": 1000, "p50": 1000, "p99": 1000, "buckets": [[1024, 1]]}
  }
}
)");

  std::string samples;
  std::istringstream prom(snap.to_prometheus());
  for (std::string line; std::getline(prom, line);)
    if (line.rfind('#', 0) != 0) samples += line + "\n";
  EXPECT_EQ(samples, R"(ckpt_committed 7
ckpt_committed{kind="sync"} 1
ckpt_stored_bytes{codec="sz",tier="L2-partner"} 0.10000000000000001
run_converged 1
run_final_log10_residual -Inf
run_final_residual_norm +Inf
run_virtual_seconds NaN
recovery_seconds_bucket{le="0"} 1
recovery_seconds_bucket{le="0.5"} 2
recovery_seconds_bucket{le="4"} 3
recovery_seconds_bucket{le="+Inf"} 3
recovery_seconds_sum 3.7999999999999998
recovery_seconds_count 3
tier_write_bytes_bucket{tier="L1-local",le="1024"} 1
tier_write_bytes_bucket{tier="L1-local",le="+Inf"} 1
tier_write_bytes_sum{tier="L1-local"} 1000
tier_write_bytes_count{tier="L1-local"} 1
)");
}

/// The text format allows one `# TYPE` line per metric family, ahead of all
/// of the family's samples, which form one group. "a.b_c" sorts between
/// "a.b" and "a.b{x=1}", so series order alone does not group a family.
TEST(Metrics, PrometheusGroupsEachFamilyUnderOneTypeLine) {
  obs::MetricsRegistry reg;
  reg.add("a.b", 1.0);
  reg.add("a.b", 2.0, {{"x", "1"}});
  reg.add("a.b", 3.0, {{"x", "2"}});
  reg.add("a.b_c", 4.0);
  reg.observe("h.lat", 1.0, {{"job", "a"}});
  reg.observe("h.lat", 2.0, {{"job", "b"}});
  const std::string text = reg.snapshot().to_prometheus();

  std::map<std::string, std::string> types;  // family -> type
  std::map<std::string, int> samples;        // family -> sample lines
  std::string family;
  std::string type;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream(line.substr(7)) >> family >> type;
      EXPECT_TRUE(types.emplace(family, type).second)
          << "second TYPE line for " << family << " in\n" << text;
      continue;
    }
    std::string name = line.substr(0, line.find_first_of("{ "));
    if (type == "histogram")
      for (const std::string suffix : {"_bucket", "_sum", "_count"})
        if (name.ends_with(suffix)) name.resize(name.size() - suffix.size());
    // Every sample belongs to the family of the TYPE line above it, and
    // each family has one TYPE line, so its samples form one group.
    EXPECT_EQ(name, family) << line << " in\n" << text;
    ++samples[name];
  }
  const std::map<std::string, std::string> want_types{
      {"a_b", "counter"}, {"a_b_c", "counter"}, {"h_lat", "histogram"}};
  EXPECT_EQ(types, want_types);
  // h_lat: one finite bucket, +Inf, _sum and _count per series.
  const std::map<std::string, int> want_samples{
      {"a_b", 3}, {"a_b_c", 1}, {"h_lat", 8}};
  EXPECT_EQ(samples, want_samples);
}

/// Snapshots taken while four threads record see a counter that never
/// decreases and never passes what was added; the one taken after the
/// writers joined sees every add.
TEST(Metrics, SnapshotsWhileRecordingNeverGoBackwards) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kOps = 50000;
  constexpr double kTotal = kThreads * kOps;
  std::atomic<bool> writers_done{false};
  std::vector<double> seen;
  std::thread snapshotter([&] {
    bool last = false;
    do {
      last = writers_done.load();
      seen.push_back(reg.snapshot().counter("c"));
    } while (!last);
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&reg] {
      for (int i = 0; i < kOps; ++i) reg.add("c", 1.0);
    });
  for (auto& t : writers) t.join();
  writers_done = true;
  snapshotter.join();

  ASSERT_FALSE(seen.empty());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_LE(*std::max_element(seen.begin(), seen.end()), kTotal);
  EXPECT_EQ(seen.back(), kTotal);
}

// ----- pass counter ---------------------------------------------------------

TEST(PassCounter, VectorOpsShimsStillWork) {
  obs::reset_vector_passes();
  const Vector x(1000, 1.0), y(1000, 2.0);
  (void)dot(x, y);
  EXPECT_GT(obs::vector_passes(), 0u) << "a kernel call counts its passes";
  obs::reset_vector_passes();
  EXPECT_EQ(obs::vector_passes(), 0u);
}

// ----- TraceRecorder --------------------------------------------------------

TEST(Trace, RecordsSpansInstantsAndCounters) {
  obs::TraceRecorder rec;
  rec.complete("solver", "iter", 0.0, 1.5,
               {obs::TraceArg::num("version", 3)});
  rec.instant("failures", "process", 2.0);
  rec.counter("residual", "residual", 2.5, 1e-6);

  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto tracks = rec.tracks();
  const std::vector<std::string> want{"solver", "failures", "residual"};
  EXPECT_EQ(tracks, want);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, obs::TraceEvent::Phase::kComplete);
  EXPECT_EQ(events[0].dur_virtual, 1.5);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "version");
  EXPECT_TRUE(events[0].args[0].is_number);
  EXPECT_GE(events[0].wall_ms, 0.0);

  std::string json;
  rec.append_chrome_json(json, /*pid=*/7, "test");
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"iter\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(json.find("wall_ms"), std::string::npos);
}

TEST(Trace, DropsEventsPastTheCap) {
  obs::TraceRecorder rec(/*max_events=*/4);
  for (int i = 0; i < 10; ++i)
    rec.instant("t", "e", static_cast<double>(i));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(Obs, ConfigValidation) {
  obs::ObservabilityConfig cfg;
  EXPECT_FALSE(cfg.any());
  cfg.trace = true;
  EXPECT_TRUE(cfg.any());
}

// ----- runner integration ---------------------------------------------------

ResilienceConfig runner_config(CkptMode mode, bool obs_on, int delta = 0) {
  ResilienceConfig cfg;
  cfg.scheme = CkptScheme::kLossy;
  cfg.ckpt_mode = mode;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;
  cfg.iteration_seconds = 5.0;
  cfg.failure.seed = 7;
  cfg.dynamic_scale = 1.0;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  cfg.delta.max_delta_chain = delta;
  cfg.obs.metrics = obs_on;
  cfg.obs.trace = obs_on;
  return cfg;
}

double hist_sum(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto* h = snap.histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

std::uint64_t hist_count(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const auto* h = snap.histogram(name);
  return h != nullptr ? h->count : 0;
}

class ObsMode : public ::testing::TestWithParam<CkptMode> {};

/// The registry accumulates the *same doubles in the same order* as the
/// legacy ResilienceResult fields, so the sums must match exactly — not
/// approximately.
TEST_P(ObsMode, RegistryAgreesExactlyWithLegacyResult) {
  const CkptMode mode = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  // A short delta chain in the staged modes also exercises the delta/chunk
  // counters' parity.
  const int delta = mode == CkptMode::kSync ? 0 : 2;
  ResilientRunner runner(*solver, runner_config(mode, true, delta));
  const ResilienceResult res = runner.run();
  ASSERT_GT(res.failures, 0) << "test should exercise failures";
  ASSERT_GT(res.checkpoints, 0);

  ASSERT_NE(runner.metrics(), nullptr);
  const obs::MetricsSnapshot snap = runner.metrics()->snapshot();

  EXPECT_EQ(snap.counter_total("ckpt.committed"),
            static_cast<double>(res.checkpoints));
  EXPECT_EQ(hist_sum(snap, "ckpt.blocking_seconds"), res.ckpt_seconds_total);
  EXPECT_EQ(hist_sum(snap, "ckpt.drain_overlap_seconds"),
            res.ckpt_drain_seconds_total);
  EXPECT_EQ(hist_sum(snap, "ckpt.blocking_seconds{kind=backpressure}"),
            res.backpressure_seconds_total);
  EXPECT_EQ(snap.counter("ckpt.aborted_drains"),
            static_cast<double>(res.aborted_drains));
  EXPECT_EQ(hist_sum(snap, "recovery.seconds"), res.recovery_seconds_total);
  EXPECT_EQ(hist_count(snap, "recovery.seconds"),
            static_cast<std::uint64_t>(res.recoveries));
  EXPECT_EQ(snap.counter_total("failures"),
            static_cast<double>(res.failures));
  for (const FailureSeverity sev : kAllSeverities)
    EXPECT_EQ(
        snap.counter("failures{severity=" + std::string(to_string(sev)) +
                     "}"),
        static_cast<double>(res.failures_by_severity[severity_index(sev)]));
  EXPECT_EQ(snap.counter_total("tier.promotions_completed"),
            static_cast<double>(res.promotions_completed));
  EXPECT_EQ(hist_sum(snap, "tier.promotion_seconds"),
            res.promotion_seconds_total);
  EXPECT_EQ(snap.counter("recovery.by_tier{tier=L1}") +
                snap.counter("recovery.by_tier{tier=L2}") +
                snap.counter("recovery.by_tier{tier=L3}"),
            static_cast<double>(res.recoveries_by_tier[0] +
                                res.recoveries_by_tier[1] +
                                res.recoveries_by_tier[2]));
  EXPECT_EQ(snap.counter("ckpt.full_checkpoints"),
            static_cast<double>(res.full_checkpoints));
  EXPECT_EQ(snap.counter("ckpt.chunks_deduped"),
            static_cast<double>(res.chunks_deduped));
  EXPECT_EQ(snap.counter("ckpt.delta_stored_bytes"), res.delta_bytes_total);

  EXPECT_EQ(snap.gauges.at("run.virtual_seconds"), res.virtual_seconds);
  EXPECT_EQ(snap.gauges.at("run.converged"), res.converged ? 1.0 : 0.0);
  EXPECT_EQ(snap.gauges.at("run.final_residual_norm"),
            res.final_residual_norm);
  EXPECT_EQ(snap.gauges.at("run.policy_interval_final"),
            res.policy_interval_final);

  // The solver's vector passes were sampled into the registry per step.
  EXPECT_GT(snap.counter("solver.vector_passes"), 0.0);
}

/// Observability observes; it must never branch the simulation. The same
/// seed with obs on and off produces bitwise-identical results.
TEST_P(ObsMode, RunIsBitStableWithObservabilityOn) {
  const CkptMode mode = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);

  auto s_off = p.make_solver();
  ResilientRunner r_off(*s_off, runner_config(mode, false));
  const ResilienceResult off = r_off.run();

  auto s_on = p.make_solver();
  ResilientRunner r_on(*s_on, runner_config(mode, true));
  const ResilienceResult on = r_on.run();

  EXPECT_EQ(off.converged, on.converged);
  EXPECT_EQ(off.executed_steps, on.executed_steps);
  EXPECT_EQ(off.convergence_iteration, on.convergence_iteration);
  EXPECT_EQ(off.final_residual_norm, on.final_residual_norm);
  EXPECT_EQ(off.virtual_seconds, on.virtual_seconds);
  EXPECT_EQ(off.failures, on.failures);
  EXPECT_EQ(off.checkpoints, on.checkpoints);
  EXPECT_EQ(off.recoveries, on.recoveries);
  EXPECT_EQ(off.aborted_drains, on.aborted_drains);
  EXPECT_EQ(off.ckpt_seconds_total, on.ckpt_seconds_total);
  EXPECT_EQ(off.ckpt_drain_seconds_total, on.ckpt_drain_seconds_total);
  EXPECT_EQ(off.backpressure_seconds_total, on.backpressure_seconds_total);
  EXPECT_EQ(off.recovery_seconds_total, on.recovery_seconds_total);
  EXPECT_EQ(off.mean_ckpt_stored_bytes, on.mean_ckpt_stored_bytes);
  EXPECT_EQ(off.compression_ratio, on.compression_ratio);
  EXPECT_EQ(off.promotions_completed, on.promotions_completed);
  EXPECT_EQ(off.promotion_seconds_total, on.promotion_seconds_total);

  // The solutions themselves are bitwise identical.
  const Vector& x_off = s_off->solution();
  const Vector& x_on = s_on->solution();
  ASSERT_EQ(x_off.size(), x_on.size());
  for (std::size_t i = 0; i < x_off.size(); ++i)
    ASSERT_EQ(x_off[i], x_on[i]) << "solution diverged at " << i;
}

TEST_P(ObsMode, TraceCoversTheCheckpointLifecycle) {
  const CkptMode mode = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilientRunner runner(*solver, runner_config(mode, true));
  (void)runner.run();

  ASSERT_NE(runner.trace(), nullptr);
  auto rec = runner.take_trace();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(runner.trace(), nullptr);  // ownership transferred

  const auto tracks = rec->tracks();
  const auto has = [&tracks](const char* name) {
    for (const auto& t : tracks)
      if (t == name) return true;
    return false;
  };
  EXPECT_TRUE(has("solver"));
  EXPECT_TRUE(has("residual"));
  EXPECT_TRUE(has("failures"));
  EXPECT_TRUE(has("recovery"));
  if (mode == CkptMode::kSync) {
    EXPECT_TRUE(has("ckpt"));
  } else {
    EXPECT_TRUE(has("drain"));
  }
  if (mode == CkptMode::kTiered) {
    EXPECT_TRUE(has("promote-L2"));
  }
  EXPECT_GT(rec->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ObsMode,
                         ::testing::Values(CkptMode::kSync, CkptMode::kAsync,
                                           CkptMode::kTiered),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

/// Checkpoint streams are byte-identical with and without a sink attached:
/// the manager-level instrumentation only reads sizes and timers.
TEST(Obs, CheckpointStreamBytesUnchangedBySink) {
  Vector data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::sin(0.01 * static_cast<double>(i));

  const auto run = [&](bool with_sink) {
    auto store = std::make_unique<MemoryStore>();
    const MemoryStore* raw = store.get();
    NoneCompressor none;
    CheckpointManager mgr(std::move(store), &none);
    obs::MetricsRegistry reg;
    if (with_sink) mgr.set_observability({&reg, nullptr});
    Vector v = data;
    mgr.protect(0, "x", &v);
    mgr.checkpoint();
    return raw->read(raw->latest_version());
  };

  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace lck
