/// Multi-level checkpoint hierarchy tests: PartnerStore erasure-style
/// reconstruction, TieredCheckpointStore severity-aware recovery matrix
/// (process -> L1, node -> L2, partition/system -> L3), background promotion
/// ordering/filtering/back-pressure, bit-identical recovery vs a
/// single-level store, the tiered cost model, and the ResilientRunner
/// kTiered mode (per-severity counters, per-tier recoveries, bit-stable
/// reruns, blocking cost <= async single-level).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/tier/partner_store.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "sim/perf_model.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

/// Generous bound on every blocking wait in this suite: on a loaded 1-core
/// container threads may be scheduled late, but a wait that exceeds this is
/// a real hang and must fail the test instead of wedging CTest.
constexpr auto kDeadline = std::chrono::seconds(60);

std::vector<byte_t> pattern_blob(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<byte_t> data(n);
  for (auto& b : data) b = static_cast<byte_t>(rng.uniform_index(256));
  return data;
}

// ----- PartnerStore ---------------------------------------------------------

TEST(PartnerStore, RoundTripsOddAndEvenSizes) {
  PartnerStore store;
  for (const std::size_t n : {0u, 1u, 2u, 7u, 128u, 1001u}) {
    const auto blob = pattern_blob(n, 11 + n);
    store.write(static_cast<int>(n), blob);
    EXPECT_EQ(store.read(static_cast<int>(n)), blob) << "size " << n;
  }
}

TEST(PartnerStore, ReconstructsAfterAnySingleNodeLoss) {
  const auto blob = pattern_blob(999, 3);  // odd: exercises the padding byte
  for (const auto lost :
       {PartnerStore::kLocalHalf, PartnerStore::kPartnerHalf,
        PartnerStore::kParity}) {
    PartnerStore store;
    store.write(0, blob);
    store.fail_node(lost);
    EXPECT_FALSE(store.piece_present(0, lost));
    EXPECT_TRUE(store.exists(0));
    EXPECT_EQ(store.read(0), blob) << "lost piece " << lost;
  }
}

TEST(PartnerStore, TwoPieceLossIsUnrecoverable) {
  PartnerStore store;
  store.write(5, pattern_blob(64, 9));
  store.fail_node(PartnerStore::kLocalHalf);
  store.fail_node(PartnerStore::kParity);
  EXPECT_FALSE(store.exists(5));
  EXPECT_EQ(store.latest_version(), -1);
  EXPECT_THROW((void)store.read(5), corrupt_stream_error);
}

TEST(PartnerStore, RewriteAfterNodeLossRestoresRedundancy) {
  PartnerStore store;
  store.write(0, pattern_blob(64, 1));
  store.fail_node(PartnerStore::kLocalHalf);
  const auto blob = pattern_blob(64, 2);
  store.write(0, blob);  // replacement node rejoins: full redundancy again
  store.fail_node(PartnerStore::kPartnerHalf);
  EXPECT_EQ(store.read(0), blob);
}

// ----- TieredCheckpointStore: severity recovery matrix ----------------------

TEST(TieredStore, SeverityRecoveryMatrix) {
  struct Case {
    FailureSeverity severity;
    int expected_level;
  };
  const Case cases[] = {{FailureSeverity::kProcess, 0},
                        {FailureSeverity::kNode, 1},
                        {FailureSeverity::kPartition, 2},
                        {FailureSeverity::kSystem, 2}};
  const auto blob = pattern_blob(4096, 77);
  for (const auto& c : cases) {
    auto store = make_tiered_store(/*retention=*/2, 1, 1);
    store->write(0, blob);
    store->drain_promotions();  // background worker placed L2 + L3 copies
    store->invalidate(c.severity);
    ASSERT_EQ(store->latest_version(), 0) << to_string(c.severity);
    EXPECT_EQ(store->level_of(0), c.expected_level) << to_string(c.severity);
    // Recovery is bit-identical from whichever tier serves it — including
    // the node case, where L2 reconstructs from partner half + parity.
    EXPECT_EQ(store->read(0), blob) << to_string(c.severity);
  }
}

TEST(TieredStore, NodeFailureReconstructsFromPartnerPieces) {
  auto store = make_tiered_store(2, 1, /*l3_promote_every=*/1000);
  const auto blob = pattern_blob(501, 13);
  store->write(0, blob);
  store->drain_promotions();
  store->invalidate(FailureSeverity::kNode);
  // L1 destroyed, L3 never received the version (filtered), so the read
  // must come from L2 with its local pieces genuinely gone.
  EXPECT_EQ(store->level_of(0), 1);
  EXPECT_EQ(store->read(0), blob);
}

TEST(TieredStore, SystemFailureBeforeAnyPromotionLosesEverything) {
  auto store = make_tiered_store(2, 1, 1, /*auto_promote=*/false);
  store->write(0, pattern_blob(64, 5));
  store->invalidate(FailureSeverity::kSystem);  // L1+L2 wiped, L3 empty
  EXPECT_EQ(store->latest_version(), -1);
  EXPECT_FALSE(store->exists(0));
}

// ----- promotion: ordering, filtering, retention ----------------------------

TEST(TieredStore, PromotionFiltersAndPerTierRetention) {
  // L2 takes every version (retention 2), L3 every 2nd (retention 2).
  auto store = make_tiered_store(/*retention=*/2, /*l2_promote_every=*/1,
                                 /*l3_promote_every=*/2);
  for (int v = 0; v < 6; ++v) {
    store->write(v, pattern_blob(128, static_cast<std::uint64_t>(v)));
    store->drain_promotions();
  }
  // L1/L2 keep the 2 newest; L3 keeps the 2 newest even versions.
  for (int v = 0; v < 6; ++v) {
    EXPECT_EQ(store->exists_at(0, v), v >= 4) << "L1 v" << v;
    EXPECT_EQ(store->exists_at(1, v), v >= 4) << "L2 v" << v;
    EXPECT_EQ(store->exists_at(2, v), v == 2 || v == 4) << "L3 v" << v;
  }
  EXPECT_EQ(store->latest_version_at(2), 4);
  EXPECT_EQ(store->failed_promotions(), 0u);
}

TEST(TieredStore, ManualPromoteNowDeclinesWhenSourceGone) {
  auto store = make_tiered_store(2, 1, 1, /*auto_promote=*/false);
  store->write(0, pattern_blob(64, 1));
  EXPECT_TRUE(store->promote_now(0, 1));
  store->invalidate(FailureSeverity::kPartition);  // L1 + L2 destroyed
  EXPECT_FALSE(store->promote_now(0, 2)) << "no surviving source";
  EXPECT_EQ(store->latest_version(), -1);
}

TEST(TieredStore, PromoteNowBelongsToCallerDrivenStores) {
  // A self-promoting store's worker runs every promotion plan, so the owner
  // cannot start a second, unordered one.
  auto store = make_tiered_store(2, 1, 1);
  store->write(0, pattern_blob(64, 1));
  EXPECT_THROW((void)store->promote_now(0, 1), config_error);
  store->drain_promotions();
  EXPECT_TRUE(store->exists_at(2, 0));
}

TEST(TieredStore, PendingProtocolCommitsThroughL1AndPromotes) {
  auto store = make_tiered_store(2, 1, 1);
  const auto blob = pattern_blob(256, 21);
  store->write_pending(0, blob);
  EXPECT_TRUE(store->has_pending(0));
  EXPECT_EQ(store->latest_version(), -1);  // pending is invisible
  store->commit(0);
  store->drain_promotions();
  EXPECT_FALSE(store->has_pending(0));
  store->invalidate(FailureSeverity::kPartition);
  EXPECT_EQ(store->read(0), blob);  // survived via the L3 promotion
}

/// Store whose writes block until released — lets the test hold the
/// promotion worker open deterministically. All waits are deadline-bounded
/// so a regression fails loudly instead of hanging a 1-core container.
class GateStore final : public CheckpointStore {
 public:
  void write(int version, std::span<const byte_t> data) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      order_.push_back(version);
      cv_.notify_all();
      if (!cv_.wait_for(lock, kDeadline, [&] { return open_; }))
        throw corrupt_stream_error("gate store: deadline expired");
    }
    inner_.write(version, data);
  }
  [[nodiscard]] std::vector<byte_t> read(int version) const override {
    return inner_.read(version);
  }
  [[nodiscard]] bool exists(int version) const override {
    return inner_.exists(version);
  }
  void remove(int version) override { inner_.remove(version); }
  [[nodiscard]] int latest_version() const override {
    return inner_.latest_version();
  }
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kDeadline, [&] { return entered_ >= n; });
  }
  [[nodiscard]] std::vector<int> write_order() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  MemoryStore inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<int> order_;
  int entered_ = 0;
  bool open_ = false;
};

TEST(TieredStore, SaturatedPromotionQueueBackpressuresWrites) {
  std::vector<TieredCheckpointStore::Level> levels;
  levels.push_back({TierSpec{"L1", FailureSeverity::kProcess, 8, 1},
                    std::make_unique<MemoryStore>()});
  auto gate_owner = std::make_unique<GateStore>();
  GateStore* gate = gate_owner.get();
  levels.push_back({TierSpec{"L2", FailureSeverity::kNode, 8, 1},
                    std::move(gate_owner)});
  TieredCheckpointStore store(std::move(levels), /*auto_promote=*/true);
  store.set_max_inflight_promotions(1);

  store.write(0, pattern_blob(64, 1));     // promotion job enters the gate
  ASSERT_TRUE(gate->wait_entered(1));
  EXPECT_EQ(store.promotions_in_flight(), 1u);

  // With the single promotion slot occupied, the next write must block in
  // schedule_promotions (back-pressure) — but its L1 write itself lands
  // first, so the version is already locally durable while we wait.
  std::atomic<bool> second_done{false};
  std::thread t([&] {
    store.write(1, pattern_blob(64, 2));
    second_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_done.load()) << "write must back-pressure on the queue";
  EXPECT_TRUE(store.exists_at(0, 1)) << "L1 write precedes the queue wait";

  gate->open();
  t.join();
  EXPECT_TRUE(second_done.load());
  store.drain_promotions();
  EXPECT_TRUE(store.exists_at(1, 0));
  EXPECT_TRUE(store.exists_at(1, 1));
  // One worker, FIFO jobs: promotions land strictly in version order.
  EXPECT_EQ(gate->write_order(), (std::vector<int>{0, 1}));
  EXPECT_EQ(store.failed_promotions(), 0u);
}

TEST(TieredPromotionMetrics, BackgroundCopiesRecordPromotes) {
  // Every promotion counts, whoever executes it: the background worker's
  // copies record tier.promotes / tier.promote_bytes like promote_now's.
  obs::MetricsRegistry metrics;
  auto store = make_tiered_store(2, 1, 1);
  store->set_observability({&metrics, nullptr});
  std::size_t written = 0;
  for (int v = 0; v < 3; ++v) {
    const auto data =
        pattern_blob(200 + 100 * static_cast<std::size_t>(v),
                     static_cast<std::uint64_t>(v));
    store->write(v, data);
    written += data.size();
    // Drain per write: L1 keeps two versions, so a worker still behind
    // after the third write would find v0 pruned and skip its copy.
    store->drain_promotions();
  }
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("tier.promotes{tier=L2-partner}"), 3.0);
  EXPECT_EQ(snap.counter("tier.promotes{tier=L3-pfs}"), 3.0);
  EXPECT_EQ(snap.hist_sum_total("tier.promote_bytes"),
            static_cast<double>(2 * written));
}

TEST(TieredWriteMetrics, ManagerCheckpointsRecordTheirStreamSize) {
  // Sync and staged checkpoints both reach L1 through write_pending() and
  // commit(), and each commit records the stream's size once.
  for (const bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "sync");
    obs::MetricsRegistry metrics;
    NoneCompressor none;
    CheckpointManager mgr(make_tiered_store(2, 1, 1, /*auto_promote=*/false),
                          &none);
    mgr.set_observability({&metrics, nullptr});
    Vector x(5000, 1.5);
    mgr.protect(0, "x", &x);
    CheckpointRecord rec;
    if (staged) {
      const int version = mgr.stage().version;
      rec = mgr.wait_drain(version);
      mgr.commit_version(version);
    } else {
      rec = mgr.checkpoint();
    }
    const auto snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("tier.writes{tier=L1-local}"), 1.0);
    const auto* h = snap.histogram("tier.write_bytes{tier=L1-local}");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);
    EXPECT_EQ(h->sum, static_cast<double>(rec.stored_bytes));
  }
}

TEST(TieredStore, RefusesTierNamesTheMetricLabelsCannotCarry) {
  // A level's name is the value of the tier label on its tier.* series, and
  // neither rendering escapes a label value.
  for (const std::string bad :
       {"L1,x=\"y\"", "L{1", "L}1", "L=1", "L\"1", "L\\1", "L\n1"}) {
    std::vector<TieredCheckpointStore::Level> levels;
    levels.push_back({TierSpec{bad, FailureSeverity::kProcess},
                      std::make_unique<MemoryStore>()});
    EXPECT_THROW(TieredCheckpointStore(std::move(levels), false),
                 config_error)
        << bad;
  }
  // make_tiered_store's names, which the service and perfbench also give,
  // pass.
  EXPECT_NO_THROW((void)make_tiered_store(2, 1, 1, false));
}

TEST(RunnerStoreFactory, RejectsAStackThatPromotesOnItsOwn) {
  // The runner prices promotions on its virtual clock and executes them
  // when their window closes; a stack that also copies in real time would
  // make what a recovery sees depend on thread timing.
  const LocalProblem p = make_local_problem("cg", 6, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg;
  cfg.ckpt_mode = CkptMode::kTiered;
  cfg.store_factory = [] {
    return std::unique_ptr<CheckpointStore>(
        make_tiered_store(2, 1, 1, /*auto_promote=*/true));
  };
  EXPECT_THROW(ResilientRunner(*solver, cfg), config_error);
}

// ----- bit-identical recovery vs single-level -------------------------------

TEST(TieredManager, RecoveredStateBitIdenticalToSingleLevel) {
  Rng rng(42);
  Vector x(5000);
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);
  const Vector original = x;
  NoneCompressor none;

  auto single_store = std::make_unique<MemoryStore>();
  CheckpointManager single(std::move(single_store), &none);
  Vector xs = x;
  single.protect(0, "x", &xs);
  single.checkpoint();

  auto tiered_store = make_tiered_store(2, 1, 1);
  auto* tiered_raw = tiered_store.get();
  CheckpointManager tiered(std::move(tiered_store), &none);
  tiered.set_retention(1 << 20);  // per-tier retention rules inside
  tiered.protect(0, "x", &x);
  tiered.checkpoint();
  tiered_raw->drain_promotions();
  tiered_raw->invalidate(FailureSeverity::kNode);  // recovery via L2

  xs.assign(xs.size(), 0.0);
  x.assign(x.size(), 0.0);
  single.recover();
  tiered.recover();
  ASSERT_EQ(xs.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(x[i], xs[i]) << "element " << i;
  EXPECT_EQ(x, original);
}

// ----- tiered cost model ----------------------------------------------------

TEST(TieredModel, SeverityLambdasSplitAndIntervalsMatchFormula) {
  const double lambda = 1.0 / 3600.0;
  const auto lambdas = severity_tier_lambdas(lambda, {0.5, 0.3, 0.15, 0.05});
  EXPECT_NEAR(lambdas[0] + lambdas[1] + lambdas[2], lambda, 1e-15);
  EXPECT_NEAR(lambdas[2], 0.2 * lambda, 1e-15);

  const std::vector<double> costs{0.1, 2.0, 120.0};
  const std::vector<double> lv{lambdas[0], lambdas[1], lambdas[2]};
  const auto intervals = tiered_optimal_intervals(costs, lv);
  ASSERT_EQ(intervals.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(intervals[k], std::sqrt(2.0 * costs[k] / lv[k]), 1e-12);
  // Zero rate => never checkpoint that level.
  const std::vector<double> zero_mid{lv[0], 0.0, lv[2]};
  const auto inf = tiered_optimal_intervals(costs, zero_mid);
  EXPECT_TRUE(std::isinf(inf[1]));
}

TEST(TieredModel, TieredOverheadBeatsSingleLevelSyncAt2048Ranks) {
  // The headline claim at paper scale: hierarchy overhead < single-level
  // sync overhead, because most failures are cheap (L1/L2) and the PFS is
  // amortized over a long L3 interval.
  const ClusterModel cl;  // 2,048 ranks
  const double bytes = 78.8e9;
  const double lambda = 1.0 / 3600.0;
  const double t_sync = cl.write_seconds(bytes);
  const double sync_overhead = expected_overhead_ratio(t_sync, lambda);

  const auto lambdas = severity_tier_lambdas(lambda, kDefaultSeverityWeights);
  const std::vector<double> costs{cl.stage_seconds(bytes),
                                  cl.partner_write_seconds(bytes),
                                  cl.write_seconds(bytes)};
  const std::vector<double> lv{lambdas[0], lambdas[1], lambdas[2]};
  const auto intervals = tiered_optimal_intervals(costs, lv);
  const std::vector<double> recovery{
      cl.local_read_seconds(bytes),
      cl.partner_read_seconds(bytes) + cl.read_seconds(0.25 * bytes),
      cl.read_seconds(1.25 * bytes)};
  const double tiered_overhead =
      expected_overhead_ratio_tiered(costs, intervals, lv, recovery);
  EXPECT_LT(tiered_overhead, sync_overhead);
  EXPECT_GT(tiered_overhead, 0.0);
}

TEST(TieredModel, TieredBlockingAtMostAsyncSingleLevelAt2048Ranks) {
  // Acceptance check (model level, matches bench/fig_tiered_ckpt): per
  // checkpoint, the tiered L1 drain is far shorter than the PFS drain, so
  // with the same interval the tiered blocking cost never exceeds the
  // async single-level one.
  const ClusterModel cl;
  const double bytes = 78.8e9;
  const double interval = young_interval_seconds(cl.write_seconds(bytes),
                                                 3600.0);
  const double t_stage = cl.stage_seconds(bytes);
  const double async_blk =
      async_blocking_seconds(t_stage, cl.write_seconds(bytes), interval);
  const double tiered_blk =
      async_blocking_seconds(t_stage, cl.local_write_seconds(bytes), interval);
  EXPECT_LE(tiered_blk, async_blk + 1e-12);
}

// ----- runner: kTiered mode -------------------------------------------------

ResilienceConfig tiered_config(CkptScheme scheme) {
  ResilienceConfig cfg;
  cfg.scheme = scheme;
  cfg.ckpt_mode = CkptMode::kTiered;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;  // aggressive failures for coverage
  cfg.iteration_seconds = 5.0;
  cfg.failure.seed = 7;
  cfg.dynamic_scale = 1.0;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  cfg.tiered.l2_promote_every = 1;
  cfg.tiered.l3_promote_every = 2;
  return cfg;
}

double true_rel_residual(const CsrMatrix& a, const Vector& b,
                         const Vector& x) {
  Vector r(b.size());
  a.residual(b, x, r);
  return norm2(r) / norm2(b);
}

class TieredRunnerScheme : public ::testing::TestWithParam<CkptScheme> {};

TEST_P(TieredRunnerScheme, ConvergesUnderMixedSeverityFailures) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = tiered_config(GetParam());
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged) << to_string(GetParam());
  EXPECT_GT(res.failures, 0) << "test should exercise failures";
  int by_sev = 0;
  for (const int n : res.failures_by_severity) by_sev += n;
  EXPECT_EQ(by_sev, res.failures) << "severity counts must partition failures";
  int by_tier = 0;
  for (const int n : res.recoveries_by_tier) by_tier += n;
  EXPECT_LE(by_tier, res.recoveries);  // global restarts have no tier
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Schemes, TieredRunnerScheme,
                         ::testing::Values(CkptScheme::kTraditional,
                                           CkptScheme::kLossless,
                                           CkptScheme::kLossy),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TieredRunner, ProcessOnlyFailuresRecoverFromL1) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = tiered_config(CkptScheme::kLossy);
  cfg.failure.severity_weights = {1.0, 0.0, 0.0, 0.0};
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.failures, 0);
  EXPECT_EQ(res.failures_by_severity[0], res.failures);
  EXPECT_EQ(res.recoveries_by_tier[1], 0);
  EXPECT_EQ(res.recoveries_by_tier[2], 0);
  EXPECT_GT(res.recoveries_by_tier[0], 0);
}

TEST(TieredRunner, SystemFailuresRecoverOnlyFromPfsTier) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = tiered_config(CkptScheme::kTraditional);
  cfg.failure.severity_weights = {0.0, 0.0, 0.0, 1.0};
  cfg.tiered.l3_promote_every = 1;  // give L3 every version
  cfg.failure.mtti_seconds = 120.0;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.failures, 0);
  EXPECT_EQ(res.failures_by_severity[3], res.failures);
  EXPECT_EQ(res.recoveries_by_tier[0], 0);
  EXPECT_EQ(res.recoveries_by_tier[1], 0);
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7);
}

TEST(TieredRunner, BlockingCostAtMostAsyncSingleLevel) {
  // Same failure-free run in async single-level and tiered mode: the
  // blocking portion may not grow — the L1 drain is shorter than the PFS
  // drain, so tiered back-pressure can only be rarer.
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  ResilienceConfig base = tiered_config(CkptScheme::kTraditional);
  base.failure.inject = false;
  base.cluster.pfs_write_bw = 1e5;  // slow PFS: async mode back-pressures

  ResilienceConfig async_cfg = base;
  async_cfg.ckpt_mode = CkptMode::kAsync;
  auto s1 = p.make_solver();
  const auto async_res = ResilientRunner(*s1, async_cfg).run();

  auto s2 = p.make_solver();
  const auto tiered_res = ResilientRunner(*s2, base).run();

  ASSERT_GT(async_res.checkpoints, 0);
  ASSERT_GT(tiered_res.checkpoints, 0);
  EXPECT_LE(tiered_res.ckpt_seconds_total, async_res.ckpt_seconds_total);
  EXPECT_LT(tiered_res.backpressure_seconds_total,
            async_res.backpressure_seconds_total + 1e-12);
  EXPECT_GT(tiered_res.promotions_completed, 0);
  EXPECT_GT(tiered_res.promotion_seconds_total, 0.0);
}

TEST(TieredRunner, BitStableAcrossRerunsForFixedSeed) {
  const LocalProblem p = make_local_problem("cg", 7, 1e-8);
  ResilienceConfig cfg = tiered_config(CkptScheme::kLossy);
  cfg.failure.seed = 31;

  auto s1 = p.make_solver();
  const auto r1 = ResilientRunner(*s1, cfg).run();
  auto s2 = p.make_solver();
  const auto r2 = ResilientRunner(*s2, cfg).run();

  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.failures_by_severity, r2.failures_by_severity);
  EXPECT_EQ(r1.recoveries_by_tier, r2.recoveries_by_tier);
  EXPECT_EQ(r1.executed_steps, r2.executed_steps);
  EXPECT_EQ(r1.checkpoints, r2.checkpoints);
  EXPECT_EQ(r1.promotions_completed, r2.promotions_completed);
  EXPECT_DOUBLE_EQ(r1.virtual_seconds, r2.virtual_seconds);
  EXPECT_DOUBLE_EQ(r1.ckpt_seconds_total, r2.ckpt_seconds_total);
  EXPECT_DOUBLE_EQ(r1.promotion_seconds_total, r2.promotion_seconds_total);
}

TEST(TieredRunner, VirtualClockDecomposesExactly) {
  // Failure-free (a failure jumps the clock mid-iteration, so the lost
  // partial work is deliberately in no bucket — same as the async test).
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = tiered_config(CkptScheme::kLossy);
  cfg.failure.inject = false;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.virtual_seconds,
              static_cast<double>(res.executed_steps) * cfg.iteration_seconds +
                  res.ckpt_seconds_total + res.recovery_seconds_total,
              1e-9);
}

}  // namespace
}  // namespace lck
