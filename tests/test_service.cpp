/// Multi-tenant checkpoint service tests: namespace isolation, jobs past
/// the former open-job cap on one thread, cross-job dedup accounting,
/// bit-stable reruns through the service at the runner's promotion
/// cadence, a concurrent-writer stress over the shared DedupChunkStore (the
/// TSan target), and the thread topology: which owners start a background
/// thread, and when.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/chunk/dedup_store.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "parallel/parallel_for.hpp"
#include "svc/checkpoint_service.hpp"

namespace lck {
namespace {

using svc::CheckpointService;
using svc::JobConfig;

std::vector<byte_t> blob(std::size_t n, byte_t fill) {
  return std::vector<byte_t>(n, fill);
}

// ----- service: namespaces --------------------------------------------------

TEST(Service, NamespaceIsolationAcrossPruneAndInvalidate) {
  CheckpointService service;
  auto job_a = service.open_job({.name = "a"});
  auto job_b = service.open_job({.name = "b"});
  auto store_a = job_a.store_factory()();  // caller-driven: promote_now
  auto store_b = job_b.store_factory()();
  auto* tier_a = dynamic_cast<TieredCheckpointStore*>(store_a.get());
  auto* tier_b = dynamic_cast<TieredCheckpointStore*>(store_b.get());
  ASSERT_NE(tier_a, nullptr);
  ASSERT_NE(tier_b, nullptr);

  const auto b_data = blob(4096, 0xBB);
  store_b->write(0, b_data);
  tier_b->promote_now(0, 2);

  // Job A churns far past its retention: its own old versions are pruned
  // from the shared tier as new ones land.
  for (int v = 0; v < 6; ++v) {
    store_a->write(v, blob(4096, static_cast<byte_t>(v)));
    tier_a->promote_now(v, 2);
  }
  const int stride = CheckpointService::kNamespaceStride;
  EXPECT_EQ(service.l3().versions_in(0, stride).size(), 2u);  // A's retention
  EXPECT_EQ(service.l3().versions_in(stride, 2 * stride).size(), 1u);

  // A node failure destroys A's L1; the shared PFS tier survives (its spec
  // outlives kNode) and A recovers its retained versions from it.
  tier_a->invalidate(FailureSeverity::kNode);
  EXPECT_EQ(service.l3().versions_in(0, stride).size(), 2u);
  EXPECT_EQ(store_a->latest_version(), 5);
  EXPECT_EQ(store_a->read(5), blob(4096, static_cast<byte_t>(5)));

  // Explicitly draining A's namespace removes only A's shared-tier keys...
  store_a->remove(4);
  store_a->remove(5);
  EXPECT_TRUE(service.l3().versions_in(0, stride).empty());
  // ...and B's version is untouched, byte-exact.
  EXPECT_TRUE(store_b->exists(0));
  EXPECT_EQ(store_b->read(0), b_data);
  EXPECT_EQ(service.l3().versions_in(stride, 2 * stride).size(), 1u);

  store_a.reset();
  store_b.reset();
}

TEST(Service, ReopenedNamespaceSeesSurvivingVersions) {
  CheckpointService service;
  auto job = service.open_job();
  const auto data = blob(2048, 0x5A);
  {
    auto store = job.store_factory()();
    auto* tier = dynamic_cast<TieredCheckpointStore*>(store.get());
    store->write(3, data);
    tier->promote_now(3, 2);
  }  // job's stack dies; the shared L3 retains its namespace
  auto store = job.store_factory()();
  EXPECT_EQ(store->latest_version(), 3);
  EXPECT_EQ(store->read(3), data);
}

TEST(Service, OneThreadOpensMoreJobsThanTheOldCap) {
  // open_job() never waits for a close: one thread holds 100 jobs open at
  // once (a 64-job cap once blocked the 65th open forever).
  constexpr int kJobs = 100;
  CheckpointService service;
  // Handles first, so the stacks (declared after) die before them on any
  // early return.
  std::vector<svc::JobHandle> jobs;
  std::vector<std::unique_ptr<CheckpointStore>> stores;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(service.open_job());
    stores.push_back(jobs.back().store_factory()());
    auto* tier = dynamic_cast<TieredCheckpointStore*>(stores.back().get());
    ASSERT_NE(tier, nullptr);
    tier->write(0, blob(512, static_cast<byte_t>(j)));
    ASSERT_TRUE(tier->promote_now(0, 2));
  }
  EXPECT_EQ(service.jobs_active(), kJobs);

  // Every job wrote version 0; with L1/L2 gone, each stack reads its own
  // blob from its own namespace of the shared L3.
  for (int j = 0; j < kJobs; ++j) {
    auto* tier = dynamic_cast<TieredCheckpointStore*>(
        stores[static_cast<std::size_t>(j)].get());
    tier->invalidate(FailureSeverity::kPartition);
    ASSERT_EQ(tier->level_of(0), 2) << "job " << j;
    EXPECT_EQ(tier->read(0), blob(512, static_cast<byte_t>(j))) << "job " << j;
  }
  EXPECT_EQ(service.jobs_active(), kJobs);

  stores.clear();
  jobs.clear();
  EXPECT_EQ(service.jobs_active(), 0);
  EXPECT_EQ(service.jobs_opened(), kJobs);
}

TEST(Service, RefusesJobNamesTheMetricLabelsCannotCarry) {
  // A job's name is the value of the job label on its svc.* series, and
  // neither rendering escapes a label value.
  CheckpointService service;
  for (const std::string bad :
       {"x,y=\"z\"", "a{b", "a}b", "a=b", "a\"b", "a\\b", "a\tb",
        "a\x1f" "b"})
    EXPECT_THROW((void)service.open_job({.name = bad}), config_error) << bad;
  EXPECT_EQ(service.jobs_opened(), 0);
  // The names the examples and fig_fleet give pass.
  for (const std::string ok : {"job3", "poisson-cg-lossy-7", "kkt"})
    EXPECT_NO_THROW((void)service.open_job({.name = ok})) << ok;
}

// ----- service: cross-job dedup ---------------------------------------------

TEST(Service, CrossJobDedupHitsAreAttributedToTheWritingJob) {
  // Two jobs checkpoint the *same* protected state in delta mode; the
  // second job's chunks are all already resident, so its writes are pure
  // dedup hits — attributed to it, not to the first writer.
  Rng rng(7);
  Vector x(8192);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  NoneCompressor none;

  CheckpointService service;
  auto job_a = service.open_job({.name = "first"});
  auto job_b = service.open_job({.name = "second"});

  const auto run_job = [&](svc::JobHandle& job) {
    auto store = job.store_factory()();
    auto* tier = dynamic_cast<TieredCheckpointStore*>(store.get());
    Vector mine = x;
    CheckpointManager mgr(std::move(store), &none);
    mgr.set_retention(1 << 20);  // tier retention governs
    mgr.set_delta(4, 256);
    mgr.protect(0, "x", &mine);
    tier->promote_now(mgr.checkpoint().version, 2);
  };
  run_job(job_a);
  run_job(job_b);

  const auto sa = job_a.stats();
  const auto sb = job_b.stats();
  EXPECT_EQ(sa.dedup_hits, 0u) << "first writer stores every chunk";
  EXPECT_GT(sb.dedup_hits, 0u) << "second job's chunks are all resident";
  EXPECT_GT(sb.dedup_bytes_saved, 0u);
  EXPECT_EQ(sa.l3_writes, 1u);
  EXPECT_EQ(sb.l3_writes, 1u);
  // Aggregate: two logical copies, ~one physical.
  EXPECT_LT(service.l3().physical_bytes(),
            service.l3().logical_bytes() * 3 / 5);

  // The scrape surface carries the per-job series and the global gauges.
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap.counter("svc.dedup_hits{job=second}"),
            static_cast<double>(sb.dedup_hits));
  EXPECT_EQ(snap.counter("svc.l3_writes{job=first}"), 1.0);
  EXPECT_GT(snap.gauges.at("svc.l3_physical_bytes"), 0.0);
  EXPECT_NE(snap.to_prometheus().find("svc_l3_writes"), std::string::npos);
}

// ----- service: bit-stable runs through the runner --------------------------

ResilienceConfig tiered_config() {
  ResilienceConfig cfg;
  cfg.scheme = CkptScheme::kLossy;
  cfg.ckpt_mode = CkptMode::kTiered;
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
  return cfg;
}

TEST(Service, RunnerRerunsAreBitStableAndMatchBuiltinTiered) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  CheckpointService service;
  // A job stack promotes what its runner schedules: the runner's
  // tiered.l3_promote_every (through its policy) sets which versions reach
  // the shared tier, so two cadences give different L3 write counts.
  std::vector<std::uint64_t> l3_writes;
  for (const int l3_every : {2, 1}) {
    SCOPED_TRACE("tiered.l3_promote_every = " + std::to_string(l3_every));
    ResilienceConfig base = tiered_config();
    base.tiered.l3_promote_every = l3_every;

    // Baseline: the runner's own built-in tiered stack.
    auto s0 = p.make_solver();
    const auto builtin = ResilientRunner(*s0, base).run();
    ASSERT_TRUE(builtin.converged);
    ASSERT_GT(builtin.failures, 0);

    const auto run_via_service = [&](svc::JobHandle& job) {
      auto solver = p.make_solver();
      ResilienceConfig cfg = base;
      cfg.store_factory = job.store_factory();
      return ResilientRunner(*solver, cfg).run();
    };
    // One fresh job per run (fleet semantics): re-attaching to a *used*
    // namespace would legitimately let the runner recover from the previous
    // run's surviving L3 versions — persistence, not a determinism bug.
    auto job1 = service.open_job();
    const auto r1 = run_via_service(job1);
    auto job2 = service.open_job();
    const auto r2 = run_via_service(job2);

    // Service-backed runs are bit-stable across namespaces and against the
    // built-in stack: the namespace view changes where bytes live, never
    // what the simulation observes — promotions and the tier each recovery
    // read from included.
    for (const auto* r : {&r1, &r2}) {
      EXPECT_EQ(r->converged, builtin.converged);
      EXPECT_EQ(r->executed_steps, builtin.executed_steps);
      EXPECT_EQ(r->failures, builtin.failures);
      EXPECT_EQ(r->checkpoints, builtin.checkpoints);
      EXPECT_EQ(r->recoveries, builtin.recoveries);
      EXPECT_DOUBLE_EQ(r->virtual_seconds, builtin.virtual_seconds);
      EXPECT_DOUBLE_EQ(r->final_residual_norm, builtin.final_residual_norm);
      EXPECT_EQ(r->promotions_completed, builtin.promotions_completed);
      EXPECT_DOUBLE_EQ(r->promotion_seconds_total,
                       builtin.promotion_seconds_total);
      EXPECT_EQ(r->recoveries_by_tier, builtin.recoveries_by_tier);
    }
    EXPECT_EQ(job1.stats().l3_writes, job2.stats().l3_writes);
    l3_writes.push_back(job1.stats().l3_writes);
  }
  EXPECT_NE(l3_writes[0], l3_writes[1]);
}

// ----- shared dedup store under concurrent writers (TSan target) ------------

TEST(DedupStoreConcurrency, ParallelWritersKeepRefcountsAndBytesExact) {
  // Build one delta-format stream (chunk-splittable) so concurrent writes
  // exercise the refcount acquire/release and hit-counter paths, not just
  // the raw-blob fallback.
  Rng rng(21);
  Vector x(4096);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_delta(4, 128);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  const std::vector<byte_t> stream = mgr.store().read(mgr.latest_version());

  DedupChunkStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const int base = t * 1000;
      for (int i = 0; i < kPerThread; ++i) {
        store.write(base + i, stream);       // identical content: refs churn
        if (i % 3 == 0) store.write(base + i, stream);  // overwrite path
        if (i % 5 == 0 && i > 0) store.remove(base + i - 1);
        (void)store.read(base + i);          // concurrent reassembly
        (void)store.latest_version();
      }
    });
  for (auto& t : threads) t.join();

  // Every surviving version reassembles byte-exactly.
  int survivors = 0;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      if (store.exists(t * 1000 + i)) {
        ++survivors;
        ASSERT_EQ(store.read(t * 1000 + i), stream);
      }
  EXPECT_GT(survivors, 0);
  EXPECT_GT(store.dedup_hits(), 0u);
  // All versions share one chunk set: a fresh write of the same stream is
  // a pure dedup hit, and physical stays a fraction of logical.
  const DedupWriteStats probe = store.write_counted(999999, stream);
  EXPECT_GT(probe.chunks, 0u);
  EXPECT_EQ(probe.hits, probe.chunks);
  EXPECT_LT(store.physical_bytes(), store.logical_bytes() / 4);
}

// ----- thread topology ------------------------------------------------------

/// Threads of this process. Reads /proc/self/task until two reads agree, so
/// a thread joined just before is not miscounted while the kernel reaps it.
int thread_count() {
  const auto read = [] {
    int n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  int last = read();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int now = read();
    if (now == last) break;
    last = now;
  }
  return last;
}

TEST(ThreadTopology, OnlyBackgroundWorkStartsAThreadAndOnlyOnePerOwner) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "/proc/self/task is absent";
  // No OpenMP team starts: a checkpoint compresses on the manager's own
  // helper lanes, and its codecs run no parallel loop.
  NoneCompressor none;
  Vector x(64, 1.0);
  {
    const int before = thread_count();
    CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    EXPECT_EQ(thread_count() - before, 0) << "synchronous checkpoints only";
    const StageTicket first = mgr.stage();
    EXPECT_EQ(thread_count() - before, 1) << "after the first stage()";
    mgr.commit_version(first.version);
    const StageTicket second = mgr.stage();
    EXPECT_EQ(thread_count() - before, 1) << "after a second stage()";
    mgr.commit_version(second.version);
  }
  // A drain compresses the chunks of all its vectors side by side on W
  // lanes, W being num_threads() on the drain thread: itself plus a helper
  // per chunk beyond the first, up to W − 1, started on first need and kept.
  std::size_t lanes = 1;
  std::thread([&lanes] {
    lanes = static_cast<std::size_t>(num_threads());
  }).join();
  const auto deflate = make_compressor("deflate");
  const struct {
    const char* what;
    std::vector<std::size_t> sizes;
  } drains[] = {
      {"one one-chunk deflate vector", {64}},
      {"two one-chunk deflate vectors", {64, 64}},
      {"one 3 × 64Ki-double deflate vector", {3 * kChunkElems}},
  };
  for (const auto& drain : drains) {
    SCOPED_TRACE(drain.what);
    const int before = thread_count();
    std::vector<Vector> vecs;
    std::size_t chunks = 0;
    for (const std::size_t n : drain.sizes) {
      vecs.emplace_back(n, 1.0);
      chunks += ChunkGeometry(n, kChunkElems).count();
    }
    const int want = 1 + static_cast<int>(std::min(lanes, chunks) - 1);
    CheckpointManager mgr(std::make_unique<MemoryStore>(), deflate.get());
    for (std::size_t k = 0; k < vecs.size(); ++k)
      mgr.protect(static_cast<int>(k), std::to_string(k), &vecs[k]);
    mgr.commit_version(mgr.stage().version);
    EXPECT_EQ(thread_count() - before, want) << "after the first stage()";
    mgr.commit_version(mgr.stage().version);
    EXPECT_EQ(thread_count() - before, want) << "after a second stage()";
  }
  {
    const int before = thread_count();
    auto store = make_tiered_store(2, 1, 1, /*auto_promote=*/false);
    store->write(0, blob(256, 1));
    store->promote_now(0, 2);
    EXPECT_EQ(thread_count() - before, 0) << "caller-driven tiered store";
  }
  {
    const int before = thread_count();
    auto store = make_tiered_store(2, 1, 1, /*auto_promote=*/true);
    EXPECT_EQ(thread_count() - before, 0)
        << "self-promoting store before its first commit";
    store->write(0, blob(256, 1));
    store->write(1, blob(256, 2));
    EXPECT_EQ(thread_count() - before, 1)
        << "self-promoting store after two commits";
  }
  {
    const int before = thread_count();
    CheckpointService service;
    auto job = service.open_job();
    auto store = job.store_factory()();
    EXPECT_EQ(thread_count() - before, 0) << "service, job and its stack";
  }
}

}  // namespace
}  // namespace lck
