/// Chunked content-addressed delta checkpointing: manager delta chains
/// (sync + staged), within-stream and cross-version refs, the codec ratio
/// of delta checkpoints, ref-counted retention, crash mid-chain, the L3
/// dedup store, tiered chain re-materialization after a node-severity
/// failure, runner integration, and the deterministic fixed-partition
/// vector reductions.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/chunk/chunk_hash.hpp"
#include "ckpt/chunk/dedup_store.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "compress/sz/sz_like.hpp"
#include "obs/metrics.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lck {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.uniform(-5.0, 5.0);
  return v;
}

std::filesystem::path unique_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_delta_" + tag + "_" + std::to_string(::getpid()) +
                    "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

// ----- hash -----------------------------------------------------------------

TEST(Crc64, KnownVectorAndIncrementalEquivalence) {
  // CRC-64/XZ check value for "123456789".
  const char* s = "123456789";
  const std::span<const byte_t> data{reinterpret_cast<const byte_t*>(s), 9};
  EXPECT_EQ(crc64(data), 0x995dc9bbdf1939faull);
  Crc64 inc;
  inc.update(data.subspan(0, 4));
  inc.update(data.subspan(4));
  EXPECT_EQ(inc.value(), crc64(data));
  EXPECT_NE(crc64(data.subspan(0, 8)), crc64(data));
}

// ----- manager: sync delta chains -------------------------------------------

TEST(DeltaManager, UnchangedChunksBecomeRefsAgainstBase) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_delta(4, 128);
  Vector v = random_vector(1024, 2);
  mgr.protect(0, "v", &v);
  mgr.checkpoint();
  // Mutate exactly one chunk; every other chunk must become a ref.
  v[5 * 128 + 3] += 1.0;
  const CheckpointRecord rec = mgr.checkpoint();
  EXPECT_EQ(rec.chunks, 8u);
  EXPECT_EQ(rec.chunks_deduped, 7u);
  // The one literal chunk carries its 128 doubles; the refs carry nothing.
  const auto stream = mgr.store().read(rec.version);
  const auto payloads = chunk_payloads(stream);
  ASSERT_TRUE(payloads.has_value());
  ASSERT_EQ(payloads->size(), 1u);
  EXPECT_EQ(payloads->front().size(), 128 * sizeof(double));
}

TEST(DeltaManager, CompressRatioCountsOnlyTheChunksTheCodecEncoded) {
  // compress.ratio{codec=...} is the raw bytes of the chunks a codec
  // encoded over their payload bytes, so references are not compression.
  // Deflate does not shrink uniform random doubles: neither the full
  // checkpoint nor the delta one, with 7 of its 8 chunks references, may
  // read above 1. A checkpoint of references only observes no ratio, but
  // its (zero) codec seconds.
  obs::MetricsRegistry reg;
  const auto deflate = make_compressor("deflate");
  CheckpointManager mgr(std::make_unique<MemoryStore>(), deflate.get());
  mgr.set_observability({&reg, nullptr});
  mgr.set_delta(4, 128);
  Vector v = random_vector(1024, 2);
  mgr.protect(0, "v", &v);
  mgr.checkpoint();
  v[5 * 128 + 3] += 1.0;
  EXPECT_EQ(mgr.checkpoint().chunks_deduped, 7u);
  EXPECT_EQ(mgr.checkpoint().chunks_deduped, 8u);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto* ratio = snap.histogram("compress.ratio{codec=deflate}");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->count, 2u);
  EXPECT_LE(ratio->max, 1.0);
  const auto* seconds = snap.histogram("compress.seconds{codec=deflate}");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->count, 3u);
}

TEST(DeltaManager, WithinStreamDuplicatesDedupWithoutABase) {
  // Constant vector: every full chunk after the first is a within-stream
  // duplicate (the tail chunk differs in length, hence in hash).
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_delta(4, 256);
  Vector v(1000, 3.25);
  mgr.protect(0, "v", &v);
  const CheckpointRecord rec = mgr.checkpoint();
  EXPECT_EQ(rec.base_version, -1);
  EXPECT_EQ(rec.chunks, 4u);
  EXPECT_EQ(rec.chunks_deduped, 2u);
  const Vector want = v;
  v.assign(3, 0.0);
  mgr.recover();
  EXPECT_EQ(v, want);
}

TEST(DeltaManager, DeltaChainRecoversBitExactly) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_delta(/*max_delta_chain=*/4, /*chunk_elems=*/64);
  mgr.set_retention(2);
  Vector stat = random_vector(512, 5);  // never changes (static payload)
  Vector x = random_vector(512, 6);
  mgr.protect(0, "static", &stat);
  mgr.protect(1, "x", &x);

  const auto rec0 = mgr.checkpoint();
  EXPECT_EQ(rec0.base_version, -1);
  EXPECT_EQ(rec0.chain_len, 0u);

  // Three deltas, each touching a different slice of x.
  std::vector<Vector> snapshots;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 64; ++i) x[64 * (k + 1) + i] += 0.5 * (k + 1);
    snapshots.push_back(x);
    const auto rec = mgr.checkpoint();
    EXPECT_EQ(rec.base_version, k);
    EXPECT_EQ(rec.chain_len, static_cast<std::uint32_t>(k + 1));
    // static payload fully deduped + unchanged x chunks deduped.
    EXPECT_GE(rec.chunks_deduped, 8u + 6u);
    EXPECT_LT(rec.stored_bytes, rec0.stored_bytes / 2);
  }

  const Vector stat_saved = stat;
  for (auto& v : x) v = 0.0;
  for (auto& v : stat) v = -1.0;
  const auto rec = mgr.recover();
  EXPECT_EQ(x, snapshots.back());
  EXPECT_EQ(stat, stat_saved);
  // Recovery read the whole chain, so it saw more bytes than the tip alone.
  EXPECT_GT(rec.stored_bytes, mgr.store().read(3).size());
}

TEST(DeltaManager, MaxChainForcesPeriodicFullCheckpoints) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_delta(2, 64);
  mgr.set_retention(1);
  Vector x = random_vector(256, 7);
  mgr.protect(0, "x", &x);
  // chain pattern: v0 full, v1 delta, v2 delta, v3 full, v4 delta, ...
  const std::vector<int> expect_base{-1, 0, 1, -1, 3, 4, -1};
  for (std::size_t k = 0; k < expect_base.size(); ++k) {
    x[0] += 1.0;
    const auto rec = mgr.checkpoint();
    EXPECT_EQ(rec.base_version, expect_base[k]) << "checkpoint " << k;
  }
}

TEST(DeltaManager, RetentionKeepsLiveChainBasesAndRetiresDeadChains) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  mgr.set_delta(3, 64);
  mgr.set_retention(1);
  Vector x = random_vector(256, 8);
  mgr.protect(0, "x", &x);

  mgr.checkpoint();  // v0 full
  for (int k = 1; k <= 3; ++k) {
    x[k] += 1.0;
    mgr.checkpoint();  // v1..v3 deltas on v0
  }
  // Retention is 1, but v3's chain pins v2 -> v1 -> v0.
  for (int v = 0; v <= 3; ++v)
    EXPECT_TRUE(store_raw->exists(v)) << "version " << v;

  x[10] += 1.0;
  mgr.checkpoint();  // v4: forced full (chain at max) -> whole old chain dead
  EXPECT_TRUE(store_raw->exists(4));
  for (int v = 0; v <= 3; ++v)
    EXPECT_FALSE(store_raw->exists(v)) << "version " << v;

  // And recovery still works from the fresh full.
  const Vector want = x;
  for (auto& v : x) v = 0.0;
  mgr.recover();
  EXPECT_EQ(x, want);
}

TEST(DeltaManager, LossyChunksRespectTheErrorBound) {
  SzLikeCompressor sz(ErrorBound::pointwise_rel(1e-4));
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &sz);
  mgr.set_delta(4, 512);
  Vector x(8192);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.001 * static_cast<double>(i)) + 2.0;
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  for (std::size_t i = 0; i < 512; ++i) x[i] += 0.1;  // touch chunk 0 only
  const Vector original = x;
  const auto rec = mgr.checkpoint();
  EXPECT_GE(rec.chunks_deduped, 15u);

  for (auto& v : x) v = 0.0;
  mgr.recover();
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_LE(std::fabs(x[i] - original[i]),
              1e-4 * std::fabs(original[i]) + 1e-300)
        << i;
}

TEST(DeltaManager, CrashBetweenWritePendingAndCommitMidChain) {
  // A staged delta whose process dies before commit must roll back to the
  // chain's previous committed version on reopen — and the swept version
  // number is reused by a checkpoint that deltas against the *surviving*
  // tip, not the orphan.
  const auto dir = unique_dir("crash_chain");
  NoneCompressor none;
  Vector x(256, 1.0);
  {
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    mgr.set_delta(4, 64);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();  // v0 full
    x[0] = 2.0;
    mgr.checkpoint();  // v1 delta on v0
    x[1] = 3.0;
    const StageTicket t = mgr.stage();  // v2 delta on v1, drained...
    (void)mgr.wait_drain(t.version);    // ...pending on disk, never committed
    // Manager destruction aborts undecided versions (the graceful path);
    // simulate the crash by re-staging a pending file the sweep must kill.
    DiskStore raw(dir.string());
    raw.write_pending(2, std::vector<byte_t>{9, 9, 9});
    mgr.abort_version(t.version);
    raw.write_pending(2, mgr.store().read(1));  // orphan with real bytes
  }  // "crash": .lck.pending for v2 left behind

  CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
  mgr.set_delta(4, 64);
  Vector y(1, 0.0);
  mgr.protect(0, "x", &y);
  EXPECT_EQ(mgr.latest_version(), 1);
  EXPECT_FALSE(mgr.store().has_pending(2));
  mgr.recover();  // v1 -> v0 chain, both committed before the crash
  ASSERT_EQ(y.size(), 256u);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);

  // The reopened manager has no in-memory chunk state: the next checkpoint
  // (reusing the swept version number) must be a fresh full checkpoint.
  y[2] = 4.0;
  const auto rec = mgr.checkpoint();
  EXPECT_EQ(rec.version, 2);
  EXPECT_EQ(rec.base_version, -1);
  y.assign(256, 0.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  std::filesystem::remove_all(dir);
}

// ----- manager: staged (async) delta chains ---------------------------------

TEST(DeltaManager, StagedChainCommitsAndAbortRejoinsCommittedTip) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_delta(8, 64);
  Vector x = random_vector(512, 9);
  mgr.protect(0, "x", &x);

  StageTicket t0 = mgr.stage();
  mgr.commit_version(t0.version);  // v0 full
  x[0] += 1.0;
  StageTicket t1 = mgr.stage();
  const CheckpointRecord r1 = mgr.wait_drain(t1.version);
  EXPECT_EQ(r1.base_version, 0);
  mgr.commit_version(t1.version);

  // An aborted delta must not become anyone's base.
  x[1] += 1.0;
  StageTicket t2 = mgr.stage();
  mgr.abort_version(t2.version);
  x[2] += 1.0;
  StageTicket t3 = mgr.stage();
  const CheckpointRecord r3 = mgr.wait_drain(t3.version);
  EXPECT_EQ(r3.base_version, t1.version);  // rejoined the committed tip
  mgr.commit_version(t3.version);

  const Vector want = x;
  for (auto& v : x) v = 0.0;
  mgr.recover();
  EXPECT_EQ(x, want);
}

// ----- dedup store ----------------------------------------------------------

TEST(DedupStore, RoundTripsDeltaAndOpaqueBlobsByteExactly) {
  NoneCompressor none;
  // Build a real delta stream through a manager backed by a MemoryStore.
  auto inner = std::make_unique<MemoryStore>();
  auto* inner_raw = inner.get();
  CheckpointManager mgr(std::move(inner), &none);
  mgr.set_delta(4, 64);
  Vector x = random_vector(512, 10);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  const auto blob = inner_raw->read(0);

  DedupChunkStore store;
  store.write(0, blob);
  EXPECT_EQ(store.read(0), blob);
  const std::vector<byte_t> opaque{0, 1, 2, 3, 200, 100};
  store.write(1, opaque);
  EXPECT_EQ(store.read(1), opaque);
  EXPECT_EQ(store.latest_version(), 1);
  store.remove(0);
  EXPECT_FALSE(store.exists(0));
  EXPECT_THROW((void)store.read(0), corrupt_stream_error);
}

TEST(DedupStore, IdenticalChunksAcrossVersionsAreStoredOnce) {
  NoneCompressor none;
  auto inner = std::make_unique<MemoryStore>();
  auto* inner_raw = inner.get();
  CheckpointManager mgr(std::move(inner), &none);
  // Chain length 1: v0 full, v1 delta, v2 full again, v3 delta ... so the
  // static payload's literal chunks recur in every *full* checkpoint.
  mgr.set_delta(1, 64);
  mgr.set_retention(8);
  Vector stat = random_vector(512, 11);
  Vector x = random_vector(512, 12);
  mgr.protect(0, "static", &stat);
  mgr.protect(1, "x", &x);
  for (int k = 0; k < 4; ++k) {
    x[0] += 1.0;
    mgr.checkpoint();
  }

  DedupChunkStore store;
  for (int v = 0; v < 4; ++v) store.write(v, inner_raw->read(v));
  // v2's full re-stores the static chunks v0 already placed: all dedup.
  EXPECT_GT(store.dedup_hits(), 0u);
  EXPECT_GT(store.dedup_bytes_saved(), 512 * sizeof(double));
  EXPECT_LT(store.physical_bytes(), store.logical_bytes());
  for (int v = 0; v < 4; ++v)
    EXPECT_EQ(store.read(v), inner_raw->read(v)) << "version " << v;
}

TEST(DedupStore, OnDiskIndexSurvivesReopenForCrossRunDedup) {
  const auto dir = unique_dir("dedup_disk");
  NoneCompressor none;
  auto inner = std::make_unique<MemoryStore>();
  auto* inner_raw = inner.get();
  CheckpointManager mgr(std::move(inner), &none);
  mgr.set_delta(2, 64);
  Vector x = random_vector(512, 13);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  const auto blob = inner_raw->read(0);

  std::size_t physical_first = 0;
  {
    DedupChunkStore store(dir.string());
    store.write(0, blob);
    physical_first = store.physical_bytes();
    EXPECT_EQ(store.dedup_hits(), 0u);
  }
  {
    // "Next run": same content arrives as a new version — every chunk is
    // already resident in the on-disk index.
    DedupChunkStore store(dir.string());
    EXPECT_EQ(store.read(0), blob);
    store.write(7, blob);
    EXPECT_GT(store.dedup_hits(), 0u);
    EXPECT_LT(store.physical_bytes(), physical_first + blob.size() / 2);
    EXPECT_EQ(store.read(7), blob);
    store.remove(0);
    store.remove(7);  // refcounted chunks vanish with the last reference
    EXPECT_EQ(store.chunk_count(), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DedupStore, ReopenSurvivesACrashInsideRemovesDeletionWindow) {
  // remove() deletes the skeleton file before the chunk files, but a crash
  // can still leave a skeleton whose chunks are gone (e.g. mid-overwrite).
  // Reopening must drop that version and keep serving the rest — never
  // refuse to construct.
  const auto dir = unique_dir("crash_window");
  NoneCompressor none;
  auto inner = std::make_unique<MemoryStore>();
  auto* inner_raw = inner.get();
  CheckpointManager mgr(std::move(inner), &none);
  mgr.set_delta(2, 64);
  mgr.set_retention(8);
  Vector x = random_vector(512, 20);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  x[0] += 1.0;
  mgr.checkpoint();
  {
    DedupChunkStore store(dir.string());
    store.write(0, inner_raw->read(0));
    store.write(1, inner_raw->read(1));
  }
  // "Crash": one of v0's chunk files vanishes (v1 is a delta whose refs
  // resolve at recovery, not in the store, so its skeleton shares chunks).
  std::size_t removed = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(dir / "chunks")) {
    std::filesystem::remove(e.path());
    ++removed;
    break;
  }
  ASSERT_EQ(removed, 1u);

  DedupChunkStore reopened(dir.string());  // must not throw
  // At least one version survived or was dropped cleanly; reads of the
  // surviving set reassemble without error.
  for (int v = 0; v <= 1; ++v) {
    if (reopened.exists(v)) {
      EXPECT_NO_THROW((void)reopened.read(v));
    }
  }
  std::filesystem::remove_all(dir);
}

// ----- tiered hierarchy -----------------------------------------------------

TEST(DeltaTiered, NodeFailureRematerializesTheChainFromL2) {
  // L1 is destroyed by a node failure; the chain (full + deltas) was
  // promoted to L2/L3, so recover() must re-materialize every chunk from
  // the surviving tiers — including parity reconstruction inside L2.
  auto tiered = make_tiered_store(/*retention=*/8, /*l2_promote_every=*/1,
                                  /*l3_promote_every=*/4,
                                  /*auto_promote=*/false);
  auto* tiered_raw = tiered.get();
  NoneCompressor none;
  CheckpointManager mgr(std::unique_ptr<CheckpointStore>(std::move(tiered)),
                        &none);
  mgr.set_delta(4, 64);
  mgr.set_retention(1 << 28);  // hierarchy owns retention (runner setting)
  Vector stat = random_vector(512, 14);
  Vector x = random_vector(512, 15);
  mgr.protect(0, "static", &stat);
  mgr.protect(1, "x", &x);

  for (int k = 0; k < 3; ++k) {  // v0 full, v1..v2 deltas
    if (k > 0) x[static_cast<std::size_t>(k)] += 1.0;
    const StageTicket t = mgr.stage();
    mgr.commit_version(t.version);
    ASSERT_TRUE(tiered_raw->promote_now(t.version, 1));
  }
  const Vector want_x = x, want_stat = stat;

  tiered_raw->invalidate(FailureSeverity::kNode);  // L1 gone, L2 degraded
  EXPECT_EQ(tiered_raw->level_of(2), 1);
  for (auto& v : x) v = 0.0;
  for (auto& v : stat) v = 0.0;
  mgr.recover();
  EXPECT_EQ(x, want_x);
  EXPECT_EQ(stat, want_stat);
}

TEST(DeltaTiered, PromotionCarriesSkippedChainBases) {
  // L3 cadence 4 would skip the delta's bases; the chain-aware promotion
  // must copy them anyway, so a system failure still recovers.
  auto tiered = make_tiered_store(8, 1, 1, /*auto_promote=*/false);
  auto* tiered_raw = tiered.get();
  NoneCompressor none;
  CheckpointManager mgr(std::unique_ptr<CheckpointStore>(std::move(tiered)),
                        &none);
  mgr.set_delta(8, 64);
  mgr.set_retention(1 << 28);
  Vector x = random_vector(512, 16);
  mgr.protect(0, "x", &x);
  for (int k = 0; k < 5; ++k) {  // v0 full, v1..v4 deltas
    if (k > 0) x[static_cast<std::size_t>(k)] += 1.0;
    mgr.checkpoint();
  }
  // Promote only the tip; the chain (v3 -> ... -> v0) must ride along.
  ASSERT_TRUE(tiered_raw->promote_now(4, 2));
  for (int v = 0; v <= 4; ++v)
    EXPECT_TRUE(tiered_raw->exists_at(2, v)) << "version " << v;

  const Vector want = x;
  tiered_raw->invalidate(FailureSeverity::kPartition);  // only L3 survives
  for (auto& v : x) v = 0.0;
  mgr.recover();
  EXPECT_EQ(x, want);
}

TEST(PromotionPlan, BasesFirstAndInvalidateDropsThePlan) {
  auto tiered = make_tiered_store(8, 1, 1, /*auto_promote=*/false);
  auto* tiered_raw = tiered.get();
  NoneCompressor none;
  CheckpointManager mgr(std::unique_ptr<CheckpointStore>(std::move(tiered)),
                        &none);
  mgr.set_delta(4, 64);
  mgr.set_retention(1 << 28);
  Vector x = random_vector(256, 18);
  mgr.protect(0, "x", &x);
  for (int k = 0; k < 3; ++k) {  // v0 full, v1..v2 deltas
    if (k > 0) x[static_cast<std::size_t>(k)] += 1.0;
    mgr.checkpoint();
  }

  const std::vector<PromotionHop> hops = tiered_raw->plan_promotion(2, 2);
  ASSERT_EQ(hops.size(), 3u);
  for (int v = 0; v <= 2; ++v) {  // deepest base first, each at its size
    const PromotionHop& hop = hops[static_cast<std::size_t>(v)];
    EXPECT_EQ(hop.version, v);
    EXPECT_EQ(hop.level, 2);
    EXPECT_EQ(hop.bytes, tiered_raw->record(v)->bytes);
  }
  EXPECT_TRUE(tiered_raw->plan_promotion(2, 2).empty()) << "already planned";

  // A failure drops the plan: its hops no longer run, even though L1 (the
  // source) survives a process failure.
  tiered_raw->invalidate(FailureSeverity::kProcess);
  EXPECT_FALSE(tiered_raw->promote(hops[0]));
  EXPECT_FALSE(tiered_raw->exists_at(2, 0));

  for (const PromotionHop& hop : tiered_raw->plan_promotion(2, 2))
    EXPECT_TRUE(tiered_raw->promote(hop));
  for (int v = 0; v <= 2; ++v)
    EXPECT_TRUE(tiered_raw->exists_at(2, v)) << "version " << v;
  EXPECT_TRUE(tiered_raw->plan_promotion(2, 2).empty()) << "already there";
}

TEST(DeltaTiered, PerLevelRetentionKeepsLiveBases) {
  auto tiered = make_tiered_store(/*retention=*/1, 1, 1,
                                  /*auto_promote=*/false);
  auto* tiered_raw = tiered.get();
  NoneCompressor none;
  CheckpointManager mgr(std::unique_ptr<CheckpointStore>(std::move(tiered)),
                        &none);
  mgr.set_delta(4, 64);
  mgr.set_retention(1 << 28);
  Vector x = random_vector(256, 17);
  mgr.protect(0, "x", &x);
  for (int k = 0; k < 3; ++k) {  // v0 full, v1..v2 deltas
    if (k > 0) x[static_cast<std::size_t>(k)] += 1.0;
    mgr.checkpoint();
  }
  // L1 retention is 1, but v2's chain pins v1 and v0 in L1.
  for (int v = 0; v <= 2; ++v)
    EXPECT_TRUE(tiered_raw->exists_at(0, v)) << "version " << v;
  const Vector want = x;
  for (auto& v : x) v = 0.0;
  mgr.recover();
  EXPECT_EQ(x, want);
}

// ----- runner integration ---------------------------------------------------

ResilienceConfig delta_config(CkptScheme scheme, CkptMode mode, int chain) {
  ResilienceConfig cfg;
  cfg.scheme = scheme;
  cfg.ckpt_mode = mode;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;
  cfg.iteration_seconds = 5.0;
  cfg.failure.seed = 7;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  cfg.delta.max_delta_chain = chain;
  cfg.delta.chunk_elems = 64;
  return cfg;
}

class DeltaRunnerMode : public ::testing::TestWithParam<CkptMode> {};

TEST_P(DeltaRunnerMode, TraditionalConvergesToTheSameIterationWithDeltas) {
  const CkptMode mode = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);

  auto full_solver = p.make_solver();
  ResilientRunner full_runner(*full_solver,
                              delta_config(CkptScheme::kTraditional, mode, 0));
  const auto full = full_runner.run();

  auto delta_solver = p.make_solver();
  ResilientRunner delta_runner(
      *delta_solver, delta_config(CkptScheme::kTraditional, mode, 6));
  const auto delta = delta_runner.run();

  // Recovery from a delta chain restores the exact state, so the solver
  // reaches the same convergence iteration as the full runs. (The *final*
  // bits may differ: delta streams have slightly different stored sizes, so
  // failures land at different virtual times and the recomputed residual
  // after recovery carries different rounding.)
  EXPECT_TRUE(full.converged);
  EXPECT_TRUE(delta.converged);
  EXPECT_EQ(delta.convergence_iteration, full.convergence_iteration);
  EXPECT_GT(delta.failures, 0) << "test should exercise failures";
  // Every element of x and p changes between CG checkpoints, so the chains
  // are made of literal chunks — the accounting must still see them.
  EXPECT_GT(delta.full_checkpoints, 0);
  EXPECT_LT(delta.full_checkpoints, delta.checkpoints);
  EXPECT_GT(delta.delta_bytes_total, 0.0);
  // Full runs report no delta activity at all.
  EXPECT_EQ(full.chunks_deduped, 0u);
  EXPECT_EQ(full.full_checkpoints, full.checkpoints);
  EXPECT_EQ(full.delta_bytes_total, 0.0);
  for (index_t i = 0; i < p.a.rows(); ++i)
    ASSERT_NEAR(full_solver->solution()[i], delta_solver->solution()[i],
                1e-9 * (std::fabs(full_solver->solution()[i]) + 1.0));
}

TEST_P(DeltaRunnerMode, DeltaRunsAreBitStableAcrossReruns) {
  const CkptMode mode = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  ResilienceResult first;
  for (int round = 0; round < 2; ++round) {
    auto solver = p.make_solver();
    ResilientRunner runner(*solver,
                           delta_config(CkptScheme::kTraditional, mode, 4));
    const auto res = runner.run();
    if (round == 0) {
      first = res;
      continue;
    }
    EXPECT_EQ(res.converged, first.converged);
    EXPECT_EQ(res.executed_steps, first.executed_steps);
    EXPECT_EQ(res.checkpoints, first.checkpoints);
    EXPECT_EQ(res.failures, first.failures);
    EXPECT_EQ(res.chunks_deduped, first.chunks_deduped);
    EXPECT_EQ(res.full_checkpoints, first.full_checkpoints);
    EXPECT_DOUBLE_EQ(res.virtual_seconds, first.virtual_seconds);
    EXPECT_DOUBLE_EQ(res.delta_bytes_total, first.delta_bytes_total);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeltaRunnerMode,
                         ::testing::Values(CkptMode::kSync, CkptMode::kAsync,
                                           CkptMode::kTiered),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(DeltaRunner, LossyDeltaConvergesUnderFailures) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = delta_config(CkptScheme::kLossy, CkptMode::kAsync, 4);
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.failures, 0);
  Vector r(p.b.size());
  p.a.residual(p.b, solver->solution(), r);
  EXPECT_LE(norm2(r) / norm2(p.b), 1e-7);
}

// ----- deterministic reductions ---------------------------------------------

TEST(DeterministicReductions, BitStableAcrossThreadCounts) {
  // 100k elements spans multiple reduction blocks; the fixed partition must
  // give bit-identical results however many OpenMP threads execute it.
  const Vector x = random_vector(100000, 18);
  const Vector y = random_vector(100000, 19);
  const double dot_ref = dot(x, y);
  [[maybe_unused]] const double norm_ref = norm2(x);
  const double inf_ref = norm_inf(x);
  EXPECT_GT(inf_ref, 0.0);
#if defined(_OPENMP)
  const int prev = omp_get_max_threads();
  for (const int threads : {1, 2, 3, 4, 8}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(dot(x, y), dot_ref) << threads << " threads";
    EXPECT_EQ(norm2(x), norm_ref) << threads << " threads";
    EXPECT_EQ(norm_inf(x), inf_ref) << threads << " threads";
  }
  omp_set_num_threads(prev);
#endif
  // The blocked sum must agree with a plain serial sum to rounding noise.
  double serial = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) serial += x[i] * y[i];
  EXPECT_NEAR(dot_ref, serial, 1e-9 * std::fabs(serial));
}

}  // namespace
}  // namespace lck
