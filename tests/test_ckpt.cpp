/// Checkpoint substrate tests: stores (memory + disk), the FTI-like
/// Protect/Checkpoint/Recover/Snapshot API, CRC integrity, retention, and
/// compressed checkpoint payloads.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "ckpt/checkpoint_manager.hpp"
#include "common/rng.hpp"
#include "compress/sz/sz_like.hpp"

namespace lck {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.uniform(-5.0, 5.0);
  return v;
}

// ----- stores ---------------------------------------------------------------

template <typename StoreT>
std::unique_ptr<CheckpointStore> make_store();

template <>
std::unique_ptr<CheckpointStore> make_store<MemoryStore>() {
  return std::make_unique<MemoryStore>();
}

struct DiskStoreTag {};
template <>
std::unique_ptr<CheckpointStore> make_store<DiskStoreTag>() {
  // Unique per process *and* per call: ctest runs each test in its own
  // process concurrently, so a static counter alone would collide.
  static int counter = 0;
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("lckpt_test_store_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       "_" + std::to_string(getpid()) + "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return std::make_unique<DiskStore>(dir.string());
}

template <typename T>
class StoreTest : public ::testing::Test {};

using StoreTypes = ::testing::Types<MemoryStore, DiskStoreTag>;
TYPED_TEST_SUITE(StoreTest, StoreTypes);

TYPED_TEST(StoreTest, WriteReadRoundTrip) {
  auto store = make_store<TypeParam>();
  const std::vector<byte_t> data{1, 2, 3, 250, 0};
  store->write(0, data);
  EXPECT_EQ(store->read(0), data);
}

TYPED_TEST(StoreTest, LatestVersionTracksWrites) {
  auto store = make_store<TypeParam>();
  EXPECT_EQ(store->latest_version(), -1);
  store->write(0, std::vector<byte_t>{1});
  store->write(3, std::vector<byte_t>{2});
  store->write(1, std::vector<byte_t>{3});
  EXPECT_EQ(store->latest_version(), 3);
}

TYPED_TEST(StoreTest, RemoveDeletes) {
  auto store = make_store<TypeParam>();
  store->write(5, std::vector<byte_t>{9});
  EXPECT_TRUE(store->exists(5));
  store->remove(5);
  EXPECT_FALSE(store->exists(5));
  EXPECT_THROW((void)store->read(5), corrupt_stream_error);
}

TYPED_TEST(StoreTest, OverwriteReplacesContent) {
  auto store = make_store<TypeParam>();
  store->write(0, std::vector<byte_t>{1, 1});
  store->write(0, std::vector<byte_t>{2, 2, 2});
  EXPECT_EQ(store->read(0).size(), 3u);
}

TEST(DiskStore, PersistsAcrossInstances) {
  const auto dir = std::filesystem::temp_directory_path() / "lckpt_persist";
  std::filesystem::remove_all(dir);
  {
    DiskStore store(dir.string());
    store.write(7, std::vector<byte_t>{42, 43});
  }
  DiskStore reopened(dir.string());
  EXPECT_EQ(reopened.latest_version(), 7);
  EXPECT_EQ(reopened.read(7), (std::vector<byte_t>{42, 43}));
  std::filesystem::remove_all(dir);
}

TEST(DiskStore, StrayFilesRegisterNoPhantomVersion) {
  // Copies and backups beside the checkpoints must not parse as versions:
  // a "ckpt_12 (copy).lck" once made recover() chase a missing version 12.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_stray_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  NoneCompressor none;
  Vector x = random_vector(50, 9);
  {
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();  // v0
  }
  for (const char* stray :
       {"ckpt_12 (copy).lck", "ckpt_99backup.lck", "ckpt_-3.lck",
        "ckpt_+4.lck", "ckpt_.lck", "ckpt_ 5.lck", "ckpt_007.lck"})
    std::filesystem::copy_file(dir / "ckpt_0.lck", dir / stray);
  DiskStore store(dir.string());
  EXPECT_EQ(store.latest_version(), 0);
  CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
  Vector y;
  mgr.protect(0, "x", &y);
  EXPECT_EQ(mgr.recover().version, 0);
  EXPECT_EQ(y, x);
  std::filesystem::remove_all(dir);
}

TEST(DiskStore, StalePendingSweepThenRetentionPruneAfterReopen) {
  // Crash between write_pending and commit, then reopen + prune: the
  // reopen must sweep the orphaned .lck.pending file, the new manager must
  // reuse the swept version number without clashing, and retention pruning
  // over the reopened store must retire the pre-crash committed versions.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_stale_prune_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  NoneCompressor none;
  Vector x(64, 1.0);
  {
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    mgr.set_retention(2);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();  // v0 committed
    x.assign(64, 2.0);
    mgr.checkpoint();  // v1 committed
  }
  {
    // "Crash": a pending v2 written straight to the store, never committed
    // (bypassing the manager, whose destructor would roll it back).
    DiskStore store(dir.string());
    store.write_pending(2, std::vector<byte_t>{9, 9, 9});
    EXPECT_TRUE(store.has_pending(2));
  }  // process dies with the .lck.pending file on disk

  CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
  mgr.set_retention(1);
  mgr.protect(0, "x", &x);
  // The sweep ran at DiskStore construction: no pending leftover, and the
  // version counter continues from the committed history (v2 is free for
  // reuse because the orphan never committed).
  EXPECT_FALSE(mgr.store().has_pending(2));
  EXPECT_EQ(mgr.latest_version(), 1);
  x.assign(64, 3.0);
  const CheckpointRecord rec = mgr.checkpoint();  // reuses version 2
  EXPECT_EQ(rec.version, 2);
  // retention 1: the prune at v2's commit must retire both pre-crash
  // versions, stepping across the whole reopened history.
  EXPECT_FALSE(mgr.store().exists(0));
  EXPECT_FALSE(mgr.store().exists(1));
  EXPECT_TRUE(mgr.store().exists(2));
  x.assign(64, 0.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 3.0);  // v2's state, not the orphan's bytes
  // No stray files beyond the single committed checkpoint.
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir))
    ++files;
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

// ----- manager ---------------------------------------------------------------

TEST(Manager, ProtectCheckpointRecoverRoundTrip) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x = random_vector(1000, 1);
  Vector p = random_vector(1000, 2);
  mgr.protect(0, "x", &x);
  mgr.protect(1, "p", &p);

  const Vector x_saved = x, p_saved = p;
  const auto rec = mgr.checkpoint();
  EXPECT_EQ(rec.version, 0);
  EXPECT_EQ(rec.raw_bytes, 2000 * sizeof(double));

  // Mutate, then recover: originals must come back exactly.
  for (auto& v : x) v = 0.0;
  for (auto& v : p) v = -1.0;
  mgr.recover();
  EXPECT_EQ(x, x_saved);
  EXPECT_EQ(p, p_saved);
}

TEST(Manager, BlobRoundTrip) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  std::vector<byte_t> blob{10, 20, 30};
  mgr.protect_blob(0, "state", &blob);
  mgr.checkpoint();
  blob.clear();
  mgr.recover();
  EXPECT_EQ(blob, (std::vector<byte_t>{10, 20, 30}));
}

TEST(Manager, LossyCompressorIsAppliedAndBounded) {
  SzLikeCompressor sz(ErrorBound::pointwise_rel(1e-4));
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &sz);
  Vector x(20000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.001 * static_cast<double>(i)) + 2.0;
  mgr.protect(0, "x", &x);
  const Vector original = x;

  const auto rec = mgr.checkpoint();
  EXPECT_LT(rec.stored_bytes * 5, rec.raw_bytes);  // actually compressed

  for (auto& v : x) v = 0.0;
  mgr.recover();
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_LE(std::fabs(x[i] - original[i]),
              1e-4 * std::fabs(original[i]) + 1e-300);
}

TEST(Manager, PerVariableCompressorOverride) {
  SzLikeCompressor sz(ErrorBound::pointwise_rel(1e-4));
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &sz);
  Vector x = random_vector(500, 3);
  Vector exact = random_vector(500, 4);
  mgr.protect(0, "x", &x);              // default (lossy)
  mgr.protect(1, "exact", &exact, &none);  // override: verbatim
  const Vector exact_saved = exact;
  mgr.checkpoint();
  for (auto& v : exact) v = 0.0;
  mgr.recover();
  EXPECT_EQ(exact, exact_saved);  // bit-exact despite lossy default
}

TEST(Manager, CrcDetectsCorruption) {
  // Corrupt the stored blob through a custom store wrapper.
  class CorruptingStore final : public CheckpointStore {
   public:
    void write(int v, std::span<const byte_t> d) override { inner_.write(v, d); }
    [[nodiscard]] std::vector<byte_t> read(int v) const override {
      auto d = inner_.read(v);
      d[d.size() - 3] ^= 0x40;  // flip a payload bit
      return d;
    }
    [[nodiscard]] bool exists(int v) const override { return inner_.exists(v); }
    void remove(int v) override { inner_.remove(v); }
    [[nodiscard]] int latest_version() const override {
      return inner_.latest_version();
    }

   private:
    MemoryStore inner_;
  };

  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<CorruptingStore>(), &none);
  Vector x = random_vector(100, 5);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  EXPECT_THROW(mgr.recover(), corrupt_stream_error);
}

TEST(Manager, RetentionDeletesOldVersions) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(2);
  Vector x = random_vector(10, 6);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();  // v0
  mgr.checkpoint();  // v1
  mgr.checkpoint();  // v2 -> v0 dropped
  EXPECT_FALSE(mgr.store().exists(0));
  EXPECT_TRUE(mgr.store().exists(1));
  EXPECT_TRUE(mgr.store().exists(2));
}

TEST(Manager, DiscardVersionFallsBackToPrevious) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(2);
  Vector x(100, 1.0);
  mgr.protect(0, "x", &x);
  mgr.checkpoint();  // v0: x == 1.0
  x.assign(100, 2.0);
  const auto rec = mgr.checkpoint();  // v1: x == 2.0
  mgr.discard_version(rec.version);   // simulate failure mid-write
  x.assign(100, 0.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 1.0);  // recovered from v0
}

TEST(Manager, SnapshotSemantics) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x(50, 3.0);
  mgr.protect(0, "x", &x);

  mgr.snapshot();  // no recovery pending -> checkpoint
  EXPECT_TRUE(mgr.has_checkpoint());

  x.assign(50, 9.0);
  mgr.request_recovery();
  mgr.snapshot();  // recovery pending -> recover
  EXPECT_DOUBLE_EQ(x[0], 3.0);

  mgr.snapshot();  // back to checkpointing
  EXPECT_EQ(mgr.latest_version(), 1);
}

TEST(Manager, RecoverWithoutCheckpointThrows) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x(10, 0.0);
  mgr.protect(0, "x", &x);
  EXPECT_THROW(mgr.recover(), corrupt_stream_error);
}

TEST(Manager, DuplicateIdRejected) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x(10, 0.0), y(10, 0.0);
  mgr.protect(0, "x", &x);
  EXPECT_THROW(mgr.protect(0, "y", &y), config_error);
}

TEST(Manager, UnregisteredVariableIdRejectedOnRecover) {
  NoneCompressor none;
  std::vector<byte_t> blob;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), &none);
    Vector x(10, 1.0);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    blob = store_raw->read(0);
  }
  // A manager whose registration ids don't match the file must refuse.
  auto store2 = std::make_unique<MemoryStore>();
  store2->write(0, blob);
  CheckpointManager mgr2(std::move(store2), &none);
  Vector y(10, 0.0);
  mgr2.protect(1, "y", &y);
  EXPECT_THROW(mgr2.recover(), corrupt_stream_error);
}

TEST(Manager, CompressorMismatchRejectedOnRecover) {
  // Checkpoint written with "none" cannot be recovered by a manager whose
  // registered compressor is SZ (wrong decoder would corrupt state).
  NoneCompressor none;
  std::vector<byte_t> blob;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), &none);
    Vector x(100, 1.0);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    blob = store_raw->read(0);
  }
  auto store2 = std::make_unique<MemoryStore>();
  store2->write(0, blob);
  SzLikeCompressor sz;
  CheckpointManager mgr2(std::move(store2), &sz);
  Vector y(100, 0.0);
  mgr2.protect(0, "x", &y);
  EXPECT_THROW(mgr2.recover(), corrupt_stream_error);
}

TEST(Manager, RecoveredVectorResizesToCheckpointLength) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x = random_vector(256, 8);
  mgr.protect(0, "x", &x);
  const Vector saved = x;
  mgr.checkpoint();
  x.resize(10);
  mgr.recover();
  EXPECT_EQ(x, saved);
}

TEST(Manager, CheckpointWithNothingProtectedThrows) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  EXPECT_THROW(mgr.checkpoint(), config_error);
}

}  // namespace
}  // namespace lck
