/// Asynchronous (staged) checkpoint pipeline tests: the SerialWorker that
/// runs every drain (FIFO order, futures, draining destructor), the
/// LaneRunner that compresses a stream's chunks side by side (explicit lane
/// counts, errors, stop requests), stage/drain/commit and abort semantics
/// at the manager level, variables compressed side by side, one staged
/// version at a time (a second stage() or checkpoint() is refused until it
/// is committed or aborted), abort and destruction stopping a running
/// drain instead of finishing it, pending-vs-committed store states,
/// retention interplay, and the ResilientRunner async mode (failure during
/// drain recovers from the previous committed version, bit-stable reruns,
/// and the blocking-time win over sync).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "common/rng.hpp"
#include "common/serial_worker.hpp"
#include "common/stop_request.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "sparse/vector_ops.hpp"

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

bool bit_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The lanes a drain writes with: num_threads() on a fresh thread, as on
/// the manager's drain worker (OpenMP's process default, 1 without OpenMP).
std::size_t drain_lanes() {
  std::size_t lanes = 1;
  std::thread([&lanes] {
    lanes = static_cast<std::size_t>(num_threads());
  }).join();
  return lanes;
}

// ----- SerialWorker ---------------------------------------------------------

TEST(SerialWorker, RunsTasksInSubmitOrderAndReturnsResults) {
  SerialWorker w;
  std::vector<int> order;  // written by the worker only; read after get()
  auto first = w.submit([&] {
    order.push_back(0);
    CheckpointRecord rec;
    rec.stored_bytes = 11;
    return rec;
  });
  auto second = w.submit([&] {
    order.push_back(1);
    CheckpointRecord rec;
    rec.stored_bytes = 22;
    return rec;
  });
  EXPECT_EQ(second.get().stored_bytes, 22u);
  EXPECT_EQ(first.get().stored_bytes, 11u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SerialWorker, FutureCarriesTheTaskException) {
  SerialWorker w;
  auto failed = w.submit([]() -> CheckpointRecord {
    throw corrupt_stream_error("drain blew up");
  });
  EXPECT_THROW((void)failed.get(), corrupt_stream_error);
  // The throw stayed in the future: the worker keeps serving tasks.
  EXPECT_EQ(w.submit([] { return 7; }).get(), 7);
}

TEST(SerialWorker, DestructorRunsEveryQueuedTask) {
  std::atomic<int> ran{0};
  {
    SerialWorker w;
    // The first task holds the thread while the rest queue up, so the
    // destructor starts with a full queue.
    w.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    for (int i = 0; i < 200; ++i) w.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 200);
}

// ----- LaneRunner -----------------------------------------------------------

TEST(LaneRunner, EveryIndexRunsOnceOnAtMostItsLanes) {
  LaneRunner runner;
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    for (const std::size_t n : {0, 1, 3, 64}) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes, " + std::to_string(n) +
                   " indices");
      std::vector<std::atomic<int>> calls(n);
      std::mutex mu;
      std::set<std::thread::id> threads;
      runner.run(lanes, n, [&](std::size_t i) {
        calls[i].fetch_add(1);
        const std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(calls[i].load(), 1) << "index " << i;
      EXPECT_LE(threads.size(), std::min(lanes, n));
    }
  }
}

TEST(LaneRunner, LanesRunSideBySideOnHelpersThatAreKept) {
  // Every call waits until `lanes` calls have started, so the loop ends
  // only if all its lanes run at once; a lane missing from the hand-off
  // leaves the calls to their deadline. Helpers start on first need and
  // are kept: four lane counts, twice each, run on four threads in all.
  LaneRunner runner;
  std::set<std::thread::id> all;
  for (const std::size_t lanes : {1, 2, 3, 4, 4, 3, 2, 1}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    std::mutex mu;
    std::condition_variable cv;
    std::size_t started = 0;
    std::set<std::thread::id> threads;
    int expired = 0;
    runner.run(lanes, lanes, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      threads.insert(std::this_thread::get_id());
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(60),
                       [&] { return started >= lanes; }))
        ++expired;
    });
    EXPECT_EQ(expired, 0);
    EXPECT_EQ(threads.size(), lanes);
    EXPECT_TRUE(threads.contains(std::this_thread::get_id()))
        << "the calling thread is a lane";
    all.insert(threads.begin(), threads.end());
  }
  EXPECT_EQ(all.size(), 4u) << "helpers were not kept";
}

TEST(LaneRunner, FirstErrorIsRethrownOnceEveryLaneHasEnded) {
  LaneRunner runner;
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    std::atomic<int> running{0};
    std::atomic<int> after_error{0};
    std::atomic<bool> failed{false};
    try {
      runner.run(lanes, 64, [&](std::size_t i) {
        running.fetch_add(1);
        if (failed.load()) after_error.fetch_add(1);
        if (i == 5) {
          failed = true;
          running.fetch_sub(1);
          throw std::system_error(ENOSPC, std::generic_category(), "lane");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        running.fetch_sub(1);
      });
      ADD_FAILURE() << "run() returned";
    } catch (const std::system_error& e) {
      EXPECT_EQ(e.code(), std::errc::no_space_on_device);
    }
    EXPECT_EQ(running.load(), 0) << "a lane still ran at the rethrow";
    if (lanes == 1) {
      EXPECT_EQ(after_error.load(), 0) << "an index ran after the error";
    }
  }
}

TEST(LaneRunner, EveryLaneRunsUnderTheCallersStopRequest) {
  LaneRunner runner;
  StopRequest stop{false};
  const StopScope scope(&stop);
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    std::atomic<int> outside{0};
    runner.run(lanes, 16, [&](std::size_t) {
      if (current_stop_request() != &stop) outside.fetch_add(1);
    });
    EXPECT_EQ(outside.load(), 0) << lanes << " lanes";
  }
  stop = true;
  EXPECT_THROW(
      runner.run(4, 16, [](std::size_t) { throw_if_stop_requested(); }),
      stop_requested_error);
}

// ----- manager: stage/drain/commit ------------------------------------------

TEST(AsyncManager, StagedStreamIsBitIdenticalToSyncCheckpoint) {
  // Same protected values must serialize to the same bytes on both paths,
  // so sync and async recoveries are interchangeable. Four variables: a
  // blob, stored verbatim, and three vectors (4,000 and 1,000 doubles, one
  // chunk each, and 3 × 64Ki + 5 doubles), whose chunks are raw frames
  // under `none` and are compressed as one list under deflate and
  // shuffle-rle; two checkpoints each, full and delta. Under OpenMP a sync
  // checkpoint on one lane must write the same bytes too.
  for (const char* name : {"none", "deflate", "shuffle-rle"}) {
    for (const bool delta : {false, true}) {
      SCOPED_TRACE(std::string(name) + (delta ? " delta" : " full"));
      const auto codec = make_compressor(name);
      Vector x = random_vector(4000, 1);
      std::vector<byte_t> blob{1, 2, 3, 4};
      Vector y = random_vector(1000, 2);
      Vector z = random_vector(3 * kChunkElems + 5, 3);
      const auto make = [&](MemoryStore*& raw) {
        auto store = std::make_unique<MemoryStore>();
        raw = store.get();
        auto mgr =
            std::make_unique<CheckpointManager>(std::move(store), codec.get());
        if (delta) mgr->set_delta(4);
        mgr->protect(0, "x", &x);
        mgr->protect_blob(1, "s", &blob);
        mgr->protect(2, "y", &y);
        mgr->protect(3, "z", &z);
        return mgr;
      };
      MemoryStore* sync_raw = nullptr;
      MemoryStore* async_raw = nullptr;
      MemoryStore* one_lane_raw = nullptr;
      auto sync_mgr = make(sync_raw);
      auto async_mgr = make(async_raw);
      auto one_lane_mgr = make(one_lane_raw);
      for (int v = 0; v < 2; ++v) {
        SCOPED_TRACE("version " + std::to_string(v));
        if (v == 1) {  // one chunk of z, all of y and the blob change
          z[kChunkElems + 7] += 1.0;
          y[0] = -y[0];
          blob[0] = 9;
        }
        sync_mgr->checkpoint();
        const StageTicket ticket = async_mgr->stage();
        EXPECT_EQ(ticket.version, v);
        EXPECT_EQ(ticket.raw_bytes,
                  (4000 + 1000 + 3 * kChunkElems + 5) * sizeof(double) + 4);
        const CheckpointRecord rec = async_mgr->wait_drain(ticket.version);
        async_mgr->commit_version(ticket.version);
        EXPECT_EQ(sync_raw->read(v), async_raw->read(v));
        EXPECT_EQ(rec.stored_bytes, sync_raw->read(v).size());
        if (delta && v == 1) {
          EXPECT_GT(rec.chunks_deduped, 0u);
        }
#if defined(_OPENMP)
        const int threads = omp_get_max_threads();
        omp_set_num_threads(1);
        one_lane_mgr->checkpoint();
        omp_set_num_threads(threads);
        EXPECT_EQ(one_lane_raw->read(v), sync_raw->read(v)) << "one lane";
#endif
      }
    }
  }
}

TEST(AsyncManager, StagingIsolatesFromLaterMutation) {
  // Values mutated after stage() must not leak into the drained version.
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x(100, 1.0);
  mgr.protect(0, "x", &x);
  const StageTicket ticket = mgr.stage();
  x.assign(100, 7.0);  // solver keeps iterating while the drain runs
  mgr.wait_drain(ticket.version);
  mgr.commit_version(ticket.version);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(AsyncManager, PendingVersionInvisibleUntilCommit) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  Vector x(50, 2.0);
  mgr.protect(0, "x", &x);

  const StageTicket ticket = mgr.stage();
  mgr.wait_drain(ticket.version);
  EXPECT_FALSE(mgr.has_checkpoint());
  EXPECT_EQ(mgr.latest_version(), -1);
  EXPECT_TRUE(store_raw->has_pending(ticket.version));

  mgr.commit_version(ticket.version);
  EXPECT_TRUE(mgr.has_checkpoint());
  EXPECT_EQ(mgr.latest_version(), ticket.version);
  EXPECT_FALSE(store_raw->has_pending(ticket.version));
}

TEST(AsyncManager, AbortDuringDrainRecoversPreviousCommittedVersion) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(2);
  Vector x(100, 1.0);
  mgr.protect(0, "x", &x);

  // v0 commits normally.
  const StageTicket t0 = mgr.stage();
  mgr.wait_drain(t0.version);
  mgr.commit_version(t0.version);

  // v1's drain is interrupted by a "failure": abort instead of commit.
  x.assign(100, 2.0);
  const StageTicket t1 = mgr.stage();
  mgr.wait_drain(t1.version);
  mgr.abort_version(t1.version);
  EXPECT_FALSE(mgr.store().has_pending(t1.version));
  EXPECT_EQ(mgr.latest_version(), t0.version);

  x.assign(100, 0.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 1.0);  // v0's state, not v1's

  // The version counter does not reuse the aborted slot.
  x.assign(100, 3.0);
  const StageTicket t2 = mgr.stage();
  EXPECT_EQ(t2.version, t1.version + 1);
  mgr.wait_drain(t2.version);
  mgr.commit_version(t2.version);
  x.assign(100, 9.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(AsyncManager, DestructionJoinsInFlightDrainsAndAbortsUndecided) {
  // Destroying the manager with a drain still in flight must join the
  // worker before the staged copy and store are torn down (no use-after-
  // free; exercised under TSan in CI), and undecided versions roll back so
  // no .lck.pending file outlives the manager.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_async_dtor_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  NoneCompressor none;
  {
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    Vector x(1u << 20, 1.5);
    mgr.protect(0, "x", &x);
    (void)mgr.stage();
  }  // dtor joins the drain and aborts the undecided version
  DiskStore reopened(dir.string());
  EXPECT_EQ(reopened.latest_version(), -1);
  EXPECT_FALSE(reopened.has_pending(0));
  std::filesystem::remove_all(dir);
}

TEST(AsyncManager, RetentionPrunesOnlyCommittedVersions) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(2);
  Vector x(10, 0.0);
  mgr.protect(0, "x", &x);

  for (int v = 0; v < 3; ++v) {
    const StageTicket t = mgr.stage();
    mgr.wait_drain(t.version);
    mgr.commit_version(t.version);
  }
  // retention 2 after committing v0..v2: v0 pruned.
  EXPECT_FALSE(mgr.store().exists(0));
  EXPECT_TRUE(mgr.store().exists(1));
  EXPECT_TRUE(mgr.store().exists(2));

  // A staged version stays pending, not counted as committed, until its
  // commit_version(); that commit's prune then retires v1.
  const StageTicket t3 = mgr.stage();
  mgr.wait_drain(t3.version);
  EXPECT_TRUE(mgr.store().has_pending(3));
  EXPECT_EQ(mgr.latest_version(), 2);
  mgr.commit_version(t3.version);
  EXPECT_FALSE(mgr.store().exists(1));  // pruned by v3's commit
  EXPECT_TRUE(mgr.store().exists(2));
  EXPECT_TRUE(mgr.store().exists(3));
}

TEST(AsyncManager, RetentionPrunesAcrossAbortGaps) {
  // An aborted drain leaves a hole in the version sequence; pruning must
  // step over it instead of stopping, or stale versions pile up forever.
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(1);
  Vector x(10, 0.0);
  mgr.protect(0, "x", &x);

  const StageTicket t0 = mgr.stage();
  mgr.wait_drain(t0.version);
  mgr.commit_version(t0.version);  // committed v0

  const StageTicket t1 = mgr.stage();
  mgr.wait_drain(t1.version);
  mgr.abort_version(t1.version);  // hole at v1

  const StageTicket t2 = mgr.stage();
  mgr.wait_drain(t2.version);
  mgr.commit_version(t2.version);  // committed v2: v0 must go despite the hole
  EXPECT_FALSE(mgr.store().exists(t0.version));
  EXPECT_TRUE(mgr.store().exists(t2.version));
}

/// Compressor whose compress() always throws — drives the drain-failure
/// path through the writer and the staged copy.
class ThrowingCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double>) const override {
    throw corrupt_stream_error("compressor failure during drain");
  }
  void decompress(std::span<const byte_t>, std::span<double>) const override {
    throw corrupt_stream_error("unreachable");
  }
};

TEST(AsyncManager, DrainExceptionFreesStagingSlotAndPropagates) {
  // Three failing drains in a row: each aborted version must be retired,
  // or the next stage() is refused.
  ThrowingCompressor bad;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &bad);
  Vector x(64, 1.0);
  mgr.protect(0, "x", &x);
  for (int round = 0; round < 3; ++round) {
    const StageTicket t = mgr.stage();
    EXPECT_THROW((void)mgr.wait_drain(t.version), corrupt_stream_error);
    mgr.abort_version(t.version);
    EXPECT_FALSE(mgr.store().has_pending(t.version));
  }
  EXPECT_EQ(mgr.versions_in_flight(), 0);
  EXPECT_FALSE(mgr.has_checkpoint());
}

/// Compressor whose compress() fails like a full disk.
class FullDiskCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "full-disk"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double>) const override {
    throw std::system_error(ENOSPC, std::generic_category(), "drain write");
  }
  void decompress(std::span<const byte_t>, std::span<double>) const override {
    throw corrupt_stream_error("unreachable");
  }
};

TEST(AsyncManager, RewaitingAFailedDrainRethrowsItsError) {
  // Every wait reports the drain's own error: a full disk must not turn
  // into a stream-corruption report on the second wait.
  FullDiskCompressor full;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &full);
  Vector x(64, 1.0);
  mgr.protect(0, "x", &x);
  const StageTicket t = mgr.stage();
  for (int wait = 0; wait < 2; ++wait) {
    try {
      (void)mgr.wait_drain(t.version);
      ADD_FAILURE() << "wait " << wait << " returned";
    } catch (const std::system_error& e) {
      EXPECT_EQ(e.code(), std::errc::no_space_on_device) << "wait " << wait;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wait " << wait << " threw " << e.what();
    }
  }
  mgr.abort_version(t.version);
  EXPECT_EQ(mgr.versions_in_flight(), 0);
}

TEST(AsyncManager, LossyStagedCheckpointHonoursErrorBound) {
  const ErrorBound eb = ErrorBound::pointwise_rel(1e-4);
  const auto sz = make_compressor("sz", eb);
  CheckpointManager mgr(std::make_unique<MemoryStore>(), sz.get());
  Vector x(20000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.001 * static_cast<double>(i)) + 2.0;
  const Vector original = x;
  mgr.protect(0, "x", &x);

  const StageTicket t = mgr.stage();
  const CheckpointRecord rec = mgr.wait_drain(t.version);
  EXPECT_LT(rec.stored_bytes * 5, rec.raw_bytes);  // actually compressed
  mgr.commit_version(t.version);
  x.assign(x.size(), 0.0);
  mgr.recover();
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_LE(std::fabs(x[i] - original[i]),
              1e-4 * std::fabs(original[i]) + 1e-300);
}

// ----- one staged version at a time -----------------------------------------

/// Compressor whose compress() blocks until released — lets the test hold a
/// drain open deterministically to exercise the refusals for real.
/// Every wait is bounded by a generous deadline: on a loaded single-core
/// container the worker thread can be scheduled very late, but a wait that
/// exceeds the deadline is a genuine hang and must fail the test rather
/// than wedge the whole CTest run.
class GateCompressor final : public Compressor {
 public:
  static constexpr auto kDeadline = std::chrono::seconds(60);

  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      if (!cv_.wait_for(lock, kDeadline, [&] { return open_; }))
        throw corrupt_stream_error("gate compressor: deadline expired");
    }
    return none_.compress(data);
  }
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override {
    none_.decompress(stream, out);
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

 private:
  NoneCompressor none_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool open_ = false;
};

TEST(AsyncManager, NothingStartsWhileAStagedVersionIsUndecided) {
  // One staged version at a time, as in FTI: stage() returns while its
  // drain still runs, and until the version is committed or aborted
  // neither stage() nor checkpoint() starts another. They refuse at once,
  // with the drain held open, rather than wait for it; a finished drain is
  // not enough either; and a refused stage() takes no version number.
  GateCompressor gate;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &gate);
  Vector x(64, 1.0);
  mgr.protect(0, "x", &x);

  const StageTicket t0 = mgr.stage();  // returns with its drain still open
  ASSERT_TRUE(gate.wait_entered(1)) << "drain never reached the compressor";
  EXPECT_THROW((void)mgr.stage(), config_error);
  EXPECT_THROW((void)mgr.checkpoint(), config_error);
  gate.open();  // only now may the drain finish; a refusal that had waited
                // for it would have run the gate into its deadline
  EXPECT_EQ(mgr.wait_drain(t0.version).version, t0.version);
  EXPECT_THROW((void)mgr.stage(), config_error) << "drained, not decided";
  EXPECT_EQ(mgr.versions_in_flight(), 1);

  mgr.commit_version(t0.version);
  const StageTicket t1 = mgr.stage();
  EXPECT_EQ(t1.version, t0.version + 1);
  mgr.abort_version(t1.version);
  EXPECT_EQ(mgr.checkpoint().version, t0.version + 2);
}

// ----- manager: variables compressed side by side --------------------------

/// Where codec calls meet: arrive() returns true once `want` calls have
/// arrived, and false at a 60 s deadline — a wait that long is a hang, not
/// a slow host, and fails the test instead of wedging the CTest run.
class Meeting {
 public:
  static constexpr auto kDeadline = std::chrono::seconds(60);

  explicit Meeting(int want) : want_(want) {}
  [[nodiscard]] bool arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(lock, kDeadline, [&] { return arrived_ >= want_; });
  }
  [[nodiscard]] int arrived() {
    const std::lock_guard<std::mutex> lock(mu_);
    return arrived_;
  }

 private:
  const int want_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

/// Compressor whose calls meet at a Meeting, then store the doubles
/// verbatim, or fail like a full disk on an input of `full_disk_elems`
/// doubles (0: never).
class MeetingCompressor final : public Compressor {
 public:
  explicit MeetingCompressor(Meeting& meeting, std::size_t full_disk_elems = 0)
      : meeting_(meeting), full_disk_elems_(full_disk_elems) {}

  [[nodiscard]] std::string name() const override { return "meeting"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override {
    if (!meeting_.arrive())
      throw corrupt_stream_error("meeting compressor: deadline expired");
    if (data.size() == full_disk_elems_.load())
      throw std::system_error(ENOSPC, std::generic_category(), "drain write");
    return none_.compress(data);
  }
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override {
    none_.decompress(stream, out);
  }
  void set_full_disk_elems(std::size_t n) { full_disk_elems_ = n; }

 private:
  Meeting& meeting_;
  NoneCompressor none_;
  std::atomic<std::size_t> full_disk_elems_;
};

TEST(AsyncManager, VariablesCompressSideBySide) {
  // Two one-chunk vectors: their chunks run side by side only if the drain
  // compresses across variables. Each call returns once both have started;
  // one after the other, the first would run into its deadline.
  if (drain_lanes() == 1) GTEST_SKIP() << "the drain writes on one lane";
  Meeting meeting(2);
  MeetingCompressor codec(meeting);
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &codec);
  Vector x = random_vector(64, 31);
  Vector y = random_vector(64, 32);
  const Vector want_x = x;
  const Vector want_y = y;
  mgr.protect(0, "x", &x);
  mgr.protect(1, "y", &y);
  mgr.commit_version(mgr.stage().version);
  EXPECT_EQ(meeting.arrived(), 2);
  x.assign(64, 0.0);
  y.assign(64, 0.0);
  mgr.recover();
  EXPECT_TRUE(bit_equal(x, want_x));
  EXPECT_TRUE(bit_equal(y, want_y));
}

TEST(AsyncManager, FullDiskOnOneVariableFailsTheDrainItCompressesIn) {
  // The codec fails like a full disk on y's 48 doubles and writes x's 64;
  // with two or more lanes, y's call fails only once x's has started beside
  // it. Every wait reports the full disk, not a corruption, and once the
  // disk has room the next stage() commits.
  Meeting meeting(drain_lanes() > 1 ? 2 : 1);
  MeetingCompressor codec(meeting, /*full_disk_elems=*/48);
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &codec);
  Vector x = random_vector(64, 41);
  Vector y = random_vector(48, 42);
  mgr.protect(0, "x", &x);
  mgr.protect(1, "y", &y);
  const StageTicket t = mgr.stage();
  for (int wait = 0; wait < 2; ++wait) {
    try {
      (void)mgr.wait_drain(t.version);
      ADD_FAILURE() << "wait " << wait << " returned";
    } catch (const std::system_error& e) {
      EXPECT_EQ(e.code(), std::errc::no_space_on_device) << "wait " << wait;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wait " << wait << " threw " << e.what();
    }
  }
  EXPECT_EQ(meeting.arrived(), 2) << "both variables reached the codec";
  mgr.abort_version(t.version);
  EXPECT_FALSE(mgr.store().has_pending(t.version));

  codec.set_full_disk_elems(0);
  const Vector want_x = x;
  const Vector want_y = y;
  const StageTicket t2 = mgr.stage();
  mgr.commit_version(t2.version);
  EXPECT_EQ(mgr.latest_version(), t2.version);
  x.assign(64, 0.0);
  y.assign(48, 0.0);
  mgr.recover();
  EXPECT_TRUE(bit_equal(x, want_x));
  EXPECT_TRUE(bit_equal(y, want_y));
}

// ----- manager: stopping a drain that is thrown away ------------------------

/// Compressor that, while held, polls throw_if_stop_requested() until the
/// drain is asked to stop or a deadline passes, and counts which of the two
/// ended each call; released, it stores the doubles verbatim. The deadline
/// keeps a broken stop path from wedging the CTest run: it fails the test
/// instead.
class StoppableCompressor final : public Compressor {
 public:
  static constexpr auto kDeadline = std::chrono::seconds(60);

  [[nodiscard]] std::string name() const override { return "stoppable"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override {
    if (!held_.load()) return none_.compress(data);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++entered_;
      threads_.insert(std::this_thread::get_id());
    }
    cv_.notify_all();
    const auto until = std::chrono::steady_clock::now() + kDeadline;
    while (std::chrono::steady_clock::now() < until) {
      try {
        throw_if_stop_requested();
      } catch (const stop_requested_error&) {
        stopped_.fetch_add(1);
        throw;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    expired_.fetch_add(1);
    throw corrupt_stream_error("stoppable compressor: deadline expired");
  }
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override {
    none_.decompress(stream, out);
  }

  void hold(bool held) { held_ = held; }
  /// Wait until `n` held calls have started; false at the deadline.
  [[nodiscard]] bool wait_entered(int n = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kDeadline, [&] { return entered_ >= n; });
  }
  /// Held calls started so far.
  [[nodiscard]] int entered() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }
  /// Held calls that ended on the stop request, and on the deadline.
  [[nodiscard]] int stopped() const { return stopped_.load(); }
  [[nodiscard]] int expired() const { return expired_.load(); }
  /// Distinct threads that ran a held call.
  [[nodiscard]] std::size_t threads() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  NoneCompressor none_;
  std::atomic<bool> held_{false};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  mutable std::set<std::thread::id> threads_;
  mutable std::atomic<int> stopped_{0};
  mutable std::atomic<int> expired_{0};
};

/// Per variable one 64-double chunk, and three full-size chunks. With more
/// than one lane, the drain runs the codec on helper lanes too in every
/// case but one 64-double variable.
const std::size_t kStopSizes[] = {64, 3 * kChunkElems};
/// One protected variable, and two.
const int kStopVars[] = {1, 2};

/// Files a drain left behind in a DiskStore directory: part-written
/// `.tmp` streams and sealed `.pending` ones.
std::vector<std::string> leftovers(const std::filesystem::path& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".tmp") != std::string::npos ||
        name.find(".pending") != std::string::npos)
      out.push_back(name);
  }
  return out;
}

/// Commit v0, stage v1 with the codec held, abort v1 once a held call runs
/// on every lane the drain uses: every held call must end on the stop, the
/// drain leave nothing pending, v0 stay the recovery point, and the next
/// stage() commit as usual.
void check_abort_stops_running_drain(std::unique_ptr<CheckpointStore> store,
                                     std::size_t n, int vars) {
  StoppableCompressor codec;
  std::vector<Vector> x(static_cast<std::size_t>(vars));
  CheckpointManager mgr(std::move(store), &codec);
  for (int k = 0; k < vars; ++k) {
    x[k] = random_vector(n, 11 + 10 * k);
    mgr.protect(k, std::to_string(k), &x[k]);
  }
  const std::vector<Vector> v0 = x;
  const StageTicket t0 = mgr.stage();
  mgr.commit_version(t0.version);

  for (int k = 0; k < vars; ++k) x[k] = random_vector(n, 12 + 10 * k);
  codec.hold(true);
  const StageTicket t1 = mgr.stage();
  const std::size_t chunks =
      static_cast<std::size_t>(vars) * ChunkGeometry(n, kChunkElems).count();
  const std::size_t lanes = std::min(drain_lanes(), chunks);
  ASSERT_TRUE(codec.wait_entered(static_cast<int>(lanes)))
      << "the drain's lanes never all reached the codec";
  mgr.abort_version(t1.version);
  EXPECT_EQ(codec.stopped(), codec.entered())
      << "a held call did not end on the stop";
  EXPECT_EQ(codec.expired(), 0) << "a codec call ran into its deadline";
  EXPECT_EQ(codec.threads(), lanes) << "the codec did not run on every lane";
  EXPECT_FALSE(mgr.store().has_pending(t1.version));
  EXPECT_EQ(mgr.versions_in_flight(), 0);
  EXPECT_EQ(mgr.latest_version(), t0.version);

  for (auto& v : x) v.assign(n, 0.0);
  EXPECT_EQ(mgr.recover().version, t0.version);
  for (int k = 0; k < vars; ++k)
    EXPECT_TRUE(bit_equal(x[k], v0[k])) << "variable " << k << " is not v0's";

  codec.hold(false);
  for (int k = 0; k < vars; ++k) x[k] = random_vector(n, 13 + 10 * k);
  const StageTicket t2 = mgr.stage();
  EXPECT_EQ(t2.version, t1.version + 1);
  mgr.commit_version(t2.version);
  EXPECT_EQ(mgr.latest_version(), t2.version);
}

TEST(AsyncManager, AbortStopsARunningDrain) {
  for (const int vars : kStopVars) {
    for (const std::size_t n : kStopSizes) {
      SCOPED_TRACE("MemoryStore, " + std::to_string(vars) + " × " +
                   std::to_string(n) + " doubles");
      check_abort_stops_running_drain(std::make_unique<MemoryStore>(), n,
                                      vars);
    }
  }
  for (const int vars : kStopVars) {
    for (const std::size_t n : kStopSizes) {
      SCOPED_TRACE("DiskStore, " + std::to_string(vars) + " × " +
                   std::to_string(n) + " doubles");
      const auto dir = std::filesystem::temp_directory_path() /
                       ("lckpt_async_stop_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir);
      check_abort_stops_running_drain(
          std::make_unique<DiskStore>(dir.string()), n, vars);
      EXPECT_EQ(leftovers(dir), std::vector<std::string>{});
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(AsyncManager, DestructionStopsARunningDrain) {
  for (const std::size_t n : kStopSizes) {
    SCOPED_TRACE(std::to_string(n) + " doubles");
    const auto dir = std::filesystem::temp_directory_path() /
                     ("lckpt_async_stop_dtor_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    StoppableCompressor codec;
    {
      Vector x = random_vector(n, 21);
      CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &codec);
      mgr.protect(0, "x", &x);
      mgr.commit_version(mgr.stage().version);
      codec.hold(true);
      (void)mgr.stage();
      ASSERT_TRUE(codec.wait_entered()) << "drain never reached the codec";
    }  // the destructor stops the drain, joins it and aborts v1
    EXPECT_GE(codec.stopped(), 1) << "the codec never saw the stop";
    EXPECT_EQ(codec.expired(), 0) << "a codec call ran into its deadline";
    EXPECT_EQ(leftovers(dir), std::vector<std::string>{});
    EXPECT_EQ(DiskStore(dir.string()).latest_version(), 0);
    std::filesystem::remove_all(dir);
  }
}

TEST(AsyncManager, DrainsStoppedCountsOnlyDrainsEndedByTheirStop) {
  obs::MetricsRegistry reg;
  const auto stopped = [&reg] {
    return reg.snapshot().counter("ckpt.drains_stopped");
  };
  StoppableCompressor codec;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &codec);
  mgr.set_observability({&reg, nullptr});
  Vector x(64, 1.0);
  mgr.protect(0, "x", &x);

  // A drain that had finished before its abort: nothing to stop.
  const StageTicket t0 = mgr.stage();
  (void)mgr.wait_drain(t0.version);
  mgr.abort_version(t0.version);
  EXPECT_EQ(stopped(), 0.0);

  codec.hold(true);
  const StageTicket t1 = mgr.stage();
  ASSERT_TRUE(codec.wait_entered()) << "drain never reached the codec";
  mgr.abort_version(t1.version);
  EXPECT_EQ(stopped(), 1.0);

  // Committed drains are never counted.
  codec.hold(false);
  mgr.commit_version(mgr.stage().version);
  EXPECT_EQ(stopped(), 1.0);

  // Nor is a drain that failed with an error of its own.
  ThrowingCompressor bad;
  CheckpointManager failing(std::make_unique<MemoryStore>(), &bad);
  failing.set_observability({&reg, nullptr});
  failing.protect(0, "x", &x);
  const StageTicket tf = failing.stage();
  EXPECT_THROW((void)failing.wait_drain(tf.version), corrupt_stream_error);
  failing.abort_version(tf.version);
  EXPECT_EQ(stopped(), 1.0);
}

// ----- stores: pending state across both backends ---------------------------

TEST(AsyncStore, DiskCommitIsRenameOnlyAndStalePendingIsSweptOnReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_async_disk_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DiskStore store(dir.string());
    store.write_pending(3, std::vector<byte_t>{1, 2});
    store.commit(3);  // rename .lck.pending -> .lck
    EXPECT_EQ(store.latest_version(), 3);
    EXPECT_EQ(store.read(3), (std::vector<byte_t>{1, 2}));

    store.write_pending(4, std::vector<byte_t>{9, 8, 7});
    EXPECT_TRUE(store.has_pending(4));
    EXPECT_EQ(store.latest_version(), 3);  // pending is invisible
  }  // "crash" with version 4 still pending
  {
    DiskStore reopened(dir.string());
    // The uncommitted leftover was swept; committed state is untouched.
    EXPECT_FALSE(reopened.has_pending(4));
    EXPECT_EQ(reopened.latest_version(), 3);
    EXPECT_THROW(reopened.commit(4), config_error);
  }
  std::filesystem::remove_all(dir);
}

TEST(AsyncStore, AbortDropsPendingWithoutTouchingCommitted) {
  MemoryStore store;
  store.write(0, std::vector<byte_t>{1});
  store.write_pending(1, std::vector<byte_t>{2});
  store.abort(1);
  EXPECT_FALSE(store.has_pending(1));
  EXPECT_EQ(store.latest_version(), 0);
  EXPECT_THROW(store.commit(1), config_error);
}

// ----- runner: async mode ---------------------------------------------------

ResilienceConfig async_config(CkptScheme scheme) {
  ResilienceConfig cfg;
  cfg.scheme = scheme;
  cfg.ckpt_mode = CkptMode::kAsync;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;  // aggressive failures for coverage
  cfg.iteration_seconds = 5.0;
  cfg.failure.seed = 7;
  cfg.dynamic_scale = 1.0;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  return cfg;
}

double true_rel_residual(const CsrMatrix& a, const Vector& b,
                         const Vector& x) {
  Vector r(b.size());
  a.residual(b, x, r);
  return norm2(r) / norm2(b);
}

class AsyncRunnerScheme : public ::testing::TestWithParam<CkptScheme> {};

TEST_P(AsyncRunnerScheme, ConvergesUnderFailures) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(GetParam());
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged) << to_string(GetParam());
  EXPECT_GT(res.failures, 0) << "test should exercise failures";
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Schemes, AsyncRunnerScheme,
                         ::testing::Values(CkptScheme::kTraditional,
                                           CkptScheme::kLossless,
                                           CkptScheme::kLossy),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(AsyncRunner, FailureDuringDrainFallsBackToCommittedVersion) {
  // Make every drain much longer than the checkpoint interval so failures
  // regularly strike inside drain windows; the run must keep converging by
  // recovering from older committed versions (and count the aborts).
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(CkptScheme::kTraditional);
  cfg.cluster.pfs_write_bw = 100.0;  // glacial PFS: drains span intervals
  cfg.failure.mtti_seconds = 120.0;
  cfg.failure.seed = 3;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.failures, 0);
  EXPECT_GT(res.aborted_drains, 0)
      << "config should force failures inside drain windows";
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7);
}

TEST(AsyncRunner, BackpressureAccruesWhenDrainOutlivesInterval) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(CkptScheme::kTraditional);
  cfg.failure.inject = false;
  cfg.cluster.pfs_write_bw = 100.0;  // drain ≫ interval ⇒ every stage waits
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  ASSERT_GT(res.checkpoints, 1);
  EXPECT_GT(res.backpressure_seconds_total, 0.0);
  // Blocking time decomposition stays exact under back-pressure.
  EXPECT_NEAR(res.virtual_seconds,
              static_cast<double>(res.executed_steps) * cfg.iteration_seconds +
                  res.ckpt_seconds_total + res.recovery_seconds_total,
              1e-9);
  // Only genuinely concurrent drain work counts as overlapped: it can
  // never exceed the iteration time it overlapped with, and the
  // back-pressured tails are charged as blocking time, not here.
  EXPECT_LE(res.ckpt_drain_seconds_total,
            static_cast<double>(res.executed_steps) * cfg.iteration_seconds);
}

TEST(AsyncRunner, BlockingCheckpointTimeDropsVsSync) {
  // The acceptance metric: same run, sync vs async — the blocking portion
  // (ckpt_seconds_total) must shrink, and the drain must move off the
  // critical path (shorter total virtual time).
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);

  ResilienceConfig sync_cfg = async_config(CkptScheme::kTraditional);
  sync_cfg.ckpt_mode = CkptMode::kSync;
  sync_cfg.failure.inject = false;
  auto s1 = p.make_solver();
  const auto sync_res = ResilientRunner(*s1, sync_cfg).run();

  ResilienceConfig async_cfg_ = async_config(CkptScheme::kTraditional);
  async_cfg_.failure.inject = false;
  auto s2 = p.make_solver();
  const auto async_res = ResilientRunner(*s2, async_cfg_).run();

  ASSERT_GT(sync_res.checkpoints, 0);
  ASSERT_GT(async_res.checkpoints, 0);
  EXPECT_LT(async_res.ckpt_seconds_total, 0.5 * sync_res.ckpt_seconds_total);
  EXPECT_LT(async_res.virtual_seconds, sync_res.virtual_seconds);
  EXPECT_GT(async_res.ckpt_drain_seconds_total, 0.0);
}

TEST(AsyncRunner, RecoveredStateMatchesSyncForSameCheckpointData) {
  // Recovery itself is mode-agnostic: a checkpoint drained asynchronously
  // restores exactly the state a synchronous checkpoint of the same values
  // would. (Verified at the manager layer bit-for-bit; here end-to-end.)
  const LocalProblem p = make_local_problem("jacobi", 6, 1e-8);

  auto sync_solver = p.make_solver();
  for (int i = 0; i < 40; ++i) sync_solver->step();
  NoneCompressor none;
  Vector sync_x = sync_solver->solution();

  auto async_solver = p.make_solver();
  for (int i = 0; i < 40; ++i) async_solver->step();
  Vector async_x = async_solver->solution();

  CheckpointManager sync_mgr(std::make_unique<MemoryStore>(), &none);
  sync_mgr.protect(0, "x", &sync_x);
  sync_mgr.checkpoint();

  CheckpointManager async_mgr(std::make_unique<MemoryStore>(), &none);
  async_mgr.protect(0, "x", &async_x);
  const StageTicket t = async_mgr.stage();
  async_mgr.wait_drain(t.version);
  async_mgr.commit_version(t.version);

  sync_x.assign(sync_x.size(), 0.0);
  async_x.assign(async_x.size(), 0.0);
  sync_mgr.recover();
  async_mgr.recover();
  EXPECT_EQ(sync_x, async_x);
}

TEST(AsyncRunner, BitStableAcrossRerunsForFixedSeed) {
  const LocalProblem p = make_local_problem("cg", 7, 1e-8);
  ResilienceConfig cfg = async_config(CkptScheme::kLossy);
  cfg.failure.seed = 31;

  auto s1 = p.make_solver();
  const auto r1 = ResilientRunner(*s1, cfg).run();
  auto s2 = p.make_solver();
  const auto r2 = ResilientRunner(*s2, cfg).run();

  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.executed_steps, r2.executed_steps);
  EXPECT_EQ(r1.checkpoints, r2.checkpoints);
  EXPECT_EQ(r1.aborted_drains, r2.aborted_drains);
  EXPECT_DOUBLE_EQ(r1.virtual_seconds, r2.virtual_seconds);
  EXPECT_DOUBLE_EQ(r1.ckpt_seconds_total, r2.ckpt_seconds_total);
  EXPECT_DOUBLE_EQ(r1.ckpt_drain_seconds_total, r2.ckpt_drain_seconds_total);
  // The recovered solver state itself is bit-stable.
  const Vector& x1 = s1->solution();
  const Vector& x2 = s2->solution();
  ASSERT_EQ(x1.size(), x2.size());
  for (std::size_t i = 0; i < x1.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x1[i]),
              std::bit_cast<std::uint64_t>(x2[i]));
}

TEST(AsyncRunner, RetentionTwoSurvivesAbortedDrains) {
  // retention=2 with pending versions: after an aborted drain the previous
  // committed version must still exist (never pruned out from under us).
  const LocalProblem p = make_local_problem("jacobi", 6, 1e-6);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(CkptScheme::kLossy);
  cfg.cluster.pfs_write_bw = 5e4;
  cfg.failure.mtti_seconds = 90.0;
  cfg.failure.seed = 19;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1.2e-6);
}

}  // namespace
}  // namespace lck
