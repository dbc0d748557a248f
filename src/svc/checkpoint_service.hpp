#pragma once
/// \file checkpoint_service.hpp
/// \brief Multi-tenant checkpoint service: one shared content-addressed L3
///        (DedupChunkStore) serving N concurrent solver jobs, each isolated
///        in its own namespace.
///
///   job 0 ── L1 Memory ─ L2 Partner ─┐
///   job 1 ── L1 Memory ─ L2 Partner ─┼── NamespaceStore ── shared L3
///   ...                              │   (key = id·S+v)    DedupChunkStore
///   job N ── L1 Memory ─ L2 Partner ─┘                     + per-job metrics
///
/// Every job gets its own TieredCheckpointStore (private L1/L2, each tier
/// keeping TierSpec's default retention, as the runner's built-in stack
/// does) whose L3 level is a namespace view over the one shared
/// DedupChunkStore: job j's version v is stored under key
/// j·kNamespaceStride + v, so prune/invalidate in one namespace can never
/// touch another job's versions, while identical chunk payloads across
/// jobs — the common static problem state — are stored once (cross-job
/// dedup).
///
/// The service starts no thread and adds no throttle: open_job() never
/// blocks, and the shared L3 serializes its chunk and skeleton writes
/// under its own mutex. Every job stack is caller-driven, so its owner
/// decides which versions reach L3 — a ResilientRunner promotes at its
/// tiered.* cadence (through its policy) and executes the copies on its
/// virtual clock.
///
/// The service owns an always-on MetricsRegistry: global gauges
/// (svc.jobs_active, svc.l3_logical_bytes, svc.l3_physical_bytes) and
/// per-job labeled series (svc.l3_writes{job=...},
/// svc.l3_write_seconds{job=...}, svc.l3_write_bytes{job=...},
/// svc.dedup_hits{job=...}, svc.dedup_bytes_saved{job=...}) — a scheduler
/// can scrape metrics().to_prometheus() directly.
///
/// Lifetime discipline: stores made by a JobHandle borrow the service's
/// shared L3, so they must be destroyed before the handle closes,
/// and every handle must close before the service dies (the destructor
/// checks). The handles plug into ResilientRunner unchanged via
/// ResilienceConfig::store_factory.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ckpt/chunk/dedup_store.hpp"
#include "obs/metrics.hpp"

namespace lck::svc {

/// Per-job knobs for the store stack a JobHandle builds.
struct JobConfig {
  /// Metrics label value; "" derives "job<id>". open_job() refuses a name
  /// that obs::is_label_value() rejects.
  std::string name = "";
};

/// What one job has done to the shared tier (monotonic, per job).
struct JobStats {
  std::string name;
  std::uint64_t l3_writes = 0;
  std::uint64_t dedup_hits = 0;         ///< Chunk hits this job's writes made.
  std::uint64_t dedup_bytes_saved = 0;  ///< Bytes those hits avoided.
};

class CheckpointService;

/// One tenant's registration. Move-only RAII: closing (or destroying) the
/// handle releases the job's namespace bookkeeping — after all stores made
/// from it are gone.
class JobHandle {
 public:
  JobHandle() = default;
  JobHandle(JobHandle&& other) noexcept { swap(other); }
  JobHandle& operator=(JobHandle&& other) noexcept {
    if (this != &other) {
      close();
      swap(other);
    }
    return *this;
  }
  ~JobHandle() { close(); }

  JobHandle(const JobHandle&) = delete;
  JobHandle& operator=(const JobHandle&) = delete;

  [[nodiscard]] bool open() const noexcept { return svc_ != nullptr; }
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] std::string name() const;

  /// Builds this job's store stack: private L1 (memory) + L2 (partner) and
  /// the namespaced shared-L3 level, as a caller-driven
  /// TieredCheckpointStore (no background promotions), packaged for
  /// ResilienceConfig::store_factory: the runner executes promotions on its
  /// virtual clock; other owners call promote_now(). May be called again
  /// after discarding a stack — the namespace's surviving shared-L3
  /// versions are visible to the new stack (restart/recovery).
  [[nodiscard]] std::function<std::unique_ptr<CheckpointStore>()>
  store_factory() const;

  [[nodiscard]] JobStats stats() const;

  /// Release the job (idempotent). All stores made from this handle must
  /// already be destroyed.
  void close();

 private:
  friend class CheckpointService;
  JobHandle(CheckpointService* svc, int id) noexcept : svc_(svc), id_(id) {}
  void swap(JobHandle& other) noexcept {
    std::swap(svc_, other.svc_);
    std::swap(id_, other.id_);
  }

  CheckpointService* svc_ = nullptr;
  int id_ = -1;
};

class CheckpointService {
 public:
  /// Namespace width: job j owns shared-store keys
  /// [j·kNamespaceStride, (j+1)·kNamespaceStride), which is also the
  /// per-job version ceiling. open_job() rejects an id whose range would
  /// leave the int key space.
  static constexpr int kNamespaceStride = 1 << 16;

  /// The shared L3 is an in-memory DedupChunkStore.
  CheckpointService();
  ~CheckpointService();

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  /// Register a job; never blocks. Job ids are monotonic. Throws
  /// config_error for a name the job label cannot carry (JobConfig::name).
  [[nodiscard]] JobHandle open_job(JobConfig cfg = {});

  // ----- fleet introspection ------------------------------------------------
  [[nodiscard]] int jobs_active() const;
  [[nodiscard]] int jobs_opened() const;
  [[nodiscard]] JobStats job_stats(int job_id) const;

  /// The shared content-addressed tier (aggregate dedup accounting:
  /// physical_bytes(), logical_bytes(), dedup_hits(), ...).
  [[nodiscard]] const DedupChunkStore& l3() const { return *l3_; }

  /// Service-owned registry (always on): svc.* series plus everything the
  /// shared L3 records. Scrape with metrics().to_prometheus().
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  friend class JobHandle;
  class NamespaceStore;
  struct JobState;

  void close_job(int job_id);
  [[nodiscard]] std::unique_ptr<CheckpointStore> make_store_for(int job_id);
  [[nodiscard]] std::shared_ptr<JobState> state_of(int job_id) const;
  void refresh_gauges();

  obs::MetricsRegistry metrics_;
  std::unique_ptr<DedupChunkStore> l3_;

  mutable std::mutex mu_;
  std::map<int, std::shared_ptr<JobState>> jobs_;
  int next_job_id_ = 0;
};

}  // namespace lck::svc
