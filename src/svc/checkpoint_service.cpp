#include "svc/checkpoint_service.hpp"

#include <limits>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_store.hpp"
#include "ckpt/tier/partner_store.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace lck::svc {

// ----- per-job state --------------------------------------------------------

/// Registration record plus the job's cumulative shared-tier counters.
/// Held by shared_ptr: NamespaceStores made for the job keep it alive even
/// if (misused) past close, and map erasure cannot dangle a reader.
struct CheckpointService::JobState {
  int id = -1;
  std::string name;

  mutable std::mutex mu;  ///< Guards the counters below.
  JobStats stats;         ///< stats.name duplicated for cheap copy-out.

  [[nodiscard]] JobStats snapshot() const {
    const std::lock_guard<std::mutex> lock(mu);
    return stats;
  }
};

// ----- namespace view over the shared L3 ------------------------------------

/// Job j's L3 level: translates its versions v into shared-store keys
/// j·stride + v and attributes dedup outcomes to the job. Plugs into a
/// per-job TieredCheckpointStore as an ordinary CheckpointStore, so the
/// tier logic (retention, promotion, severity) is reused unchanged — and
/// can only ever name keys inside [lo, hi), which is the
/// namespace-isolation guarantee.
class CheckpointService::NamespaceStore final : public CheckpointStore {
 public:
  NamespaceStore(CheckpointService* svc, std::shared_ptr<JobState> state)
      : svc_(svc),
        state_(std::move(state)),
        lo_(state_->id * kNamespaceStride),
        hi_(lo_ + kNamespaceStride) {}

  void write(int version, std::span<const byte_t> data) override {
    const WallTimer timer;
    const DedupWriteStats w = svc_->l3_->write_counted(key(version), data);
    const double write_seconds = timer.seconds();

    {
      const std::lock_guard<std::mutex> lock(state_->mu);
      JobStats& s = state_->stats;
      ++s.l3_writes;
      s.dedup_hits += w.hits;
      s.dedup_bytes_saved += w.bytes_saved;
    }
    obs::MetricsRegistry& m = svc_->metrics_;
    const obs::LabelSet job{{"job", state_->name}};
    m.add("svc.l3_writes", 1.0, job);
    m.observe("svc.l3_write_seconds", write_seconds, job);
    m.observe("svc.l3_write_bytes", static_cast<double>(data.size()), job);
    m.add("svc.dedup_hits", static_cast<double>(w.hits), job);
    m.add("svc.dedup_bytes_saved", static_cast<double>(w.bytes_saved), job);
    svc_->refresh_gauges();
  }

  [[nodiscard]] std::vector<byte_t> read(int version) const override {
    return svc_->l3_->read(key(version));
  }

  [[nodiscard]] bool exists(int version) const override {
    return svc_->l3_->exists(key(version));
  }

  void remove(int version) override { svc_->l3_->remove(key(version)); }

  [[nodiscard]] int latest_version() const override {
    // Enumerate only this namespace's key range: another job's newer
    // version must never leak into this job's recovery decision.
    const std::vector<int> mine = svc_->l3_->versions_in(lo_, hi_);
    return mine.empty() ? -1 : mine.back() - lo_;
  }

  /// The namespace level records into the service's registry above; a
  /// tenant-side sink (a runner's private registry) must not rebind the
  /// *shared* store's observability, so the forward stops here.
  void set_observability(obs::Sink /*sink*/) override {}

 private:
  [[nodiscard]] int key(int version) const {
    require(version >= 0 && version < hi_ - lo_,
            "namespace store: version outside the job's namespace stride");
    return lo_ + version;
  }

  CheckpointService* svc_;
  std::shared_ptr<JobState> state_;
  const int lo_;
  const int hi_;
};

// ----- service --------------------------------------------------------------

CheckpointService::CheckpointService()
    : l3_(std::make_unique<DedupChunkStore>()) {
  l3_->set_observability(obs::Sink{&metrics_, nullptr});
  refresh_gauges();
}

CheckpointService::~CheckpointService() {
  // Open handles (or stores) outliving the service would dangle; surface
  // the scope bug loudly instead of crashing later.
  const std::lock_guard<std::mutex> lock(mu_);
  if (!jobs_.empty())
    std::terminate();  // jobs must close before the service dies
}

JobHandle CheckpointService::open_job(JobConfig cfg) {
  require(obs::is_label_value(cfg.name),
          "svc: a job name cannot contain { } , = \" \\ or control bytes");
  std::unique_lock<std::mutex> lock(mu_);
  const int id = next_job_id_++;
  // The namespace [id·stride, (id+1)·stride) must fit in int keys.
  require(id < std::numeric_limits<int>::max() / kNamespaceStride,
          "svc: job namespace exceeds the shared store's key space");

  auto state = std::make_shared<JobState>();
  state->id = id;
  state->name =
      cfg.name.empty() ? "job" + std::to_string(id) : std::move(cfg.name);
  state->stats.name = state->name;
  jobs_.emplace(id, std::move(state));
  lock.unlock();

  refresh_gauges();
  return JobHandle(this, id);
}

void CheckpointService::close_job(int job_id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(job_id);
  }
  refresh_gauges();
}

std::shared_ptr<CheckpointService::JobState> CheckpointService::state_of(
    int job_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    throw config_error("svc: unknown or closed job id " +
                       std::to_string(job_id));
  return it->second;
}

std::unique_ptr<CheckpointStore> CheckpointService::make_store_for(
    int job_id) {
  const std::shared_ptr<JobState> state = state_of(job_id);

  // Each tier keeps TierSpec's default retention and promote_every: only a
  // self-promoting store reads the latter, and the job's owner decides
  // which versions it promotes.
  std::vector<TieredCheckpointStore::Level> levels;
  levels.push_back({TierSpec{"L1-local", FailureSeverity::kProcess},
                    std::make_unique<MemoryStore>()});
  levels.push_back({TierSpec{"L2-partner", FailureSeverity::kNode},
                    std::make_unique<PartnerStore>()});
  levels.push_back({TierSpec{"L3-pfs", FailureSeverity::kSystem},
                    std::make_unique<NamespaceStore>(this, state)});
  return std::make_unique<TieredCheckpointStore>(std::move(levels),
                                                 /*auto_promote=*/false);
}

JobStats CheckpointService::job_stats(int job_id) const {
  return state_of(job_id)->snapshot();
}

int CheckpointService::jobs_active() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(jobs_.size());
}

int CheckpointService::jobs_opened() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_job_id_;
}

void CheckpointService::refresh_gauges() {
  metrics_.set_gauge("svc.jobs_active", static_cast<double>(jobs_active()));
  metrics_.set_gauge("svc.l3_logical_bytes",
                     static_cast<double>(l3_->logical_bytes()));
  metrics_.set_gauge("svc.l3_physical_bytes",
                     static_cast<double>(l3_->physical_bytes()));
}

// ----- handle ---------------------------------------------------------------

std::string JobHandle::name() const {
  require(open(), "job handle: closed");
  return svc_->state_of(id_)->name;
}

std::function<std::unique_ptr<CheckpointStore>()> JobHandle::store_factory()
    const {
  require(open(), "job handle: closed");
  CheckpointService* svc = svc_;
  const int id = id_;
  return [svc, id] { return svc->make_store_for(id); };
}

JobStats JobHandle::stats() const {
  require(open(), "job handle: closed");
  return svc_->job_stats(id_);
}

void JobHandle::close() {
  if (svc_ != nullptr) {
    svc_->close_job(id_);
    svc_ = nullptr;
    id_ = -1;
  }
}

}  // namespace lck::svc
