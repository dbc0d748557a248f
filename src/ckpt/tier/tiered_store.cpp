#include "ckpt/tier/tiered_store.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/async_writer.hpp"
#include "ckpt/chunk/dedup_store.hpp"
#include "ckpt/frame_stream.hpp"
#include "ckpt/tier/partner_store.hpp"
#include "obs/metrics.hpp"

namespace lck {
namespace {

/// Upper bound on delta-chain walks inside the hierarchy. A real chain is
/// bounded by the manager's max_delta_chain; this only guards against a
/// corrupt blob whose base links form a loop.
constexpr int kMaxChainHops = 1024;

}  // namespace

TieredCheckpointStore::TieredCheckpointStore(std::vector<Level> levels,
                                             bool auto_promote)
    : levels_(std::move(levels)), auto_promote_(auto_promote) {
  require(!levels_.empty(), "tiered store: at least one level required");
  for (const auto& lv : levels_) {
    require(lv.store != nullptr, "tiered store: null level store");
    require(lv.spec.retention >= 1, "tiered store: retention must be >= 1");
    require(lv.spec.promote_every >= 1,
            "tiered store: promote_every must be >= 1");
  }
  committed_.resize(levels_.size());
  level_mu_.reserve(levels_.size());
  preloaded_.reserve(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    level_mu_.push_back(std::make_unique<std::mutex>());
    preloaded_.push_back(levels_[i].store->latest_version() >= 0);
  }
  // The promotion worker is created lazily by the first scheduled
  // promotion: a store whose promotions run on an external executor (the
  // service's shared pool) must never spawn its own thread.
}

TieredCheckpointStore::~TieredCheckpointStore() {
  // The promoter's destructor drains the queue before joining, and it is
  // the last-declared member, so jobs never touch dead levels. Reap first
  // so unfetched outcomes do not outlive the store. With an external
  // executor the drain waits for our in-flight tasks instead, so a shared
  // pool worker never runs against a destroyed store.
  if (promoter_ != nullptr || executor_ != nullptr) drain_promotions();
}

// ----- CheckpointStore interface --------------------------------------------

void TieredCheckpointStore::write(int version, std::span<const byte_t> data) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto base = peek_base_version(data))
      delta_base_[version] = *base;
    else
      delta_base_.erase(version);
    {
      const std::lock_guard<std::mutex> l0(*level_mu_[0]);
      levels_.front().store->write(version, data);
    }
    committed_.front().insert(version);
    if (obs_.metrics != nullptr) {
      obs_.metrics->add("tier.writes", 1.0,
                        {{"tier", levels_.front().spec.name}});
      obs_.metrics->observe("tier.write_bytes",
                            static_cast<double>(data.size()),
                            {{"tier", levels_.front().spec.name}});
    }
    prune_level_locked(0);
  }
  if (auto_promote_) schedule_promotions(version, data.size());
}

std::vector<byte_t> TieredCheckpointStore::read(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (int lv = 0; lv < level_count(); ++lv)
    if (committed_at_locked(lv, version)) {
      std::vector<byte_t> data;
      {
        const std::lock_guard<std::mutex> ll(
            *level_mu_[static_cast<std::size_t>(lv)]);
        data = levels_[static_cast<std::size_t>(lv)].store->read(version);
      }
      if (obs_.metrics != nullptr) {
        const std::string& tier =
            levels_[static_cast<std::size_t>(lv)].spec.name;
        obs_.metrics->add("tier.reads", 1.0, {{"tier", tier}});
        obs_.metrics->observe("tier.read_bytes",
                              static_cast<double>(data.size()),
                              {{"tier", tier}});
      }
      return data;
    }
  throw corrupt_stream_error("tiered store: no tier holds version " +
                             std::to_string(version));
}

bool TieredCheckpointStore::exists(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (int lv = 0; lv < level_count(); ++lv)
    if (committed_at_locked(lv, version)) return true;
  return false;
}

void TieredCheckpointStore::remove(int version) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;  // a stale in-flight promotion of this version must not land
  delta_base_.erase(version);
  for (std::size_t lv = 0; lv < levels_.size(); ++lv) {
    const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
    levels_[lv].store->remove(version);
    committed_[lv].erase(version);
  }
}

int TieredCheckpointStore::latest_version() const {
  const std::lock_guard<std::mutex> lock(mu_);
  int latest = -1;
  for (std::size_t lv = 0; lv < levels_.size(); ++lv) {
    if (!committed_[lv].empty())
      latest = std::max(latest, *committed_[lv].rbegin());
    if (preloaded_[lv]) {
      const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
      latest = std::max(latest, levels_[lv].store->latest_version());
    }
  }
  return latest;
}

void TieredCheckpointStore::write_pending(int version,
                                          std::span<const byte_t> data) {
  {
    // The base link is recorded now (the data is at hand); if the version
    // aborts, abort() retires the entry again.
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto base = peek_base_version(data))
      delta_base_[version] = *base;
    else
      delta_base_.erase(version);
    pending_bytes_[version] = data.size();
  }
  // Runs on the async drain thread. The L1 backend's pending protocol is
  // thread-safe against committed-side reads by contract; the level lock
  // keeps it clear of concurrent committed-side mutations too.
  const std::lock_guard<std::mutex> ll(*level_mu_[0]);
  levels_.front().store->write_pending(version, data);
}

void TieredCheckpointStore::commit(int version) {
  std::size_t weight = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    {
      const std::lock_guard<std::mutex> l0(*level_mu_[0]);
      levels_.front().store->commit(version);
    }
    committed_.front().insert(version);
    if (const auto it = pending_bytes_.find(version);
        it != pending_bytes_.end()) {
      weight = it->second;
      pending_bytes_.erase(it);
    }
    if (obs_.metrics != nullptr)
      obs_.metrics->add("tier.writes", 1.0,
                        {{"tier", levels_.front().spec.name}});
    prune_level_locked(0);
  }
  if (auto_promote_) schedule_promotions(version, weight);
}

void TieredCheckpointStore::abort(int version) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    delta_base_.erase(version);
    pending_bytes_.erase(version);
  }
  const std::lock_guard<std::mutex> ll(*level_mu_[0]);
  levels_.front().store->abort(version);
}

bool TieredCheckpointStore::has_pending(int version) const {
  const std::lock_guard<std::mutex> ll(*level_mu_[0]);
  return levels_.front().store->has_pending(version);
}

// ----- hierarchy introspection ----------------------------------------------

const TierSpec& TieredCheckpointStore::spec(int level) const {
  require(level >= 0 && level < level_count(), "tiered store: bad level");
  return levels_[static_cast<std::size_t>(level)].spec;
}

bool TieredCheckpointStore::committed_at_locked(int level, int version) const {
  const auto lv = static_cast<std::size_t>(level);
  // The set is the source of truth for versions written through this store;
  // the backend fallback only makes a reopened (pre-populated) DiskStore
  // tier readable without replaying its history — see preloaded_.
  if (committed_[lv].contains(version)) return true;
  if (!preloaded_[lv]) return false;
  const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
  return levels_[lv].store->exists(version);
}

int TieredCheckpointStore::level_of(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (int lv = 0; lv < level_count(); ++lv)
    if (committed_at_locked(lv, version)) return lv;
  return -1;
}

bool TieredCheckpointStore::exists_at(int level, int version) const {
  require(level >= 0 && level < level_count(), "tiered store: bad level");
  const std::lock_guard<std::mutex> lock(mu_);
  return committed_at_locked(level, version);
}

const CheckpointStore& TieredCheckpointStore::store_at(int level) const {
  require(level >= 0 && level < level_count(), "tiered store: bad level");
  return *levels_[static_cast<std::size_t>(level)].store;
}

int TieredCheckpointStore::latest_version_at(int level) const {
  require(level >= 0 && level < level_count(), "tiered store: bad level");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto lv = static_cast<std::size_t>(level);
  int latest = committed_[lv].empty() ? -1 : *committed_[lv].rbegin();
  if (preloaded_[lv]) {
    const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
    latest = std::max(latest, levels_[lv].store->latest_version());
  }
  return latest;
}

// ----- severity model -------------------------------------------------------

void TieredCheckpointStore::invalidate(FailureSeverity severity) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;  // in-flight promotions must not republish destroyed data
  if (obs_.metrics != nullptr)
    obs_.metrics->add("tier.invalidations", 1.0,
                      {{"severity", to_string(severity)}});
  for (std::size_t lv = 0; lv < levels_.size(); ++lv) {
    Level& level = levels_[lv];
    const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
    if (severity > level.spec.survives) {
      if (obs_.metrics != nullptr && !committed_[lv].empty())
        obs_.metrics->add("tier.versions_destroyed",
                          static_cast<double>(committed_[lv].size()),
                          {{"tier", level.spec.name}});
      // Tier destroyed. Per-tier pruning keeps the backend in sync with
      // the committed set, so dropping the (<= retention-sized) set is the
      // whole job — except for a preloaded backend, whose pre-construction
      // contents must be swept by exhaustion once (it cannot enumerate).
      for (const int v : committed_[lv]) level.store->remove(v);
      committed_[lv].clear();
      if (preloaded_[lv]) {
        const int hi = level.store->latest_version();
        for (int v = 0; v <= hi; ++v) level.store->remove(v);
        preloaded_[lv] = false;  // backend now empty; fallback closed
      }
    } else if (severity == FailureSeverity::kNode) {
      // The tier survives a node loss *because* of its redundancy; make the
      // loss real so reads reconstruct from the surviving pieces.
      if (auto* partner = dynamic_cast<PartnerStore*>(level.store.get()))
        partner->fail_node(PartnerStore::kLocalHalf);
    }
  }
  // Base links of versions no surviving tier holds are dead; retire them so
  // repeated failures cannot grow the map for the life of the store.
  std::erase_if(delta_base_, [this](const auto& e) {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      if (committed_[l].contains(e.first)) return false;
      if (preloaded_[l]) {
        const std::lock_guard<std::mutex> lp(*level_mu_[l]);
        if (levels_[l].store->exists(e.first)) return false;
      }
    }
    return true;
  });
}

// ----- promotion ------------------------------------------------------------

int TieredCheckpointStore::delta_base_locked(int version) const {
  const auto it = delta_base_.find(version);
  return it != delta_base_.end() ? it->second : -1;
}

void TieredCheckpointStore::prune_level_locked(int level) {
  const auto lv = static_cast<std::size_t>(level);
  auto& set = committed_[lv];
  const int keep = levels_[lv].spec.retention;
  if (static_cast<int>(set.size()) <= keep) return;

  // Retention counts the newest `keep` versions, but a delta chain's bases
  // must outlive every retained version that references them: dropping a
  // base from this tier would leave its dependants unrecoverable here.
  std::set<int> live;
  int roots = 0;
  for (auto it = set.rbegin(); it != set.rend() && roots < keep;
       ++it, ++roots) {
    int v = *it;
    while (v >= 0 && !live.contains(v)) {
      live.insert(v);
      v = delta_base_locked(v);
    }
  }

  std::vector<int> victims;
  {
    const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
    for (auto it = set.begin(); it != set.end();) {
      if (live.contains(*it)) {
        ++it;
        continue;
      }
      levels_[lv].store->remove(*it);
      victims.push_back(*it);
      it = set.erase(it);
    }
  }
  // A version pruned from its last tier can never be a chain base again;
  // retire its base-link entry so the map stays bounded over long runs. A
  // preloaded backend can serve versions outside the committed sets, so ask
  // it per victim rather than skipping the sweep wholesale.
  for (const int v : victims) {
    bool resident = false;
    for (std::size_t l = 0; l < levels_.size() && !resident; ++l) {
      resident = committed_[l].contains(v);
      if (!resident && preloaded_[l]) {
        const std::lock_guard<std::mutex> lp(*level_mu_[l]);
        resident = levels_[l].store->exists(v);
      }
    }
    if (!resident) delta_base_.erase(v);
  }
}

bool TieredCheckpointStore::promote_locked(int version, int level,
                                           int depth) {
  const auto lv = static_cast<std::size_t>(level);
  if (committed_[lv].contains(version)) return true;  // already promoted
  if (depth > kMaxChainHops) return false;            // corrupt base loop
  int src = -1;
  for (int i = level - 1; i >= 0; --i)
    if (committed_at_locked(i, version)) {
      src = i;
      break;
    }
  if (src < 0) return false;  // source invalidated or pruned meanwhile
  // A delta version is only recoverable at the target tier alongside its
  // chain bases; copy them first (deepest first), so the tier never holds
  // a dangling delta. A base that no longer exists anywhere below is a
  // best-effort skip — reads fall back across tiers per version.
  if (const int base = delta_base_locked(version); base >= 0)
    promote_locked(base, level, depth + 1);
  std::vector<byte_t> data;
  {
    const std::lock_guard<std::mutex> ls(
        *level_mu_[static_cast<std::size_t>(src)]);
    data = levels_[static_cast<std::size_t>(src)].store->read(version);
  }
  {
    const std::lock_guard<std::mutex> ld(*level_mu_[lv]);
    levels_[lv].store->write(version, data);
  }
  committed_[lv].insert(version);
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("tier.promotes", 1.0,
                      {{"tier", levels_[lv].spec.name}});
    obs_.metrics->observe("tier.promote_bytes",
                          static_cast<double>(data.size()),
                          {{"tier", levels_[lv].spec.name}});
  }
  prune_level_locked(level);
  return true;
}

bool TieredCheckpointStore::promote_now(int version, int level) {
  require(level >= 1 && level < level_count(),
          "tiered store: promotion level must be in [1, levels)");
  const std::lock_guard<std::mutex> lock(mu_);
  return promote_locked(version, level);
}

void TieredCheckpointStore::promote_background(int version, int level,
                                               int depth) {
  if (depth > kMaxChainHops) return;  // corrupt base loop
  const auto lv = static_cast<std::size_t>(level);
  std::uint64_t epoch = 0;
  int src = -1;
  int base = -1;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (committed_[lv].contains(version)) return;  // already promoted
    epoch = epoch_;
    for (int i = level - 1; i >= 0; --i)
      if (committed_at_locked(i, version)) {
        src = i;
        break;
      }
    base = delta_base_locked(version);
  }
  if (src < 0) return;  // source invalidated or pruned meanwhile
  // Chain bases first (deepest first): the target tier must never hold a
  // delta whose bases it cannot also serve.
  if (base >= 0) promote_background(base, level, depth + 1);

  // Copy outside mu_ so slow interconnect/PFS backends never stall L1
  // traffic; the per-level locks serialize against same-tier access only.
  std::vector<byte_t> data;
  try {
    const std::lock_guard<std::mutex> ls(
        *level_mu_[static_cast<std::size_t>(src)]);
    data = levels_[static_cast<std::size_t>(src)].store->read(version);
  } catch (...) {  // pruned between the decision and the read: benign skip
    return;
  }
  try {
    const std::lock_guard<std::mutex> ld(*level_mu_[lv]);
    levels_[lv].store->write(version, data);
  } catch (...) {  // destination tier failed; lower tiers still hold it
    const std::lock_guard<std::mutex> lock(mu_);
    ++failed_promotions_;
    return;
  }

  const std::lock_guard<std::mutex> lock(mu_);
  if (epoch_ != epoch) {
    // invalidate()/remove() ran while we copied: the blob we just wrote
    // describes a world that no longer exists — take it back out.
    const std::lock_guard<std::mutex> ld(*level_mu_[lv]);
    levels_[lv].store->remove(version);
    return;
  }
  committed_[lv].insert(version);
  prune_level_locked(level);
}

void TieredCheckpointStore::reap_finished_locked() {
  // Promotion jobs never throw (errors are counted in failed_promotions_),
  // so waiting on a finished key returns immediately and cannot rethrow.
  while (promoter_ != nullptr && !finished_keys_.empty()) {
    const int key = finished_keys_.front();
    finished_keys_.pop_front();
    (void)promoter_->wait(key);
  }
}

void TieredCheckpointStore::run_promotion_pass(int version) {
  for (int lv = 1; lv < level_count(); ++lv) {
    if (version % levels_[static_cast<std::size_t>(lv)].spec.promote_every !=
        0)
      continue;
    promote_background(version, lv);
  }
}

void TieredCheckpointStore::schedule_promotions(int version,
                                                std::size_t weight) {
  std::unique_lock<std::mutex> lock(mu_);
  reap_finished_locked();
  // Back-pressure: a commit that would exceed the in-flight bound waits for
  // the promotion worker instead of queueing unbounded staged copies.
  promo_cv_.wait(lock, [&] { return promo_in_flight_ < max_inflight_; });
  ++promo_in_flight_;
  const int key = promo_seq_++;
  if (executor_ == nullptr && promoter_ == nullptr)
    promoter_ = std::make_unique<AsyncCheckpointWriter>();
  lock.unlock();

  if (executor_ != nullptr) {
    executor_->submit(fair_key_, weight, [this, version] {
      run_promotion_pass(version);
      // Decrement and notify under the lock: the destructor's drain may be
      // waiting on promo_in_flight_ == 0, and once it returns the store —
      // and this condition variable — are gone. After the unlock a pool
      // worker touches nothing of `this`.
      const std::lock_guard<std::mutex> lock(mu_);
      --promo_in_flight_;
      promo_cv_.notify_all();
    });
    return;
  }

  promoter_->submit(key, [this, version, key] {
    run_promotion_pass(version);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --promo_in_flight_;
      finished_keys_.push_back(key);
    }
    promo_cv_.notify_all();
    CheckpointRecord rec;
    rec.version = version;
    return rec;
  });
}

void TieredCheckpointStore::drain_promotions() {
  std::unique_lock<std::mutex> lock(mu_);
  promo_cv_.wait(lock, [&] { return promo_in_flight_ == 0; });
  reap_finished_locked();
}

std::size_t TieredCheckpointStore::promotions_in_flight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return promo_in_flight_;
}

void TieredCheckpointStore::set_max_inflight_promotions(std::size_t n) {
  require(n >= 1, "tiered store: promotion bound must be >= 1");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    max_inflight_ = n;
  }
  promo_cv_.notify_all();
}

void TieredCheckpointStore::set_observability(obs::Sink sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  obs_ = sink;
  for (std::size_t lv = 0; lv < levels_.size(); ++lv) {
    const std::lock_guard<std::mutex> ll(*level_mu_[lv]);
    levels_[lv].store->set_observability(sink);
  }
}

std::size_t TieredCheckpointStore::failed_promotions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_promotions_;
}

void TieredCheckpointStore::set_promotion_executor(PromotionExecutor* exec,
                                                   int fair_key) {
  require(exec != nullptr, "tiered store: null promotion executor");
  const std::lock_guard<std::mutex> lock(mu_);
  require(promoter_ == nullptr && promo_in_flight_ == 0,
          "tiered store: install the promotion executor before any traffic");
  executor_ = exec;
  fair_key_ = fair_key;
}

// ----- canonical 3-level factory --------------------------------------------

std::unique_ptr<TieredCheckpointStore> make_tiered_store(
    int retention, int l2_promote_every, int l3_promote_every,
    const std::string& pfs_dir, bool auto_promote) {
  std::vector<TieredCheckpointStore::Level> levels;
  levels.push_back({TierSpec{"L1-local", FailureSeverity::kProcess, retention,
                             1},
                    std::make_unique<MemoryStore>()});
  levels.push_back({TierSpec{"L2-partner", FailureSeverity::kNode, retention,
                             l2_promote_every},
                    std::make_unique<PartnerStore>()});
  // The PFS tier is content-addressed: chunks identical across versions —
  // and across runs, when `pfs_dir` persists the chunk index — are stored
  // once (see dedup_store.hpp). Non-delta blobs pass through verbatim.
  auto pfs = std::make_unique<DedupChunkStore>(pfs_dir);
  levels.push_back({TierSpec{"L3-pfs", FailureSeverity::kSystem, retention,
                             l3_promote_every},
                    std::move(pfs)});
  return std::make_unique<TieredCheckpointStore>(std::move(levels),
                                                 auto_promote);
}

}  // namespace lck
