#include "ckpt/tier/tiered_store.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/chunk/dedup_store.hpp"
#include "ckpt/frame_stream.hpp"
#include "ckpt/tier/partner_store.hpp"
#include "obs/metrics.hpp"

namespace lck {
namespace {

/// Upper bound on delta-chain walks inside the hierarchy. A real chain is
/// bounded by the manager's max_delta_chain; this only guards against a
/// corrupt blob whose base links form a loop.
constexpr std::size_t kMaxChainHops = 1024;

VersionRecord record_blob(std::span<const byte_t> data) {
  return {peek_base_version(data).value_or(-1), data.size()};
}

}  // namespace

TieredCheckpointStore::TieredCheckpointStore(std::vector<Level> levels,
                                             bool auto_promote)
    : levels_(std::move(levels)), auto_promote_(auto_promote) {
  require(!levels_.empty(), "tiered store: at least one level required");
  for (const auto& lv : levels_) {
    require(lv.store != nullptr, "tiered store: null level store");
    require(obs::is_label_value(lv.spec.name),
            "tiered store: a level name cannot contain { } , = \" \\ or "
            "control bytes");
    require(lv.spec.retention >= 1, "tiered store: retention must be >= 1");
    require(lv.spec.promote_every >= 1,
            "tiered store: promote_every must be >= 1");
  }
  committed_.resize(levels_.size());
  planned_.resize(levels_.size());
  level_mu_.reserve(levels_.size());
  preloaded_.reserve(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    level_mu_.push_back(std::make_unique<std::mutex>());
    preloaded_.push_back(levels_[i].store->latest_version() >= 0);
  }
}

// ----- CheckpointStore interface --------------------------------------------

void TieredCheckpointStore::write(int version, std::span<const byte_t> data) {
  write_pending(version, data);
  commit(version);
}

std::vector<byte_t> TieredCheckpointStore::read(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const int lv = level_of_locked(version);
  if (lv < 0)
    throw corrupt_stream_error("tiered store: no tier holds version " +
                               std::to_string(version));
  std::vector<byte_t> data;
  {
    const std::lock_guard<std::mutex> ll(
        *level_mu_[static_cast<std::size_t>(lv)]);
    data = levels_[static_cast<std::size_t>(lv)].store->read(version);
  }
  if (obs_.metrics != nullptr) {
    const std::string& tier = levels_[static_cast<std::size_t>(lv)].spec.name;
    obs_.metrics->add("tier.reads", 1.0, {{"tier", tier}});
    obs_.metrics->observe("tier.read_bytes", static_cast<double>(data.size()),
                          {{"tier", tier}});
  }
  return data;
}

bool TieredCheckpointStore::exists(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return level_of_locked(version) >= 0;
}

void TieredCheckpointStore::remove(int version) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;  // a stale in-flight promotion of this version must not land
  records_.erase(version);
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
    // The record is taken now (the data is at hand); if the version
    // aborts, abort() retires it again.
    const std::lock_guard<std::mutex> lock(mu_);
    records_[version] = record_blob(data);
  }
  // Runs on the async drain thread. The L1 backend's pending protocol is
  // thread-safe against committed-side reads by contract; the level lock
  // keeps it clear of concurrent committed-side mutations too.
  const std::lock_guard<std::mutex> ll(*level_mu_[0]);
  levels_.front().store->write_pending(version, data);
}

void TieredCheckpointStore::commit(int version) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    {
      const std::lock_guard<std::mutex> l0(*level_mu_[0]);
      levels_.front().store->commit(version);
    }
    committed_.front().insert(version);
    if (obs_.metrics != nullptr) {
      const std::string& tier = levels_.front().spec.name;
      obs_.metrics->add("tier.writes", 1.0, {{"tier", tier}});
      // write_pending() recorded the stream's size.
      const auto rec = records_.find(version);
      if (rec != records_.end())
        obs_.metrics->observe("tier.write_bytes",
                              static_cast<double>(rec->second.bytes),
                              {{"tier", tier}});
    }
    prune_level_locked(0);
  }
  if (auto_promote_) schedule_promotions(version);
}

void TieredCheckpointStore::abort(int version) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    records_.erase(version);
  }
  const std::lock_guard<std::mutex> ll(*level_mu_[0]);
  levels_.front().store->abort(version);
}

bool TieredCheckpointStore::has_pending(int version) const {
  const std::lock_guard<std::mutex> ll(*level_mu_[0]);
  return levels_.front().store->has_pending(version);
}

// ----- hierarchy introspection ----------------------------------------------

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

int TieredCheckpointStore::level_of_locked(int version) const {
  for (int lv = 0; lv < level_count(); ++lv)
    if (committed_at_locked(lv, version)) return lv;
  return -1;
}

int TieredCheckpointStore::source_locked(int version, int level) const {
  for (int lv = level - 1; lv >= 0; --lv)
    if (committed_at_locked(lv, version)) return lv;
  return -1;
}

int TieredCheckpointStore::level_of(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return level_of_locked(version);
}

bool TieredCheckpointStore::exists_at(int level, int version) const {
  require(level >= 0 && level < level_count(), "tiered store: bad level");
  const std::lock_guard<std::mutex> lock(mu_);
  return committed_at_locked(level, version);
}

std::optional<VersionRecord> TieredCheckpointStore::record(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(version);
  if (it == records_.end()) return std::nullopt;
  return it->second;
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
    // Hops planned before the failure describe a hierarchy that is gone.
    planned_[lv].clear();
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
  // Records of versions no surviving tier holds are dead; retire them so
  // repeated failures cannot grow the map for the life of the store.
  std::erase_if(records_, [this](const auto& e) {
    return level_of_locked(e.first) < 0;
  });
}

// ----- promotion ------------------------------------------------------------

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
      const auto rec = records_.find(v);
      v = rec != records_.end() ? rec->second.base : -1;
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
  // retire its record so the map stays bounded over long runs. A preloaded
  // backend can serve versions outside the committed sets, so ask per
  // victim rather than skipping the sweep wholesale.
  for (const int v : victims)
    if (level_of_locked(v) < 0) records_.erase(v);
}

std::vector<PromotionHop> TieredCheckpointStore::plan_promotion(int version,
                                                                int level) {
  require(level >= 1 && level < level_count(),
          "tiered store: promotion level must be in [1, levels)");
  const auto lv = static_cast<std::size_t>(level);
  const std::lock_guard<std::mutex> lock(mu_);
  if (source_locked(version, level) < 0) return {};
  // A delta version is only recoverable at the target tier alongside its
  // chain bases, so the plan carries every base the tier lacks. A base the
  // tier holds or already expects had its own bases handled then; a base
  // with no record is no longer held anywhere — best effort, reads fall
  // back across tiers per version.
  std::vector<PromotionHop> hops;
  for (int v = version; v >= 0 && hops.size() <= kMaxChainHops;) {
    if (committed_at_locked(level, v) || planned_[lv].contains(v)) break;
    const auto it = records_.find(v);
    if (it == records_.end() && v != version) break;
    const VersionRecord rec =
        it != records_.end() ? it->second : VersionRecord{};
    hops.push_back({v, level, rec.bytes});
    v = rec.base;
  }
  std::reverse(hops.begin(), hops.end());  // deepest base first
  for (const PromotionHop& hop : hops) planned_[lv].insert(hop.version);
  return hops;
}

bool TieredCheckpointStore::promote(const PromotionHop& hop) {
  require(hop.level >= 1 && hop.level < level_count(),
          "tiered store: promotion level must be in [1, levels)");
  const auto lv = static_cast<std::size_t>(hop.level);
  std::uint64_t epoch = 0;
  int src = -1;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Unplanned since: invalidate() ran, and the hop describes a hierarchy
    // that no longer exists.
    if (planned_[lv].erase(hop.version) == 0) return false;
    if (committed_[lv].contains(hop.version)) return true;
    src = source_locked(hop.version, hop.level);
    if (src < 0) return false;  // source invalidated or pruned meanwhile
    epoch = epoch_;
  }

  // Copy outside mu_ so slow interconnect/PFS backends never stall L1
  // traffic; the per-level locks serialize against same-tier access only.
  std::vector<byte_t> data;
  try {
    const std::lock_guard<std::mutex> ls(
        *level_mu_[static_cast<std::size_t>(src)]);
    data = levels_[static_cast<std::size_t>(src)].store->read(hop.version);
  } catch (...) {  // pruned between the decision and the read: benign skip
    return false;
  }
  try {
    const std::lock_guard<std::mutex> ld(*level_mu_[lv]);
    levels_[lv].store->write(hop.version, data);
  } catch (...) {  // destination tier failed; lower tiers still hold it
    const std::lock_guard<std::mutex> lock(mu_);
    ++failed_promotions_;
    return false;
  }

  const std::lock_guard<std::mutex> lock(mu_);
  if (epoch_ != epoch) {
    // invalidate()/remove() ran while we copied: the blob we just wrote
    // describes a world that no longer exists — take it back out.
    const std::lock_guard<std::mutex> ld(*level_mu_[lv]);
    levels_[lv].store->remove(hop.version);
    return false;
  }
  committed_[lv].insert(hop.version);
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("tier.promotes", 1.0, {{"tier", levels_[lv].spec.name}});
    obs_.metrics->observe("tier.promote_bytes",
                          static_cast<double>(data.size()),
                          {{"tier", levels_[lv].spec.name}});
  }
  prune_level_locked(hop.level);
  return true;
}

bool TieredCheckpointStore::promote_now(int version, int level) {
  require(!auto_promote_,
          "tiered store: promote_now() is for caller-driven stores");
  for (const PromotionHop& hop : plan_promotion(version, level)) promote(hop);
  return exists_at(level, version);
}

void TieredCheckpointStore::run_promotion_pass(int version) {
  for (int lv = 1; lv < level_count(); ++lv) {
    if (version % levels_[static_cast<std::size_t>(lv)].spec.promote_every !=
        0)
      continue;
    for (const PromotionHop& hop : plan_promotion(version, lv)) promote(hop);
  }
}

void TieredCheckpointStore::schedule_promotions(int version) {
  std::unique_lock<std::mutex> lock(mu_);
  // Back-pressure: a commit that would exceed the in-flight bound waits for
  // the promotion worker instead of queueing unbounded staged copies.
  promo_cv_.wait(lock, [&] { return promo_in_flight_ < max_inflight_; });
  ++promo_in_flight_;
  if (promoter_ == nullptr) promoter_ = std::make_unique<SerialWorker>();
  SerialWorker* const promoter = promoter_.get();
  lock.unlock();

  promoter->submit([this, version] {
    bool ok = true;
    try {
      run_promotion_pass(version);
    } catch (...) {  // a failed copy is counted, never propagated
      ok = false;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (!ok) ++failed_promotions_;
    --promo_in_flight_;
    promo_cv_.notify_all();
  });
}

void TieredCheckpointStore::drain_promotions() {
  std::unique_lock<std::mutex> lock(mu_);
  promo_cv_.wait(lock, [&] { return promo_in_flight_ == 0; });
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

// ----- canonical 3-level factory --------------------------------------------

std::unique_ptr<TieredCheckpointStore> make_tiered_store(
    int retention, int l2_promote_every, int l3_promote_every,
    bool auto_promote) {
  std::vector<TieredCheckpointStore::Level> levels;
  levels.push_back({TierSpec{"L1-local", FailureSeverity::kProcess, retention,
                             1},
                    std::make_unique<MemoryStore>()});
  levels.push_back({TierSpec{"L2-partner", FailureSeverity::kNode, retention,
                             l2_promote_every},
                    std::make_unique<PartnerStore>()});
  // The PFS tier is content-addressed: chunks identical across versions are
  // stored once (see dedup_store.hpp). Non-delta blobs pass through
  // verbatim.
  levels.push_back({TierSpec{"L3-pfs", FailureSeverity::kSystem, retention,
                             l3_promote_every},
                    std::make_unique<DedupChunkStore>()});
  return std::make_unique<TieredCheckpointStore>(std::move(levels),
                                                 auto_promote);
}

}  // namespace lck
