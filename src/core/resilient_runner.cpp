#include "core/resilient_runner.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/tier/tiered_store.hpp"
#include "obs/metrics.hpp"
#include "obs/pass_counter.hpp"
#include "obs/trace.hpp"
#include "sim/perf_model.hpp"

namespace lck {

const char* to_string(CkptScheme s) noexcept {
  switch (s) {
    case CkptScheme::kTraditional: return "traditional";
    case CkptScheme::kLossless: return "lossless";
    case CkptScheme::kLossy: return "lossy";
  }
  return "?";
}

void ResilienceConfig::validate() const {
  std::string errors;
  const auto violation = [&errors](const char* msg) {
    if (!errors.empty()) errors += "; ";
    errors += msg;
  };
  if (!(policy.interval_seconds > 0.0))
    violation("policy.interval_seconds must be positive");
  if (!is_known_policy(policy.name))
    violation("policy.name must name a make_policy implementation "
              "(\"fixed\", \"young\" or \"adaptive\")");
  if (!(iteration_seconds > 0.0))
    violation("iteration_seconds must be positive");
  if (!(dynamic_scale > 0.0)) violation("dynamic_scale must be positive");
  if (!(static_bytes >= 0.0)) violation("static_bytes must be non-negative");
  if (!(failure.mtti_seconds > 0.0))
    violation("failure.mtti_seconds must be positive");
  double weight_sum = 0.0;
  bool weight_negative = false;
  for (const double w : failure.severity_weights) {
    if (w < 0.0) weight_negative = true;
    weight_sum += w;
  }
  if (weight_negative)
    violation("failure.severity_weights must be non-negative");
  else if (!(weight_sum > 0.999 && weight_sum < 1.001))
    violation("failure.severity_weights must sum to 1");
  if (failure.distribution != "exponential" &&
      failure.distribution != "weibull")
    violation("failure.distribution must be \"exponential\" or \"weibull\"");
  if (failure.distribution == "weibull") {
    if (!(failure.weibull_shape > 0.0))
      violation("failure.weibull_shape must be positive");
    if (!(failure.weibull_scale >= 0.0))
      violation("failure.weibull_scale must be non-negative");
  }
  if (tiered.l2_promote_every < 1)
    violation("tiered.l2_promote_every must be >= 1");
  if (tiered.l3_promote_every < 1)
    violation("tiered.l3_promote_every must be >= 1");
  if (tiered.retention < 1) violation("tiered.retention must be >= 1");
  if (delta.max_delta_chain < 0)
    violation("delta.max_delta_chain must be >= 0");
  if (delta.chunk_elems < 1 || delta.chunk_elems > kMaxChunkElems)
    violation("delta.chunk_elems must be in [1, 2^20]");
  if (max_steps < 1) violation("max_steps must be >= 1");
  // StreamingConfig knows its own constraints; fold its message into the
  // collected list so one throw still names every violation.
  try {
    streaming.validate();
  } catch (const config_error& e) {
    violation(e.what());
  }
  try {
    obs.validate();
  } catch (const config_error& e) {
    violation(e.what());
  }
  if (!errors.empty()) throw config_error(errors);
}

namespace {

ResilienceConfig validated(ResilienceConfig cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

ResilientRunner::ResilientRunner(IterativeSolver& solver, ResilienceConfig cfg)
    : solver_(solver),
      cfg_(validated(std::move(cfg))),
      injector_(cfg_.failure.mtti_seconds, cfg_.failure.seed,
                cfg_.failure.inject) {
  switch (cfg_.scheme) {
    case CkptScheme::kTraditional:
      compressor_ = std::make_unique<NoneCompressor>();
      break;
    case CkptScheme::kLossless:
      compressor_ = make_compressor(cfg_.compression.lossless);
      require(!compressor_->lossy(),
              "runner: lossless scheme given a lossy compressor");
      break;
    case CkptScheme::kLossy:
      compressor_ =
          make_compressor(cfg_.compression.lossy, cfg_.compression.lossy_eb);
      lossy_ = dynamic_cast<LossyCompressor*>(compressor_.get());
      require(lossy_ != nullptr,
              "runner: lossy scheme requires a lossy compressor");
      break;
  }
  // The Weibull switch re-arms from t = 0, so exponential runs keep their
  // exact historical draw sequence (the injector only consumes extra draws
  // when the model is enabled).
  if (cfg_.failure.distribution == "weibull" && cfg_.failure.inject) {
    const double scale =
        cfg_.failure.weibull_scale > 0.0
            ? cfg_.failure.weibull_scale
            : cfg_.failure.mtti_seconds /
                  std::tgamma(1.0 + 1.0 / cfg_.failure.weibull_shape);
    injector_.set_weibull(cfg_.failure.weibull_shape, scale);
  }
  std::unique_ptr<CheckpointStore> store;
  if (cfg_.store_factory) {
    // Externally-owned store stack (e.g. a CheckpointService job handle):
    // the caller decides tiers, namespaces and shared backends; the runner
    // only needs the tiered interface for its virtual promotion channel.
    store = cfg_.store_factory();
    require(store != nullptr, "runner: store_factory returned null");
    if (cfg_.ckpt_mode == CkptMode::kTiered) {
      tiered_ = dynamic_cast<TieredCheckpointStore*>(store.get());
      require(tiered_ != nullptr,
              "runner: tiered mode requires store_factory to yield a "
              "TieredCheckpointStore");
      injector_.set_severity_weights(cfg_.failure.severity_weights);
    }
  } else if (cfg_.ckpt_mode == CkptMode::kTiered) {
    // Canonical 3-level hierarchy with virtual-time promotion: the runner
    // itself issues promote_now() when the simulated background channel
    // finishes a copy, so runs are bit-stable regardless of host speed.
    auto tiered = make_tiered_store(cfg_.tiered.retention,
                                    cfg_.tiered.l2_promote_every,
                                    cfg_.tiered.l3_promote_every, "",
                                    /*auto_promote=*/false);
    tiered_ = tiered.get();
    store = std::move(tiered);
    injector_.set_severity_weights(cfg_.failure.severity_weights);
  } else {
    store = std::make_unique<MemoryStore>();
  }
  manager_ = std::make_unique<CheckpointManager>(std::move(store),
                                                 compressor_.get());
  // Keep the previous checkpoint until the new one commits, so a failure
  // mid-write cannot leave us without any recovery point. In tiered mode
  // retention is per tier (inside the store); the manager-level prune is
  // parked far away so it never fights the hierarchy.
  manager_->set_retention(cfg_.ckpt_mode == CkptMode::kTiered ? (1 << 28) : 2);
  manager_->set_streaming(cfg_.streaming);
  if (cfg_.delta.max_delta_chain > 0)
    manager_->set_delta(cfg_.delta.max_delta_chain, cfg_.delta.chunk_elems);
  register_variables();
  policy_ = make_policy(cfg_.policy.name, make_policy_context());
  if (cfg_.obs.metrics) metrics_ = std::make_unique<obs::MetricsRegistry>();
  if (cfg_.obs.trace)
    trace_ = std::make_unique<obs::TraceRecorder>(cfg_.obs.trace_max_events);
  sink_ = {metrics_.get(), trace_.get()};
  if (sink_.enabled()) manager_->set_observability(sink_);
}

ResilientRunner::~ResilientRunner() = default;

std::unique_ptr<obs::TraceRecorder> ResilientRunner::take_trace() noexcept {
  // The manager (and its async writer / stores) hold sink_ copies; tear the
  // trace pointer out of them before moving ownership so no component can
  // record into a recorder the caller may destroy.
  sink_.trace = nullptr;
  manager_->set_observability(sink_);
  return std::move(trace_);
}

PolicyContext ResilientRunner::make_policy_context() const {
  PolicyContext ctx;
  ctx.mode = cfg_.ckpt_mode;
  ctx.lambda = cfg_.failure.inject ? 1.0 / cfg_.failure.mtti_seconds : 0.0;
  ctx.fixed_interval_seconds = cfg_.policy.interval_seconds;

  // Cluster-scale raw bytes of one checkpoint: the lossy scheme saves only
  // x (Algorithm 2); the others save every dynamic vector.
  double raw = 0.0;
  if (cfg_.scheme == CkptScheme::kLossy) {
    raw = static_cast<double>(solver_.solution().size()) * sizeof(double);
  } else {
    for (const auto& var : solver_.checkpoint_vectors())
      raw += static_cast<double>(var.data->size()) * sizeof(double);
  }
  raw *= cfg_.dynamic_scale;

  // Ratio-1 (uncompressed) predictions — conservative; the adaptive policy
  // replaces them with observed costs as checkpoints commit.
  const double stored = raw;
  ctx.predicted_stored_bytes = stored;
  const double t_full = cfg_.cluster.write_seconds(stored) +
                        compress_cost(raw);
  switch (cfg_.ckpt_mode) {
    case CkptMode::kSync:
      ctx.predicted_blocking_seconds = t_full;
      ctx.predicted_drain_seconds = t_full;
      break;
    case CkptMode::kAsync:
      ctx.predicted_blocking_seconds = cfg_.cluster.stage_seconds(raw);
      ctx.predicted_drain_seconds = t_full;
      break;
    case CkptMode::kTiered:
      ctx.predicted_blocking_seconds = cfg_.cluster.stage_seconds(raw);
      ctx.predicted_drain_seconds =
          cfg_.cluster.local_write_seconds(stored) + compress_cost(raw);
      break;
  }
  ctx.l2_copy_seconds = cfg_.cluster.partner_write_seconds(stored);
  ctx.l3_copy_seconds = cfg_.cluster.write_seconds(stored);
  ctx.tier_lambdas =
      severity_tier_lambdas(ctx.lambda, cfg_.failure.severity_weights);
  ctx.l2_promote_every = cfg_.tiered.l2_promote_every;
  ctx.l3_promote_every = cfg_.tiered.l3_promote_every;
  return ctx;
}

void ResilientRunner::register_variables() {
  if (cfg_.scheme == CkptScheme::kLossy) {
    // Paper Algorithm 2 line 5: checkpoint i and the compressed x only.
    // Checkpoints read the solver's live solution directly (one blocking
    // copy into the staging slot, not two); x_buf_ is only recover()'s
    // restore target, handed to solver_.restart() afterwards.
    const Vector& live_x = solver_.solution();
    x_buf_.assign(live_x.size(), 0.0);
    manager_->protect(0, "x", &live_x, &x_buf_);
    manager_->protect_blob(1, "iter", &iter_blob_);
  } else {
    // Paper Algorithm 1 line 4: all dynamic vectors plus scalars.
    int id = 0;
    for (const auto& var : solver_.checkpoint_vectors())
      manager_->protect(id++, var.name, var.data);
    manager_->protect_blob(100, "scalars", &scalar_blob_);
  }
}

double ResilientRunner::compress_cost(double raw_bytes) const {
  if (cfg_.scheme == CkptScheme::kLossy)
    return cfg_.cluster.compress_seconds(raw_bytes);
  if (cfg_.scheme == CkptScheme::kLossless)
    return cfg_.cluster.lossless_compress_seconds(raw_bytes);
  return 0.0;
}

double ResilientRunner::decompress_cost(double raw_bytes) const {
  if (cfg_.scheme == CkptScheme::kLossy)
    return cfg_.cluster.decompress_seconds(raw_bytes);
  if (cfg_.scheme == CkptScheme::kLossless)
    return cfg_.cluster.lossless_decompress_seconds(raw_bytes);
  return 0.0;
}

double ResilientRunner::checkpoint_duration(
    const CheckpointRecord& rec) const {
  const double stored = static_cast<double>(rec.stored_bytes) *
                        cfg_.dynamic_scale;
  const double raw = static_cast<double>(rec.raw_bytes) * cfg_.dynamic_scale;
  return cfg_.cluster.write_seconds(stored) + compress_cost(raw);
}

double ResilientRunner::drain_duration(const CheckpointRecord& rec) const {
  if (cfg_.ckpt_mode != CkptMode::kTiered) return checkpoint_duration(rec);
  // Tiered L1 drain: compression plus a node-local write — the PFS is only
  // touched later, by the background promotion channel.
  const double stored = static_cast<double>(rec.stored_bytes) *
                        cfg_.dynamic_scale;
  const double raw = static_cast<double>(rec.raw_bytes) * cfg_.dynamic_scale;
  return cfg_.cluster.local_write_seconds(stored) + compress_cost(raw);
}

double ResilientRunner::recovery_duration(double stored_bytes,
                                          double raw_dynamic_bytes) const {
  // Recovery re-reads the checkpoint plus the static state (A, M, b) and
  // decompresses the dynamic payload — paper §5.3 (recovery > checkpoint).
  return cfg_.cluster.read_seconds(stored_bytes + cfg_.static_bytes) +
         decompress_cost(raw_dynamic_bytes);
}

void ResilientRunner::refresh_adaptive_bound() {
  if (lossy_ == nullptr || !cfg_.compression.adaptive_error_bound) return;
  const double eb = theorem3_gmres_error_bound(solver_.residual_norm(),
                                               solver_.rhs_norm(),
                                               cfg_.compression.adaptive_theta);
  lossy_->set_error_bound(ErrorBound::pointwise_rel(eb));
}

void ResilientRunner::capture_solver_state() {
  if (cfg_.scheme == CkptScheme::kLossy) {
    refresh_adaptive_bound();
    (void)solver_.solution();  // materialize x for basis-backed solvers
    ByteWriter bw;
    bw.put(static_cast<std::int64_t>(solver_.iteration()));
    iter_blob_ = std::move(bw).take();
  } else {
    (void)solver_.solution();  // materialize x for basis-backed solvers
    ByteWriter bw;
    solver_.save_scalars(bw);
    scalar_blob_ = std::move(bw).take();
  }
}

bool ResilientRunner::do_checkpoint() {
  capture_solver_state();
  const CheckpointRecord rec = manager_->checkpoint();
  const double duration = checkpoint_duration(rec);

  if (injector_.interrupts(t_, duration)) {
    // Failure mid-write: the new version must not be used for recovery.
    manager_->discard_version(rec.version);
    t_ = injector_.next_failure_time();
    handle_failure();
    return false;
  }

  t_ += duration;
  last_ckpt_t_ = t_;
  account_committed(rec);
  ++result_.checkpoints;
  result_.ckpt_seconds_total += duration;
  committed_blocking_total_ += duration;
  if (metrics_ != nullptr) {
    metrics_->add("ckpt.committed", 1.0);
    // Unlabeled series first: it accumulates the exact doubles (same values,
    // same order) as ckpt_seconds_total, so tests can assert bitwise
    // equality; the {kind=...} series is the per-cause breakdown.
    metrics_->observe("ckpt.blocking_seconds", duration);
    metrics_->observe("ckpt.blocking_seconds", duration, {{"kind", "sync"}});
    metrics_->observe("ckpt.stored_bytes", stored_bytes_last_);
  }
  if (trace_ != nullptr)
    trace_->complete("ckpt", "checkpoint", t_ - duration, t_,
                     {obs::TraceArg::num("version", rec.version),
                      obs::TraceArg::num("stored_bytes", stored_bytes_last_)});
  result_.mean_ckpt_stored_bytes += (stored_bytes_last_ -
                                     result_.mean_ckpt_stored_bytes) /
                                    result_.checkpoints;
  policy_->on_checkpoint_committed(duration, stored_bytes_last_);
  return true;
}

void ResilientRunner::account_committed(const CheckpointRecord& rec) {
  stored_bytes_last_ =
      static_cast<double>(rec.stored_bytes) * cfg_.dynamic_scale;
  raw_dyn_bytes_last_ =
      static_cast<double>(rec.raw_bytes) * cfg_.dynamic_scale;
  // A delta checkpoint's recovery re-reads its chain bases too.
  chain_stored_last_ = rec.base_version >= 0
                           ? chain_stored_last_ + stored_bytes_last_
                           : stored_bytes_last_;
  if (rec.base_version >= 0)
    result_.delta_bytes_total += stored_bytes_last_;
  else
    ++result_.full_checkpoints;
  result_.chunks_deduped += rec.chunks_deduped;
  if (metrics_ != nullptr) {
    if (rec.base_version >= 0)
      metrics_->add("ckpt.delta_stored_bytes", stored_bytes_last_);
    else
      metrics_->add("ckpt.full_checkpoints", 1.0);
    metrics_->add("ckpt.chunks_deduped",
                  static_cast<double>(rec.chunks_deduped));
  }
  // The codec's ratio is only observable on full checkpoints — a delta's
  // raw/stored quotient conflates chunk dedup with compression and would
  // credit the "none" codec with tens-of-x. Delta savings are reported
  // separately (delta_bytes_total, chunks_deduped).
  if (rec.base_version < 0 && rec.stored_bytes > 0)
    result_.compression_ratio = static_cast<double>(rec.raw_bytes) /
                                static_cast<double>(rec.stored_bytes);
}

// ----- async pipeline -------------------------------------------------------

bool ResilientRunner::ensure_drain_record() {
  if (pending_known_) return true;
  // Join the background drain (real time); its *virtual* window is
  // [drain_start_t_, drain_start_t_ + compress+write duration], entirely
  // overlapped with the iterations the solver kept executing.
  try {
    pending_rec_ = manager_->wait_drain(pending_version_);
  } catch (...) {
    // The drain itself failed (background compressor or store error). The
    // outcome is the same as a torn write: roll the version back and keep
    // running against the previous committed checkpoint.
    manager_->abort_version(pending_version_);
    ++result_.aborted_drains;
    if (metrics_ != nullptr) metrics_->add("ckpt.aborted_drains", 1.0);
    if (trace_ != nullptr)
      trace_->instant("drain", "drain-error", t_,
                      {obs::TraceArg::num("version", pending_version_)});
    pending_version_ = -1;
    pending_known_ = false;
    pending_blocking_ = 0.0;
    return false;
  }
  drain_end_t_ = drain_start_t_ + drain_duration(pending_rec_);
  pending_known_ = true;
  return true;
}

void ResilientRunner::commit_pending(double overlapped_drain_seconds) {
  if (!ensure_drain_record()) return;  // failed drain already rolled back
  // Matured promotions must land before this commit's L1 retention prune
  // can retire their source copy — otherwise a copy whose virtual window
  // already closed would silently never happen.
  if (tiered_ != nullptr) apply_promotions(t_);
  manager_->commit_version(pending_version_);
  account_committed(pending_rec_);
  if (tiered_ != nullptr) {
    version_bytes_[pending_version_] = {stored_bytes_last_,
                                        raw_dyn_bytes_last_,
                                        pending_rec_.base_version};
    // Only versions still resident in some tier can ever be recovered;
    // drop size entries older than the deepest possible retention window
    // so the map stays O(retention) over arbitrarily long runs. The window
    // follows the policy's *current* cadence; if an adaptive policy later
    // stretches it, recovery from an already-pruned entry falls back to the
    // last committed sizes (tiered_recovery_duration handles the miss).
    const int keep_span =
        cfg_.tiered.retention * std::max({1, cfg_.tiered.l2_promote_every,
                                          cfg_.tiered.l3_promote_every,
                                          policy_->l2_promote_every(),
                                          policy_->l3_promote_every()}) +
        cfg_.delta.max_delta_chain + 1;
    version_bytes_.erase(
        version_bytes_.begin(),
        version_bytes_.lower_bound(pending_version_ - keep_span));
    for (auto& scheduled : scheduled_promos_)
      scheduled.erase(scheduled.begin(),
                      scheduled.lower_bound(pending_version_ - keep_span));
    // The version became durable at L1 when its drain window closed; the
    // background channel starts its L2/L3 hops no earlier than that.
    schedule_virtual_promotions(pending_version_, stored_bytes_last_,
                                drain_end_t_);
  }
  ++result_.checkpoints;
  result_.ckpt_drain_seconds_total += overlapped_drain_seconds;
  committed_blocking_total_ += pending_blocking_;
  result_.mean_ckpt_stored_bytes += (stored_bytes_last_ -
                                     result_.mean_ckpt_stored_bytes) /
                                    result_.checkpoints;
  policy_->on_checkpoint_committed(pending_blocking_, stored_bytes_last_);
  if (metrics_ != nullptr) {
    metrics_->add("ckpt.committed", 1.0);
    metrics_->observe("ckpt.drain_overlap_seconds", overlapped_drain_seconds);
    metrics_->observe("ckpt.stored_bytes", stored_bytes_last_);
  }
  if (trace_ != nullptr)
    trace_->complete(
        "drain", "drain", drain_start_t_, drain_end_t_,
        {obs::TraceArg::num("version", pending_version_),
         obs::TraceArg::num("stored_bytes", stored_bytes_last_),
         obs::TraceArg::num("overlap_seconds", overlapped_drain_seconds)});
  pending_version_ = -1;
  pending_known_ = false;
  pending_blocking_ = 0.0;
}

void ResilientRunner::settle_pending_at_failure() {
  if (pending_version_ < 0) return;
  if (!ensure_drain_record()) return;  // failed drain already rolled back
  if (t_ <= drain_end_t_) {
    // The failure struck while the drain was still writing: the pending
    // version is torn and recovery must use the previous committed one.
    manager_->abort_version(pending_version_);
    ++result_.aborted_drains;
    if (metrics_ != nullptr) metrics_->add("ckpt.aborted_drains", 1.0);
    if (trace_ != nullptr)
      trace_->complete("drain", "drain-aborted", drain_start_t_, t_,
                       {obs::TraceArg::num("version", pending_version_)});
    pending_version_ = -1;
    pending_known_ = false;
  } else {
    // The drain had already finished when the failure struck; all of it
    // ran concurrently with iterations.
    commit_pending(drain_end_t_ - drain_start_t_);
  }
}

void ResilientRunner::finish_pending_at_exit() {
  if (pending_version_ < 0) return;
  // The solver converged while the last drain was still in flight. The
  // application is done; the drain completes harmlessly in the background
  // (a failure after convergence rolls nothing back), so commit it without
  // extending the virtual clock. Only the part of the drain that ran
  // before convergence overlapped iterations; the tail past t_ did not.
  if (!ensure_drain_record()) return;  // failed drain already rolled back
  commit_pending(std::min(drain_end_t_, t_) - drain_start_t_);
  // Promotions that virtually completed before the run ended are counted;
  // the rest would finish harmlessly after the application exits.
  if (tiered_ != nullptr) apply_promotions(t_);
}

bool ResilientRunner::do_stage() {
  // Promotions whose virtual window has already closed are durable now, so
  // a failure later this interval can recover from them.
  if (tiered_ != nullptr) apply_promotions(t_);
  // Back-pressure (FTI semantics): a new checkpoint may not stage while the
  // previous drain is unfinished — the wait blocks the virtual clock.
  if (pending_version_ >= 0 && ensure_drain_record()) {
    // The drain work done up to this request ran overlapped; any remainder
    // is back-pressure the solver pays for as blocking time.
    const double overlapped =
        std::min(drain_end_t_, t_) - drain_start_t_;
    if (drain_end_t_ > t_) {
      const double wait = drain_end_t_ - t_;
      if (injector_.interrupts(t_, wait)) {
        t_ = injector_.next_failure_time();
        handle_failure();  // aborts the pending drain (t_ <= drain end)
        return false;
      }
      t_ += wait;
      result_.ckpt_seconds_total += wait;
      result_.backpressure_seconds_total += wait;
      pending_blocking_ += wait;  // charged to the drain being waited on
      if (metrics_ != nullptr) {
        metrics_->observe("ckpt.blocking_seconds", wait);
        metrics_->observe("ckpt.blocking_seconds", wait,
                          {{"kind", "backpressure"}});
      }
      if (trace_ != nullptr)
        trace_->complete("ckpt", "backpressure", t_ - wait, t_,
                         {obs::TraceArg::num("version", pending_version_)});
    }
    commit_pending(overlapped);
  }

  capture_solver_state();
  const StageTicket ticket = manager_->stage();
  const double stage_duration = cfg_.cluster.stage_seconds(
      static_cast<double>(ticket.raw_bytes) * cfg_.dynamic_scale);

  if (injector_.interrupts(t_, stage_duration)) {
    // Failure mid-stage: the node-local snapshot is torn, so the version is
    // rolled back before it could ever become a recovery point.
    manager_->abort_version(ticket.version);
    ++result_.aborted_drains;
    if (metrics_ != nullptr) metrics_->add("ckpt.aborted_drains", 1.0);
    if (trace_ != nullptr)
      trace_->instant("ckpt", "stage-torn", t_,
                      {obs::TraceArg::num("version", ticket.version)});
    t_ = injector_.next_failure_time();
    handle_failure();
    return false;
  }

  t_ += stage_duration;
  last_ckpt_t_ = t_;
  result_.ckpt_seconds_total += stage_duration;
  if (metrics_ != nullptr) {
    metrics_->observe("ckpt.blocking_seconds", stage_duration);
    metrics_->observe("ckpt.blocking_seconds", stage_duration,
                      {{"kind", "stage"}});
  }
  if (trace_ != nullptr)
    trace_->complete("ckpt", "stage", t_ - stage_duration, t_,
                     {obs::TraceArg::num("version", ticket.version)});
  pending_version_ = ticket.version;
  pending_known_ = false;
  pending_blocking_ = stage_duration;
  drain_start_t_ = t_;
  return true;
}

// ----- tiered promotion channel ---------------------------------------------

void ResilientRunner::schedule_virtual_promotions(int version,
                                                  double stored_bytes,
                                                  double ready_t) {
  promo_tail_t_ = std::max(promo_tail_t_, ready_t);
  const auto enqueue = [this](int v, int level, double stored) {
    const double cost = level == 1 ? cfg_.cluster.partner_write_seconds(stored)
                                   : cfg_.cluster.write_seconds(stored);
    promo_tail_t_ += cost;
    promo_queue_.push_back({v, level, promo_tail_t_, cost});
    scheduled_promos_[static_cast<std::size_t>(level - 1)].insert(v);
  };
  // A delta version is only recoverable at a tier if its chain bases are
  // there too, so a promotion hop carries any base the cadence skipped —
  // deepest (chain-start) first, each at its own stored size.
  const auto enqueue_chain = [this, &enqueue](int v, int level,
                                              double stored) {
    std::vector<std::pair<int, double>> hops{{v, stored}};
    auto it = version_bytes_.find(v);
    int base = it != version_bytes_.end() ? it->second.base : -1;
    while (base >= 0 &&
           !scheduled_promos_[static_cast<std::size_t>(level - 1)].contains(
               base) &&
           !tiered_->exists_at(level, base)) {
      it = version_bytes_.find(base);
      if (it == version_bytes_.end()) break;  // pruned accounting: best effort
      hops.emplace_back(base, it->second.stored);
      base = it->second.base;
    }
    for (auto h = hops.rbegin(); h != hops.rend(); ++h)
      enqueue(h->first, level, h->second);
  };
  if (version % policy_->l2_promote_every() == 0)
    enqueue_chain(version, 1, stored_bytes);
  if (version % policy_->l3_promote_every() == 0)
    enqueue_chain(version, 2, stored_bytes);
}

void ResilientRunner::apply_promotions(double now) {
  while (!promo_queue_.empty() && promo_queue_.front().done_t <= now) {
    const VirtualPromotion p = promo_queue_.front();
    promo_queue_.pop_front();
    // promote_now() declines when the source version was invalidated or
    // pruned in the meantime — the copy simply never happened.
    if (tiered_->promote_now(p.version, p.level)) {
      ++result_.promotions_completed;
      result_.promotion_seconds_total += p.cost;
      const char* const tier = p.level == 1 ? "L2" : "L3";
      if (metrics_ != nullptr) {
        metrics_->add("tier.promotions_completed", 1.0, {{"tier", tier}});
        metrics_->observe("tier.promotion_seconds", p.cost);
        metrics_->observe("tier.promotion_seconds", p.cost, {{"tier", tier}});
      }
      if (trace_ != nullptr)
        trace_->complete(p.level == 1 ? "promote-L2" : "promote-L3",
                         "promote", p.done_t - p.cost, p.done_t,
                         {obs::TraceArg::num("version", p.version)});
    }
  }
}

// ----------------------------------------------------------------------------

double ResilientRunner::tiered_recovery_duration(int version, int level,
                                                 FailureSeverity worst) const {
  double raw = raw_dyn_bytes_last_;
  if (const auto it = version_bytes_.find(version); it != version_bytes_.end())
    raw = it->second.raw;
  // Process failures restart within the allocation: the static state (A, M,
  // b) is still resident. Node-or-worse failures re-read it from the PFS,
  // exactly like the single-level model.
  const bool read_static = worst >= FailureSeverity::kNode;
  // L1/L2 reads ride node-local/interconnect channels, so their static
  // re-read is a separate PFS operation with its own latency; an L3
  // recovery reads checkpoint + static state in one PFS pass, matching
  // recovery_duration()'s single-level accounting (no double latency).
  // A delta version additionally re-reads its chain bases, each from the
  // cheapest tier still holding it and at its own stored size.
  double seconds = 0.0;
  bool static_folded = false;
  int v = version;
  int hops = 0;
  while (v >= 0 && hops++ <= cfg_.delta.max_delta_chain) {
    double stored = stored_bytes_last_;
    int base = -1;
    int lvl = level;
    if (const auto it = version_bytes_.find(v); it != version_bytes_.end()) {
      stored = it->second.stored;
      base = it->second.base;
    }
    if (hops > 1) {
      // Chain bases may live at a different tier than the target version.
      const int found = tiered_ != nullptr ? tiered_->level_of(v) : -1;
      if (found >= 0) lvl = found;
    }
    switch (lvl) {
      case 0:
        seconds += cfg_.cluster.local_read_seconds(stored);
        break;
      case 1:
        seconds += cfg_.cluster.partner_read_seconds(stored);
        break;
      default:
        if (read_static && !static_folded) {
          seconds += cfg_.cluster.read_seconds(stored + cfg_.static_bytes);
          static_folded = true;
        } else {
          seconds += cfg_.cluster.read_seconds(stored);
        }
        break;
    }
    v = base;
  }
  if (read_static && !static_folded)
    seconds += cfg_.cluster.read_seconds(cfg_.static_bytes);
  return seconds + decompress_cost(raw);
}

void ResilientRunner::note_failure(FailureSeverity sev) {
  ++result_.failures;
  ++result_.failures_by_severity[severity_index(sev)];
  if (metrics_ != nullptr)
    metrics_->add("failures", 1.0, {{"severity", to_string(sev)}});
  if (trace_ != nullptr)
    trace_->instant("failures", to_string(sev), t_);
  policy_->on_failure(sev);
  if (tiered_ != nullptr) {
    // Copies whose virtual window closed before the failure are durable;
    // everything still on the channel is lost with the staging buffers.
    apply_promotions(t_);
    promo_queue_.clear();
    // Queued-but-dead promotions never happened; exists_at() is the only
    // truth about what reached each tier, so future chain scheduling must
    // re-check rather than trust these entries.
    for (auto& scheduled : scheduled_promos_) scheduled.clear();
    promo_tail_t_ = t_;
    tiered_->invalidate(sev);
  }
}

void ResilientRunner::handle_failure() {
  FailureSeverity worst = injector_.severity();
  settle_pending_at_failure();
  note_failure(worst);
  injector_.arm(t_);

  // Recovery, which may itself be interrupted by further failures.
  for (;;) {
    bool have_ckpt = false;
    int level = -1;
    double duration = 0.0;
    if (tiered_ != nullptr) {
      const int version = tiered_->latest_version();
      have_ckpt = version >= 0;
      if (have_ckpt) {
        level = tiered_->level_of(version);
        duration = tiered_recovery_duration(version, level, worst);
      } else {
        duration = cfg_.cluster.read_seconds(cfg_.static_bytes);
      }
    } else {
      have_ckpt = manager_->has_checkpoint();
      duration =
          have_ckpt
              ? recovery_duration(chain_stored_last_, raw_dyn_bytes_last_)
              : cfg_.cluster.read_seconds(cfg_.static_bytes);
    }
    if (injector_.interrupts(t_, duration)) {
      t_ = injector_.next_failure_time();
      const FailureSeverity sev = injector_.severity();
      worst = std::max(worst, sev);
      note_failure(sev);
      injector_.arm(t_);
      continue;
    }
    t_ += duration;
    result_.recovery_seconds_total += duration;
    ++result_.recoveries;
    if (level >= 0 &&
        level < static_cast<int>(result_.recoveries_by_tier.size()))
      ++result_.recoveries_by_tier[static_cast<std::size_t>(level)];
    if (metrics_ != nullptr) {
      metrics_->observe("recovery.seconds", duration);
      if (level >= 0)
        metrics_->add("recovery.by_tier", 1.0,
                      {{"tier", level == 0   ? "L1"
                                : level == 1 ? "L2"
                                             : "L3"}});
    }
    if (trace_ != nullptr) {
      std::vector<obs::TraceArg> args{
          obs::TraceArg::str("severity", to_string(worst))};
      if (level >= 0)
        args.push_back(obs::TraceArg::num("tier", level));
      trace_->complete("recovery", "recovery", t_ - duration, t_,
                       std::move(args));
    }

    if (have_ckpt) {
      manager_->recover();
      if (cfg_.scheme == CkptScheme::kLossy) {
        // Algorithm 2 lines 8–13: decompressed x is the new initial guess.
        solver_.restart(x_buf_);
        ByteReader br(iter_blob_);
        solver_.set_iteration(br.get<std::int64_t>());
      } else {
        ByteReader br(scalar_blob_);
        solver_.restore_scalars(br);
        solver_.resume_after_restore();
      }
    } else {
      // No checkpoint yet: global restart from the initial guess.
      const Vector zero(solver_.rhs().size(), 0.0);
      solver_.restart(zero);
      solver_.set_iteration(0);
    }
    break;
  }
  if (tiered_ != nullptr) promo_tail_t_ = std::max(promo_tail_t_, t_);
  last_ckpt_t_ = t_;  // checkpoint timer restarts after recovery
  policy_->on_recovery(t_);
}

ResilienceResult ResilientRunner::run() {
  const bool staged = cfg_.ckpt_mode != CkptMode::kSync;
  // Sampling basis for the solver.vector_passes counter: the pass counter
  // is process-global, so per-step deltas (not absolute values) are what
  // belongs to this run.
  std::uint64_t passes_seen = obs::vector_passes();
  while (!solver_.converged() && result_.executed_steps < cfg_.max_steps) {
    // Failure strictly inside the next iteration's window?
    if (injector_.interrupts(t_, cfg_.iteration_seconds)) {
      t_ = injector_.next_failure_time();
      handle_failure();
      continue;
    }
    solver_.step();
    ++result_.executed_steps;
    t_ += cfg_.iteration_seconds;
    if (metrics_ != nullptr) {
      const std::uint64_t passes = obs::vector_passes();
      metrics_->add("solver.vector_passes",
                    static_cast<double>(passes - passes_seen));
      passes_seen = passes;
    }
    if (trace_ != nullptr) {
      trace_->complete("solver", "iter", t_ - cfg_.iteration_seconds, t_);
      trace_->counter("residual", "residual", t_, solver_.residual_norm());
    }
    policy_->on_iteration(t_);

    if (!solver_.converged() && policy_->should_checkpoint(t_, last_ckpt_t_)) {
      if (staged)
        do_stage();
      else
        do_checkpoint();
    }
  }
  finish_pending_at_exit();

  result_.policy_interval_final = policy_->current_interval();
  result_.interval_adjustments = policy_->interval_adjustments();
  result_.converged = solver_.converged();
  result_.convergence_iteration = solver_.iteration();
  result_.final_residual_norm = solver_.residual_norm();
  result_.virtual_seconds = t_;
  if (result_.checkpoints > 0)
    result_.mean_ckpt_seconds =
        committed_blocking_total_ / result_.checkpoints;
  if (result_.recoveries > 0)
    result_.mean_recovery_seconds =
        result_.recovery_seconds_total / result_.recoveries;
  if (metrics_ != nullptr) {
    metrics_->set_gauge("run.virtual_seconds", result_.virtual_seconds);
    metrics_->set_gauge("run.converged", result_.converged ? 1.0 : 0.0);
    metrics_->set_gauge("run.final_residual_norm",
                        result_.final_residual_norm);
    metrics_->set_gauge("run.policy_interval_final",
                        result_.policy_interval_final);
  }
  return result_;
}

}  // namespace lck
