#include "ckpt/checkpoint_manager.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/chunk/chunk_hash.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace lck {
namespace {

enum class VarKind : std::uint8_t { kVector = 0, kBlob = 1 };

struct VectorHeader {
  std::string codec;
  ChunkGeometry geo{0, 1};
};

/// Read a vector's header, cross-checked: its chunk geometry must be the
/// canonical one the writer emits and agree with its chunk count, so
/// nothing downstream sizes or slices by an unchecked field.
VectorHeader read_vector_header(FrameReader& in) {
  VectorHeader h;
  h.codec = in.get_string();
  const auto elems = in.get<std::uint64_t>();
  const auto chunk_elems = in.get<std::uint64_t>();
  const auto count = in.get<std::uint32_t>();
  if (chunk_elems == 0 || chunk_elems > kMaxChunkElems ||
      chunk_elems > std::max<std::uint64_t>(elems, 1) ||
      elems > std::uint64_t{count} * chunk_elems)
    throw corrupt_stream_error("recover: implausible chunk geometry");
  h.geo = ChunkGeometry(static_cast<std::size_t>(elems),
                        static_cast<std::size_t>(chunk_elems));
  if (h.geo.count() != count)
    throw corrupt_stream_error("recover: inconsistent chunk geometry");
  return h;
}

/// Read a blob, growing `out` only as metadata frames actually arrive, so a
/// corrupt size cannot demand a large allocation up front.
void read_blob(FrameReader& in, std::vector<byte_t>& out) {
  const auto size = in.get<std::uint64_t>();
  out.clear();
  while (out.size() < size) {
    const std::size_t at = out.size();
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(size - at, kMetaFrameBytes));
    out.resize(at + n);
    in.read_into({out.data() + at, n});
  }
}

/// Decode one literal chunk: raw frames carry the doubles, codec chunks the
/// registered codec's stream for exactly this slice.
void decode_chunk(const Compressor& comp, const FrameReader::Chunk& chunk,
                  std::span<double> out) {
  if (chunk.style == FrameStyle::kCodec)
    comp.decompress(chunk.payload, out);
  else
    std::memcpy(out.data(), chunk.payload.data(), out.size_bytes());
}

/// References are resolved purely by content hash, so for lossless codecs
/// (where decompress ∘ compress is the identity) the re-materialized slice
/// must hash back to the manifest's raw-content hash — re-checking turns a
/// CRC-64 collision (or any resolver bug) into a loud error instead of
/// silently corrupted solver state. Lossy codecs are exempt: a reference
/// deliberately reproduces the base's *approximation* of the identical raw
/// content, whose bytes differ from the raw original.
void verify_ref_hash(const Compressor& comp, std::span<const double> slice,
                     std::uint64_t expected, const std::string& var_name) {
  if (comp.lossy()) return;
  const std::span<const byte_t> raw{
      reinterpret_cast<const byte_t*>(slice.data()),
      slice.size() * sizeof(double)};
  if (crc64(raw) != expected)
    throw corrupt_stream_error(
        "recover: delta reference resolved to mismatched content for "
        "variable " +
        var_name);
}

/// Per-codec compression observability of one vector, labeled by the
/// compressor name: the summed seconds of its compress() calls, and the raw
/// bytes of the chunks they encoded over their payload bytes. References
/// are not compression, so a vector without an encoded chunk has no ratio.
void observe_compress(obs::Sink sink, const Compressor& comp,
                      std::size_t raw_bytes, std::size_t stored_bytes,
                      double seconds) {
  if (sink.metrics == nullptr) return;
  sink.metrics->observe("compress.seconds", seconds,
                        {{"codec", comp.name()}});
  if (stored_bytes > 0)
    sink.metrics->observe("compress.ratio",
                          static_cast<double>(raw_bytes) /
                              static_cast<double>(stored_bytes),
                          {{"codec", comp.name()}});
}

}  // namespace

const char* to_string(CkptMode m) noexcept {
  switch (m) {
    case CkptMode::kSync: return "sync";
    case CkptMode::kAsync: return "async";
    case CkptMode::kTiered: return "tiered";
  }
  return "?";
}

CheckpointManager::CheckpointManager(std::unique_ptr<CheckpointStore> store,
                                     const Compressor* codec)
    : store_(std::move(store)), codec_(codec) {
  require(store_ != nullptr, "checkpoint manager: null store");
  require(codec_ != nullptr, "checkpoint manager: null codec");
  next_version_ = store_->latest_version() + 1;
}

CheckpointManager::~CheckpointManager() {
  // A version still undecided at destruction rolls back: its pending store
  // blob (e.g. DiskStore's .lck.pending file) must not outlive the manager,
  // and the last *committed* version stays the recovery point.
  if (!in_flight_) return;
  try {
    abort_in_flight();
  } catch (...) {  // NOLINT: best-effort cleanup in a destructor
  }
}

void CheckpointManager::protect(int id, std::string name, Vector* data) {
  protect(id, std::move(name), data, data);
}

void CheckpointManager::protect(int id, std::string name, const Vector* source,
                                Vector* restore_target) {
  require(source != nullptr, "protect: null source");
  require(restore_target != nullptr, "protect: null restore target");
  require(!entries_.contains(id), "protect: id already registered");
  entries_[id] = Entry{std::move(name), source, restore_target, nullptr};
}

void CheckpointManager::protect_blob(int id, std::string name,
                                     std::vector<byte_t>* data) {
  require(data != nullptr, "protect_blob: null variable");
  require(!entries_.contains(id), "protect_blob: id already registered");
  entries_[id] = Entry{std::move(name), nullptr, nullptr, data};
}

void CheckpointManager::set_observability(obs::Sink sink) {
  sink_ = sink;
  store_->set_observability(sink);
}

CheckpointRecord CheckpointManager::write_stream(
    const std::vector<VarView>& vars, int version, const ChunkBaseState* base,
    ChunkBaseState* state) {
  // Frames flow straight into the store's pending sink, so the stream is
  // never materialized. A throwing codec or a stop leaves the part-written
  // sink to clean up in its destructor.
  const auto sink = store_->open_write_pending(version);
  CheckpointRecord rec;
  rec.version = version;
  rec.base_version = base != nullptr ? base->version : -1;
  rec.chain_len = base != nullptr ? base->chain_len + 1 : 0;
  const std::size_t chunk_elems =
      state != nullptr ? state->chunk_elems : kChunkElems;
  const auto lanes = static_cast<std::size_t>(num_threads());
  // The `none` codec's chunks are stored as raw frames, every other codec's
  // as its own payloads.
  const bool verbatim = dynamic_cast<const NoneCompressor*>(codec_) != nullptr;

  // Plan every vector first: canonical geometry (a one-chunk vector
  // records its own length as the chunk size, so every header field is
  // pinned by the others), and in delta mode its chunk hashes and which
  // chunks are references.
  struct VecPlan {
    ChunkGeometry geo{0, 1};
    std::vector<std::uint64_t> hashes;  // delta mode only
    std::vector<std::uint8_t> is_ref;
  };
  std::vector<VecPlan> plans(vars.size());
  struct ChunkAt {
    std::size_t var = 0;
    std::size_t chunk = 0;
  };
  const auto slice = [&](ChunkAt at) {
    const ChunkGeometry& geo = plans[at.var].geo;
    return std::span<const double>(
        vars[at.var].vec->data() + geo.begin(at.chunk), geo.length(at.chunk));
  };
  std::vector<ChunkAt> hashed;  // every chunk, in delta mode only
  for (std::size_t k = 0; k < vars.size(); ++k) {
    const Vector* vec = vars[k].vec;
    if (vec == nullptr) continue;
    VecPlan& plan = plans[k];
    plan.geo = ChunkGeometry(
        vec->size(),
        std::min(chunk_elems, std::max<std::size_t>(vec->size(), 1)));
    plan.is_ref.assign(plan.geo.count(), 0);
    if (state == nullptr) continue;
    plan.hashes.resize(plan.geo.count());
    for (std::size_t c = 0; c < plan.geo.count(); ++c)
      hashed.push_back({k, c});
  }
  // Delta mode: hash every chunk's raw bytes on the lanes (the hash list
  // is a pure function of the data, so sync and async drains agree), then
  // decide literal/ref in chunk order: a chunk references the base
  // version's content or a literal emitted earlier in its vector.
  lanes_.run(lanes, hashed.size(), [&](std::size_t i) {
    const auto s = slice(hashed[i]);
    plans[hashed[i].var].hashes[hashed[i].chunk] =
        crc64({reinterpret_cast<const byte_t*>(s.data()), s.size_bytes()});
  });
  for (std::size_t k = 0; k < vars.size() && state != nullptr; ++k) {
    if (vars[k].vec == nullptr) continue;
    VecPlan& plan = plans[k];
    const auto* base_hashes =
        base != nullptr ? base->hashes_for(vars[k].id) : nullptr;
    std::unordered_set<std::uint64_t> available;
    if (base_hashes != nullptr)
      available.insert(base_hashes->begin(), base_hashes->end());
    for (std::size_t c = 0; c < plan.hashes.size(); ++c)
      plan.is_ref[c] = available.insert(plan.hashes[c]).second ? 0 : 1;
  }
  // The literal codec chunks of every vector, as one list in stream order,
  // are compressed on the lanes in batches of 2 × lanes, and the frames are
  // written in order on this thread: each payload depends only on its
  // chunk's doubles, so the stream is deterministic and at most one batch
  // of payloads is alive.
  std::vector<ChunkAt> literals;
  for (std::size_t k = 0; k < vars.size() && !verbatim; ++k)
    for (std::size_t c = 0; c < plans[k].is_ref.size(); ++c)
      if (plans[k].is_ref[c] == 0) literals.push_back({k, c});
  const std::size_t batch = 2 * lanes;
  std::vector<std::vector<byte_t>> payloads(std::min(batch, literals.size()));
  std::vector<double> seconds(payloads.size());
  std::size_t first = 0;  // entry of `literals` in payloads[0]
  std::size_t ready = 0;  // entries of `literals` compressed so far
  std::size_t next = 0;   // next entry of `literals` to write
  FrameWriter out(*sink, rec.base_version, rec.chain_len, sink_);
  out.put(static_cast<std::uint32_t>(vars.size()));
  for (std::size_t k = 0; k < vars.size(); ++k) {
    const VarView& var = vars[k];
    out.put(static_cast<std::int32_t>(var.id));
    out.put_string(*var.name);
    if (var.vec == nullptr) {
      out.put(static_cast<std::uint8_t>(VarKind::kBlob));
      out.put(static_cast<std::uint64_t>(var.blob->size()));
      out.put_bytes(*var.blob);
      rec.raw_bytes += var.blob->size();
      continue;
    }
    VecPlan& plan = plans[k];
    const std::size_t count = plan.geo.count();
    out.put(static_cast<std::uint8_t>(VarKind::kVector));
    out.put_string(codec_->name());
    out.put(static_cast<std::uint64_t>(plan.geo.elems));
    out.put(static_cast<std::uint64_t>(plan.geo.chunk_elems));
    out.put(static_cast<std::uint32_t>(count));
    rec.raw_bytes += plan.geo.elems * sizeof(double);

    std::size_t literal_bytes = 0;
    std::size_t payload_bytes = 0;
    double comp_seconds = 0.0;
    std::size_t refs = 0;
    for (std::size_t c = 0; c < count; ++c) {
      throw_if_stop_requested();
      const std::uint64_t hash = plan.hashes.empty() ? 0 : plan.hashes[c];
      const auto s = slice({k, c});
      if (plan.is_ref[c] != 0) {
        out.put_ref_chunk(s.size_bytes(), hash);
        ++refs;
        continue;
      }
      if (verbatim) {
        out.put_raw_chunk(
            {reinterpret_cast<const byte_t*>(s.data()), s.size_bytes()}, hash);
        continue;
      }
      if (next == ready) {
        first = next;
        ready = std::min(literals.size(), first + batch);
        lanes_.run(lanes, ready - first, [&](std::size_t i) {
          const ChunkAt at = literals[first + i];
          const WallTimer timer;
          payloads[i] = codec_->compress(slice(at));
          seconds[i] = timer.seconds();
        });
      }
      const std::vector<byte_t>& payload = payloads[next - first];
      out.put_codec_chunk(payload, s.size_bytes(), hash);
      literal_bytes += s.size_bytes();
      payload_bytes += payload.size();
      comp_seconds += seconds[next - first];
      ++next;
    }
    if (!verbatim)
      observe_compress(sink_, *codec_, literal_bytes, payload_bytes,
                       comp_seconds);
    if (state != nullptr) {
      state->vars.push_back({var.id, std::move(plan.hashes)});
      rec.chunks += count;
      rec.chunks_deduped += refs;
    }
  }
  out.finish();
  rec.stored_bytes = out.stream_bytes();
  throw_if_stop_requested();
  sink->finish();
  return rec;
}

void CheckpointManager::mark_chain(int v, std::set<int>& live) const {
  // 1024 hops is far beyond any legal chain (bounded by max_delta_chain_);
  // the cap only guards a corrupt map from wedging pruning.
  int hops = 0;
  while (v >= 0 && hops++ <= 1024 && live.insert(v).second) {
    const auto it = base_of_.find(v);
    v = it != base_of_.end() ? it->second : -1;
  }
}

void CheckpointManager::prune_retention(int latest_committed) {
  // Aborted async versions leave holes in the version sequence, so scan up
  // from the lowest possibly-live version instead of stopping at the first
  // gap (remove() of an absent version is a cheap no-op in both stores).
  const int keep_from = latest_committed - retention_ + 1;
  // Nothing below the window to remove (e.g. tiered mode parks the
  // manager-level retention and lets the hierarchy prune). The manager only
  // consults base links for its own pruning decisions, so here they can be
  // bounded to the chain still reachable from the tip — without this, a
  // long parked-retention run would leak one entry per checkpoint. Pruning
  // runs only while nothing is staged, so no drain holds a base either.
  if (keep_from <= prune_floor_) {
    if (!base_of_.empty()) {
      std::set<int> live;
      mark_chain(latest_committed, live);
      std::erase_if(base_of_,
                    [&live](const auto& e) { return !live.contains(e.first); });
    }
    return;
  }

  // Ref-counted bases: a version below the retention window survives as
  // long as a retained version's delta chain still references it —
  // dropping it would break that chain's recovery.
  std::set<int> live;
  if (!base_of_.empty()) {
    for (int v = std::max(0, keep_from); v <= latest_committed; ++v)
      mark_chain(v, live);
  }

  for (int v = prune_floor_; v < keep_from; ++v) {
    if (live.contains(v)) continue;
    store_->remove(v);
    base_of_.erase(v);
  }
  // Never advance the floor past a live chain base: it must be re-examined
  // once the chain referencing it retires.
  int advance_to = keep_from;
  if (!live.empty()) advance_to = std::min(advance_to, *live.begin());
  prune_floor_ = std::max(prune_floor_, advance_to);
}

std::shared_ptr<const CheckpointManager::ChunkBaseState>
CheckpointManager::pick_delta_base() const {
  if (max_delta_chain_ <= 0 || committed_state_ == nullptr) return nullptr;
  // A base whose chunk geometry no longer matches cannot be referenced;
  // a chain at max length forces the periodic full checkpoint; a base
  // discarded from the store (torn write) must not be referenced either.
  if (committed_state_->chunk_elems != delta_chunk_elems_) return nullptr;
  if (static_cast<int>(committed_state_->chain_len) + 1 > max_delta_chain_)
    return nullptr;
  if (!store_->exists(committed_state_->version)) return nullptr;
  return committed_state_;
}

std::shared_ptr<CheckpointManager::ChunkBaseState>
CheckpointManager::new_delta_state(int version,
                                   const ChunkBaseState* base) const {
  if (max_delta_chain_ <= 0) return nullptr;
  auto state = std::make_shared<ChunkBaseState>();
  state->version = version;
  state->chunk_elems = delta_chunk_elems_;
  state->chain_len = base != nullptr ? base->chain_len + 1 : 0;
  return state;
}

void CheckpointManager::commit(const CheckpointRecord& rec,
                               const std::shared_ptr<ChunkBaseState>& state) {
  store_->commit(rec.version);
  if (state != nullptr) {
    base_of_[rec.version] = rec.base_version;
    committed_state_ = state;
  }
  prune_retention(rec.version);
}

CheckpointRecord CheckpointManager::checkpoint() {
  require(!entries_.empty(), "checkpoint: nothing protected");
  require(!in_flight_,
          "checkpoint: a staged version awaits commit_version() or "
          "abort_version()");
  std::vector<VarView> views;
  views.reserve(entries_.size());
  for (const auto& [id, e] : entries_)
    views.push_back({id, &e.name, e.src, e.blob});
  // The drain's write and commit, fused on the calling thread.
  const auto base = pick_delta_base();
  const auto state = new_delta_state(next_version_, base.get());
  const CheckpointRecord rec =
      write_stream(views, next_version_, base.get(), state.get());
  commit(rec, state);
  ++next_version_;
  return rec;
}

// ----- staged (asynchronous) pipeline ---------------------------------------

StageTicket CheckpointManager::stage() {
  require(!entries_.empty(), "stage: nothing protected");
  require(!in_flight_,
          "stage: a staged version awaits commit_version() or "
          "abort_version()");
  if (worker_ == nullptr) worker_ = std::make_unique<SerialWorker>();

  WallTimer timer;
  StageTicket ticket;
  // Copy-assign into the existing StagedVars so each round reuses the
  // previous round's allocations. The views point at the copies and at the
  // names in entries_, whose nodes live as long as the manager.
  staged_.resize(entries_.size());
  std::vector<VarView> views;
  views.reserve(entries_.size());
  std::size_t k = 0;
  for (const auto& [id, e] : entries_) {
    StagedVar& sv = staged_[k++];
    if (e.src != nullptr) {
      sv.vec = *e.src;
      sv.blob.clear();
      views.push_back({id, &e.name, &sv.vec, nullptr});
      ticket.raw_bytes += e.src->size() * sizeof(double);
    } else {
      sv.blob = *e.blob;
      sv.vec.clear();
      views.push_back({id, &e.name, nullptr, &sv.blob});
      ticket.raw_bytes += e.blob->size();
    }
  }
  ticket.stage_seconds = timer.seconds();
  if (sink_.metrics != nullptr) {
    sink_.metrics->observe("ckpt.stage_copy_seconds", ticket.stage_seconds);
    sink_.metrics->observe("ckpt.stage_raw_bytes",
                           static_cast<double>(ticket.raw_bytes));
  }

  const int version = next_version_;
  // The delta base is decided here, on the owner thread, so the background
  // drain never touches the (owner-mutated) bookkeeping: it encodes against
  // an immutable snapshot of the base's hashes, into a state only it writes
  // until wait_drain() joins it.
  const auto base = pick_delta_base();
  const auto state = new_delta_state(version, base.get());
  stop_drain_ = false;
  auto drain = [this, version, base, state, views = std::move(views)] {
    const StopScope scope(&stop_drain_);
    const WallTimer job_timer;
    // The staged copy is the only full-size buffer alive; a failed or
    // stopped write leaves its error to the future.
    CheckpointRecord rec =
        write_stream(views, version, base.get(), state.get());
    if (sink_.metrics != nullptr)
      sink_.metrics->observe("ckpt.drain_job_seconds", job_timer.seconds());
    return rec;
  };
  // A submit that throws queued nothing, so the version stays unclaimed.
  in_flight_ = InFlight{version, worker_->submit(std::move(drain)).share(),
                        state};
  ++next_version_;
  ticket.version = version;
  return ticket;
}

CheckpointRecord CheckpointManager::wait_drain(int version) {
  // A committed/aborted (or never staged) version has no drain to join.
  require(in_flight_ && in_flight_->version == version,
          "wait_drain: version is not an in-flight drain");
  return in_flight_->drain.get();
}

void CheckpointManager::commit_version(int version) {
  const CheckpointRecord rec = wait_drain(version);
  // The drain joined above, so the hashes it wrote into the state
  // happened-before this read. Nothing else commits while a version is
  // staged, so `version` is the newest committed one.
  commit(rec, in_flight_->state);
  in_flight_.reset();
}

void CheckpointManager::abort_version(int version) {
  require(in_flight_ && in_flight_->version == version,
          "abort_version: version is not an in-flight drain");
  abort_in_flight();
}

void CheckpointManager::abort_in_flight() {
  // The drain stops at its next check, and is joined before the store drops
  // the version, so abort() never races write_pending().
  stop_drain_ = true;
  in_flight_->drain.wait();
  if (sink_.metrics != nullptr) {
    try {
      (void)in_flight_->drain.get();
    } catch (const stop_requested_error&) {
      sink_.metrics->add("ckpt.drains_stopped", 1.0);
    } catch (...) {  // NOLINT: any other drain error is dropped with it
    }
  }
  // A drain that failed or stopped left nothing pending to drop, but the
  // version must still be retired.
  store_->abort(in_flight_->version);
  in_flight_.reset();
}

void CheckpointManager::discard_version(int version) {
  store_->remove(version);
  base_of_.erase(version);
  if (committed_state_ != nullptr && committed_state_->version == version)
    committed_state_.reset();
}

// ----------------------------------------------------------------------------

CheckpointRecord CheckpointManager::recover() {
  const int version = store_->latest_version();
  if (version < 0) throw corrupt_stream_error("recover: no checkpoint exists");

  CheckpointRecord rec;
  rec.version = version;
  const WallTimer timer;

  // References not filled yet, keyed by (variable id, content hash): the
  // target slices waiting for a literal chunk with that content.
  struct Slot {
    std::size_t begin = 0;
    std::size_t len = 0;
  };
  using Pending = std::map<std::pair<int, std::uint64_t>, std::vector<Slot>>;
  Pending pending;
  // Copy a literal's decoded doubles into every slice waiting on its
  // content, and retire the wait.
  const auto fill = [&](Pending::iterator p, std::span<const double> from) {
    const Entry& e = entries_.at(p->first.first);
    for (const Slot& s : p->second) {
      if (s.len != from.size() || s.begin + s.len > e.dst->size())
        throw corrupt_stream_error("recover: reference length mismatch");
      const std::span<double> out{e.dst->data() + s.begin, s.len};
      std::copy(from.begin(), from.end(), out.begin());
      verify_ref_hash(*codec_, out, p->first.second, e.name);
    }
    pending.erase(p);
  };
  Vector decoded;  // a base's literal, before fill() copies it

  // One walk down the chain: the tip restores every variable, its
  // references to literals earlier in the same vector included; each base
  // after it, nearest first, is read only for the literals that references
  // still wait on.
  int v = version;
  std::uint32_t chain_len = 0;
  for (bool tip = true;; tip = false) {
    auto src = store_->open_read(v);
    FrameReader in(*src);
    if (in.base_version() >= v || (!tip && in.chain_len() + 1 != chain_len))
      throw corrupt_stream_error("recover: delta chain links disagree at " +
                                 std::to_string(v));
    if (tip) {
      rec.base_version = in.base_version();
      rec.chain_len = in.chain_len();
    }
    const auto count = in.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto id = in.get<std::int32_t>();
      const std::string name = in.get_string();
      const auto kind = static_cast<VarKind>(in.get<std::uint8_t>());
      const auto it = entries_.find(id);
      if (it == entries_.end())
        throw corrupt_stream_error("recover: unregistered variable id " +
                                   std::to_string(id));
      Entry& e = it->second;
      if (kind == VarKind::kBlob) {
        if (e.blob == nullptr)
          throw corrupt_stream_error("recover: variable " + name +
                                     " is a blob in the stream, not a vector");
        if (tip) {
          read_blob(in, *e.blob);
          rec.raw_bytes += e.blob->size();
        } else {
          in.skip(in.get<std::uint64_t>());
        }
        continue;
      }
      if (kind != VarKind::kVector)
        throw corrupt_stream_error("recover: unknown variable kind");
      if (e.dst == nullptr)
        throw corrupt_stream_error("recover: variable " + name +
                                   " is a vector in the stream, not a blob");
      // Each payload was produced by the codec its stream records; another
      // decoder would corrupt state silently.
      const VectorHeader h = read_vector_header(in);
      if (codec_->name() != h.codec)
        throw corrupt_stream_error(
            "recover: compressor mismatch for variable " + name + " (stored " +
            h.codec + ", registered " + codec_->name() + ")");
      // The target grows only as chunk frames arrive, so a corrupt
      // elem_count cannot demand more memory than the stream backs.
      Vector& dst = *e.dst;
      if (tip && (dst.size() > h.geo.elems || h.geo.elems <= dst.capacity()))
        dst.resize(h.geo.elems);
      std::unordered_map<std::uint64_t, std::size_t> literals;  // hash → chunk
      for (std::size_t c = 0; c < h.geo.count(); ++c) {
        const std::size_t begin = h.geo.begin(c);
        const std::size_t len = h.geo.length(c);
        const auto chunk = in.next_chunk(len * sizeof(double));
        if (!tip) {
          if (chunk.style == FrameStyle::kRef) continue;
          const auto p = pending.find({id, chunk.hash});
          if (p == pending.end()) continue;
          decoded.resize(len);
          decode_chunk(*codec_, chunk, decoded);
          fill(p, decoded);
          continue;
        }
        if (dst.size() < begin + len) dst.resize(begin + len);
        if (chunk.style == FrameStyle::kRef) {
          ++rec.chunks_deduped;
          pending[{id, chunk.hash}].push_back({begin, len});
          continue;
        }
        decode_chunk(*codec_, chunk, {dst.data() + begin, len});
        literals.emplace(chunk.hash, c);
      }
      if (!tip) continue;
      // References to a literal earlier in the vector: its decoded doubles
      // are exactly what decoding its payload again would give.
      for (auto p = pending.lower_bound({id, 0});
           p != pending.end() && p->first.first == id;) {
        const auto lit = literals.find(p->first.second);
        const auto next = std::next(p);
        if (lit != literals.end())
          fill(p, {dst.data() + h.geo.begin(lit->second),
                   h.geo.length(lit->second)});
        p = next;
      }
      rec.chunks += h.geo.count();
      rec.raw_bytes += h.geo.elems * sizeof(double);
    }
    in.expect_end();
    rec.stored_bytes += in.stream_bytes();
    if (pending.empty()) break;
    v = in.base_version();
    chain_len = in.chain_len();
    if (v < 0)
      throw corrupt_stream_error(
          "recover: delta chain is missing chunks for variable id " +
          std::to_string(pending.begin()->first.first) +
          " (base checkpoint pruned or invalidated?)");
  }

  if (sink_.metrics != nullptr)
    sink_.metrics->observe("ckpt.recover_seconds", timer.seconds());
  recovery_pending_ = false;
  return rec;
}

CheckpointRecord CheckpointManager::snapshot() {
  if (recovery_pending_ && has_checkpoint()) return recover();
  recovery_pending_ = false;
  return checkpoint();
}

}  // namespace lck
