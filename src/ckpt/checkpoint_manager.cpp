#include "ckpt/checkpoint_manager.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/async_writer.hpp"
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

/// Decode one literal chunk: verbatim styles carry the raw doubles, codec
/// chunks the registered codec's stream for exactly this slice.
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

/// Per-codec compression observability: real seconds and achieved ratio,
/// labeled by the compressor name.
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
                                     const Compressor* default_compressor)
    : store_(std::move(store)), default_compressor_(default_compressor) {
  require(store_ != nullptr, "checkpoint manager: null store");
  if (default_compressor_ == nullptr) default_compressor_ = &none_;
  next_version_ = store_->latest_version() + 1;
}

CheckpointManager::~CheckpointManager() {
  // Versions still undecided at destruction roll back: their pending store
  // blobs (e.g. DiskStore's .lck.pending files) must not outlive the
  // manager, and the last *committed* version stays the recovery point.
  const std::set<int> undecided = staged_versions_;
  for (const int v : undecided) {
    try {
      abort_version(v);
    } catch (...) {  // NOLINT: best-effort cleanup in a destructor
    }
  }
}

void CheckpointManager::protect(int id, std::string name, Vector* data,
                                const Compressor* compressor) {
  protect(id, std::move(name), data, data, compressor);
}

void CheckpointManager::protect(int id, std::string name, const Vector* source,
                                Vector* restore_target,
                                const Compressor* compressor) {
  require(source != nullptr, "protect: null source");
  require(restore_target != nullptr, "protect: null restore target");
  require(!entries_.contains(id), "protect: id already registered");
  entries_[id] = Entry{std::move(name), source, restore_target, nullptr,
                       compressor};
}

void CheckpointManager::protect_blob(int id, std::string name,
                                     std::vector<byte_t>* data) {
  require(data != nullptr, "protect_blob: null variable");
  require(!entries_.contains(id), "protect_blob: id already registered");
  entries_[id] = Entry{std::move(name), nullptr, nullptr, data, nullptr};
}

void CheckpointManager::unprotect(int id) { entries_.erase(id); }

void CheckpointManager::set_observability(obs::Sink sink) {
  sink_ = sink;
  store_->set_observability(sink);
}

CheckpointRecord CheckpointManager::write_stream(
    const std::vector<VarView>& vars, int version, const ChunkBaseState* base,
    ChunkBaseState* state, ByteSink& sink) const {
  CheckpointRecord rec;
  rec.version = version;
  rec.base_version = base != nullptr ? base->version : -1;
  rec.chain_len = base != nullptr ? base->chain_len + 1 : 0;
  const std::size_t chunk_elems =
      state != nullptr ? state->chunk_elems : kChunkElems;
  // Literal chunks are compressed concurrently in bounded batches and
  // emitted in order: each payload depends only on its chunk's doubles, so
  // the stream is deterministic and at most one batch of payloads is alive.
  const std::size_t batch = 2 * static_cast<std::size_t>(num_threads());

  FrameWriter out(sink, streaming_, rec.base_version, rec.chain_len, sink_);
  out.put(static_cast<std::uint32_t>(vars.size()));

  WallTimer timer;
  std::vector<std::vector<byte_t>> payloads;
  for (const auto& var : vars) {
    out.put(static_cast<std::int32_t>(var.id));
    out.put_string(*var.name);
    if (var.vec == nullptr) {
      out.put(static_cast<std::uint8_t>(VarKind::kBlob));
      out.put(static_cast<std::uint64_t>(var.blob->size()));
      out.put_bytes(*var.blob);
      rec.raw_bytes += var.blob->size();
      rec.per_var_bytes[*var.name] = var.blob->size();
      continue;
    }
    const Vector& vec = *var.vec;
    const Compressor& comp = *var.compressor;
    // Canonical geometry: a one-chunk vector records its own length as the
    // chunk size, so every header field is pinned by the others.
    const ChunkGeometry geo(
        vec.size(),
        std::min(chunk_elems, std::max<std::size_t>(vec.size(), 1)));
    const std::size_t count = geo.count();
    const auto slice = [&](std::size_t c) {
      return std::span<const double>(vec.data() + geo.begin(c), geo.length(c));
    };
    out.put(static_cast<std::uint8_t>(VarKind::kVector));
    out.put_string(comp.name());
    out.put(static_cast<std::uint64_t>(vec.size()));
    out.put(static_cast<std::uint64_t>(geo.chunk_elems));
    out.put(static_cast<std::uint32_t>(count));
    rec.raw_bytes += vec.size() * sizeof(double);

    // Delta mode: hash every chunk's raw bytes (concurrently; the hash list
    // is a pure function of the data, so sync and async drains agree), then
    // decide literal/ref in chunk order: a chunk references the base
    // version's content or a literal emitted earlier in this stream.
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint8_t> is_ref(count, 0);
    if (state != nullptr) {
      hashes.resize(count);
      parallel_for(0, static_cast<index_t>(count), [&](index_t c) {
        const auto s = slice(static_cast<std::size_t>(c));
        hashes[static_cast<std::size_t>(c)] = crc64(
            {reinterpret_cast<const byte_t*>(s.data()), s.size_bytes()});
      });
      const auto* base_hashes =
          base != nullptr ? base->hashes_for(var.id, comp.name()) : nullptr;
      std::unordered_set<std::uint64_t> available;
      if (base_hashes != nullptr)
        available.insert(base_hashes->begin(), base_hashes->end());
      for (std::size_t c = 0; c < count; ++c)
        is_ref[c] = available.insert(hashes[c]).second ? 0 : 1;
    }

    const bool verbatim = dynamic_cast<const NoneCompressor*>(&comp) != nullptr;
    std::size_t var_bytes = 0;
    std::size_t refs = 0;
    double comp_seconds = 0.0;
    for (std::size_t first = 0; first < count; first += batch) {
      const std::size_t last = std::min(count, first + batch);
      if (!verbatim) {
        payloads.resize(last - first);
        const WallTimer comp_timer;
        // An exception must not escape the parallel region (that would
        // terminate); the first one is carried out and rethrown here.
        std::exception_ptr error;
        std::mutex error_mu;
        parallel_for(static_cast<index_t>(first), static_cast<index_t>(last),
                     [&](index_t ci) {
                       const auto c = static_cast<std::size_t>(ci);
                       if (is_ref[c] != 0) return;
                       try {
                         payloads[c - first] = comp.compress(slice(c));
                       } catch (...) {
                         const std::lock_guard<std::mutex> lock(error_mu);
                         if (error == nullptr) error = std::current_exception();
                       }
                     });
        if (error != nullptr) std::rethrow_exception(error);
        comp_seconds += comp_timer.seconds();
      }
      for (std::size_t c = first; c < last; ++c) {
        const std::uint64_t hash = hashes.empty() ? 0 : hashes[c];
        const std::size_t raw_len = slice(c).size_bytes();
        if (is_ref[c] != 0) {
          out.put_ref_chunk(raw_len, hash);
          ++refs;
        } else if (verbatim) {
          var_bytes += out.put_verbatim_chunk(
              {reinterpret_cast<const byte_t*>(slice(c).data()), raw_len},
              hash);
        } else {
          out.put_codec_chunk(payloads[c - first], raw_len, hash);
          var_bytes += payloads[c - first].size();
        }
      }
    }
    if (!verbatim)
      observe_compress(sink_, comp, vec.size() * sizeof(double), var_bytes,
                       comp_seconds);
    rec.per_var_bytes[*var.name] = var_bytes;
    if (state != nullptr) {
      state->vars.push_back({var.id, comp.name(), std::move(hashes)});
      rec.chunks += count;
      rec.chunks_deduped += refs;
    }
  }
  out.finish();
  rec.compress_seconds = timer.seconds();
  rec.stored_bytes = out.stream_bytes();
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
  // bounded to the chains still reachable from the tip and from in-flight
  // staged bases — without this, a long parked-retention run would leak one
  // entry per checkpoint.
  if (keep_from <= prune_floor_) {
    if (!base_of_.empty()) {
      std::set<int> live;
      mark_chain(latest_committed, live);
      for (const auto& [staged, base] : staged_base_) mark_chain(base, live);
      std::erase_if(base_of_,
                    [&live](const auto& e) { return !live.contains(e.first); });
    }
    return;
  }

  // Ref-counted bases: a version below the retention window survives as
  // long as a retained (or in-flight staged) version's delta chain still
  // references it — dropping it would break that chain's recovery.
  std::set<int> live;
  if (!base_of_.empty() || !staged_base_.empty()) {
    for (int v = std::max(0, keep_from); v <= latest_committed; ++v)
      mark_chain(v, live);
    for (const auto& [staged, base] : staged_base_) mark_chain(base, live);
  }

  for (int v = prune_floor_; v < keep_from; ++v) {
    if (live.contains(v)) continue;
    store_->remove(v);
    base_of_.erase(v);
  }
  // Never advance the floor past a version that is still undecided (it may
  // commit out of order later) or past a live chain base (it must be
  // re-examined once the chain referencing it retires).
  int advance_to = keep_from;
  if (!live.empty()) advance_to = std::min(advance_to, *live.begin());
  if (!staged_versions_.empty())
    advance_to = std::min(advance_to, *staged_versions_.begin());
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

CheckpointRecord CheckpointManager::checkpoint() {
  require(!entries_.empty(), "checkpoint: nothing protected");
  std::vector<VarView> views;
  views.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    VarView v;
    v.id = id;
    v.name = &e.name;
    v.vec = e.src;
    v.blob = e.blob;
    v.compressor = compressor_for(e);
    views.push_back(v);
  }
  // Stream frames straight into the store's staging sink and promote on
  // success — the synchronous fusion of write_pending + commit, with peak
  // memory bounded by the frame writer, not the checkpoint size.
  const auto base = pick_delta_base();
  const auto state = new_delta_state(next_version_, base.get());
  auto sink = store_->open_write_pending(next_version_);
  const CheckpointRecord rec =
      write_stream(views, next_version_, base.get(), state.get(), *sink);
  sink->finish();
  store_->commit(rec.version);
  if (state != nullptr) {
    base_of_[rec.version] = rec.base_version;
    committed_state_ = state;
  }
  prune_retention(rec.version);
  ++next_version_;
  return rec;
}

// ----- staged (asynchronous) pipeline ---------------------------------------

int CheckpointManager::acquire_slot() {
  std::unique_lock<std::mutex> lock(slot_mu_);
  for (;;) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy) {
        slots_[i].busy = true;
        return static_cast<int>(i);
      }
    }
    slot_cv_.wait(lock);
  }
}

void CheckpointManager::release_slot(int slot) {
  {
    const std::lock_guard<std::mutex> lock(slot_mu_);
    slots_[static_cast<std::size_t>(slot)].busy = false;
  }
  slot_cv_.notify_all();
}

StageTicket CheckpointManager::stage() {
  require(!entries_.empty(), "stage: nothing protected");
  if (writer_ == nullptr) writer_ = std::make_unique<AsyncCheckpointWriter>();

  const int slot_idx = acquire_slot();
  StagingSlot& slot = slots_[static_cast<std::size_t>(slot_idx)];

  WallTimer timer;
  StageTicket ticket;
  ticket.version = next_version_++;

  try {
    // Copy-assign into the slot's existing StagedVars so the double buffer
    // reuses its allocations from the previous round.
    slot.vars.resize(entries_.size());
    std::size_t k = 0;
    for (const auto& [id, e] : entries_) {
      StagedVar& sv = slot.vars[k++];
      sv.id = id;
      sv.name = e.name;
      sv.compressor = compressor_for(e);
      if (e.src != nullptr) {
        sv.is_vector = true;
        sv.vec = *e.src;
        sv.blob.clear();
        ticket.raw_bytes += e.src->size() * sizeof(double);
      } else {
        sv.is_vector = false;
        sv.blob = *e.blob;
        sv.vec.clear();
        ticket.raw_bytes += e.blob->size();
      }
    }
  } catch (...) {
    // A failed copy (e.g. bad_alloc) must not strand the slot as busy.
    release_slot(slot_idx);
    throw;
  }
  ticket.stage_seconds = timer.seconds();
  if (sink_.metrics != nullptr) {
    sink_.metrics->observe("ckpt.stage_copy_seconds", ticket.stage_seconds);
    sink_.metrics->observe("ckpt.stage_raw_bytes",
                           static_cast<double>(ticket.raw_bytes));
  }

  const int version = ticket.version;
  // The delta base is decided here, on the owner thread, so the background
  // drain never touches the (owner-mutated) bookkeeping: it encodes against
  // an immutable snapshot of the base's hashes, into a state only it writes
  // until wait_drain() joins it.
  const auto base = pick_delta_base();
  const auto state = new_delta_state(version, base.get());
  auto drain = [this, version, slot_idx, base, state] {
    const WallTimer job_timer;  // Runs on the writer thread; registry shards.
    std::unique_ptr<ByteSink> sink;
    CheckpointRecord rec;
    try {
      const StagingSlot& slot_ref =
          slots_[static_cast<std::size_t>(slot_idx)];
      std::vector<VarView> views;
      views.reserve(slot_ref.vars.size());
      for (const auto& sv : slot_ref.vars) {
        VarView v;
        v.id = sv.id;
        v.name = &sv.name;
        if (sv.is_vector)
          v.vec = &sv.vec;
        else
          v.blob = &sv.blob;
        v.compressor = sv.compressor;
        views.push_back(v);
      }
      // Frames flow into the store sink while the slot is still held — that
      // is the point: the stream is never materialized, so the slot's
      // staged copy is the only full-size buffer alive.
      sink = store_->open_write_pending(version);
      rec = write_stream(views, version, base.get(), state.get(), *sink);
    } catch (...) {
      // A throwing compressor must not strand the slot as busy forever.
      // (A part-written sink cleans up in its destructor.)
      release_slot(slot_idx);
      throw;
    }
    // The sink holds every byte now; free the slot before sealing it so the
    // solver can stage the next checkpoint meanwhile.
    release_slot(slot_idx);
    sink->finish();
    if (sink_.metrics != nullptr)
      sink_.metrics->observe("ckpt.drain_job_seconds", job_timer.seconds());
    return rec;
  };
  // Track the version before enqueueing so a failed submit can unwind
  // completely: nothing else releases the slot once it is marked busy.
  try {
    staged_versions_.insert(version);
    if (state != nullptr) {
      staged_base_[version] = base != nullptr ? base->version : -1;
      staged_states_[version] = state;
    }
    writer_->submit(version, std::move(drain));
  } catch (...) {
    staged_versions_.erase(version);
    staged_base_.erase(version);
    staged_states_.erase(version);
    release_slot(slot_idx);
    throw;
  }
  return ticket;
}

CheckpointRecord CheckpointManager::wait_drain(int version) {
  // The writer surrenders each outcome once, so waiting on a version that
  // was already committed/aborted (or never staged) would block forever —
  // fail fast instead.
  require(staged_versions_.contains(version),
          "wait_drain: version is not an in-flight drain");
  if (const auto it = drained_.find(version); it != drained_.end())
    return it->second;
  // The writer surrenders each outcome exactly once, so a drain that threw
  // is remembered here — re-waiting on it would block forever.
  if (failed_drains_.contains(version))
    throw corrupt_stream_error("wait_drain: drain already failed for version " +
                               std::to_string(version));
  require(writer_ != nullptr, "wait_drain: no drain was submitted");
  try {
    const CheckpointRecord rec = writer_->wait(version);
    drained_[version] = rec;
    return rec;
  } catch (...) {
    failed_drains_.insert(version);
    throw;
  }
}

void CheckpointManager::commit_version(int version) {
  const CheckpointRecord rec = wait_drain(version);
  store_->commit(version);
  drained_.erase(version);
  staged_versions_.erase(version);
  // The drain joined above, so the hashes it wrote into the staged state
  // happened-before this read.
  if (const auto it = staged_states_.find(version);
      it != staged_states_.end()) {
    base_of_[version] = rec.base_version;
    committed_state_ = std::move(it->second);
    staged_states_.erase(it);
  }
  staged_base_.erase(version);
  // Prune against the highest committed version, so an out-of-order commit
  // of an already-superseded version retires it immediately.
  prune_retention(store_->latest_version());
}

void CheckpointManager::abort_version(int version) {
  require(staged_versions_.contains(version),
          "abort_version: version is not an in-flight drain");
  try {
    wait_drain(version);
  } catch (...) {
    // The drain itself failed; there is nothing pending to drop, but the
    // version must still be retired below.
  }
  store_->abort(version);
  drained_.erase(version);
  failed_drains_.erase(version);
  staged_versions_.erase(version);
  staged_base_.erase(version);
  staged_states_.erase(version);
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

  // References the stream cannot resolve itself, keyed by (variable id,
  // content hash): the target slices waiting for a base's literal chunk.
  struct Slot {
    std::size_t begin = 0;
    std::size_t len = 0;
  };
  std::map<std::pair<int, std::uint64_t>, std::vector<Slot>> pending;
  {
    auto src = store_->open_read(version);
    FrameReader in(*src);
    rec.base_version = in.base_version();
    rec.chain_len = in.chain_len();
    if (rec.base_version >= version)
      throw corrupt_stream_error("recover: delta base does not precede " +
                                 std::to_string(version));
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
        read_blob(in, *e.blob);
        rec.raw_bytes += e.blob->size();
        continue;
      }
      if (kind != VarKind::kVector)
        throw corrupt_stream_error("recover: unknown variable kind");
      if (e.dst == nullptr)
        throw corrupt_stream_error("recover: variable " + name +
                                   " is a vector in the stream, not a blob");
      const Compressor& comp = *compressor_for(e);
      const VectorHeader h = read_vector_header(in);
      if (comp.name() != h.codec)
        throw corrupt_stream_error(
            "recover: compressor mismatch for variable " + name + " (stored " +
            h.codec + ", registered " + comp.name() + ")");
      // The target grows only as chunk frames arrive, so a corrupt
      // elem_count cannot demand more memory than the stream backs.
      Vector& dst = *e.dst;
      if (dst.size() > h.geo.elems || h.geo.elems <= dst.capacity())
        dst.resize(h.geo.elems);
      std::unordered_map<std::uint64_t, std::size_t> literals;  // hash → chunk
      for (std::size_t c = 0; c < h.geo.count(); ++c) {
        const std::size_t begin = h.geo.begin(c);
        const std::size_t len = h.geo.length(c);
        if (dst.size() < begin + len) dst.resize(begin + len);
        const auto chunk = in.next_chunk(len * sizeof(double));
        const std::span<double> out{dst.data() + begin, len};
        if (chunk.style != FrameStyle::kRef) {
          decode_chunk(comp, chunk, out);
          literals.emplace(chunk.hash, c);
          continue;
        }
        ++rec.chunks_deduped;
        const auto lit = literals.find(chunk.hash);
        if (lit == literals.end()) {
          pending[{id, chunk.hash}].push_back({begin, len});
          continue;
        }
        // Within-stream duplicate: the literal's decoded doubles are exactly
        // what decoding its payload again would give.
        if (h.geo.length(lit->second) != len)
          throw corrupt_stream_error("recover: reference length mismatch");
        std::copy_n(dst.data() + h.geo.begin(lit->second), len, out.data());
        verify_ref_hash(comp, out, chunk.hash, e.name);
      }
      rec.chunks += h.geo.count();
      rec.raw_bytes += h.geo.elems * sizeof(double);
    }
    in.expect_end();
    rec.stored_bytes = in.stream_bytes();
  }

  // Chain walk: each base is read once, nearest first, and every literal it
  // holds for a pending (variable, hash) is decoded straight into the
  // waiting slices.
  int base = rec.base_version;
  std::uint32_t chain_len = rec.chain_len;
  while (!pending.empty()) {
    if (base < 0)
      throw corrupt_stream_error(
          "recover: delta chain is missing chunks for variable id " +
          std::to_string(pending.begin()->first.first) +
          " (base checkpoint pruned or invalidated?)");
    auto src = store_->open_read(base);
    FrameReader in(*src);
    if (in.chain_len() + 1 != chain_len || in.base_version() >= base)
      throw corrupt_stream_error("recover: delta chain links disagree at " +
                                 std::to_string(base));
    const auto count = in.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto id = in.get<std::int32_t>();
      (void)in.get_string();
      const auto kind = static_cast<VarKind>(in.get<std::uint8_t>());
      if (kind == VarKind::kBlob) {
        in.skip(in.get<std::uint64_t>());
        continue;
      }
      if (kind != VarKind::kVector)
        throw corrupt_stream_error("recover: unknown variable kind");
      const VectorHeader h = read_vector_header(in);
      const auto first = pending.lower_bound({id, 0});
      const bool wanted = first != pending.end() && first->first.first == id;
      for (std::size_t c = 0; c < h.geo.count(); ++c) {
        const auto chunk = in.next_chunk(h.geo.length(c) * sizeof(double));
        if (!wanted || chunk.style == FrameStyle::kRef) continue;
        const auto p = pending.find({id, chunk.hash});
        if (p == pending.end()) continue;
        // The base's payloads were produced by the compressor recorded in
        // *its* stream; feeding them to a different registered decoder
        // (compressor swapped mid-chain via unprotect/protect) would
        // corrupt state silently.
        const Entry& e = entries_.at(id);
        const Compressor& comp = *compressor_for(e);
        if (comp.name() != h.codec)
          throw corrupt_stream_error(
              "recover: compressor mismatch in delta chain for variable " +
              e.name + " (base stored " + h.codec + ", registered " +
              comp.name() + ")");
        for (const Slot& s : p->second) {
          if (s.len != h.geo.length(c))
            throw corrupt_stream_error("recover: reference length mismatch");
          const std::span<double> out{e.dst->data() + s.begin, s.len};
          decode_chunk(comp, chunk, out);
          verify_ref_hash(comp, out, chunk.hash, e.name);
        }
        pending.erase(p);
      }
    }
    in.expect_end();
    rec.stored_bytes += in.stream_bytes();
    base = in.base_version();
    chain_len = in.chain_len();
  }

  rec.compress_seconds = timer.seconds();
  if (sink_.metrics != nullptr)
    sink_.metrics->observe("ckpt.recover_seconds", rec.compress_seconds);
  recovery_pending_ = false;
  return rec;
}

CheckpointRecord CheckpointManager::snapshot() {
  if (recovery_pending_ && has_checkpoint()) return recover();
  recovery_pending_ = false;
  return checkpoint();
}

}  // namespace lck
