/// Measured resilient-solve benchmark.
///
/// Runs the paper's Algorithm 1 (traditional/lossless: every dynamic vector
/// plus scalars, exact resume) and Algorithm 2 (lossy: x only, restart from
/// the decompressed x) for real on this host, through the public lck.hpp
/// API. One process, one solve at a time (a closed loop): each solve builds
/// its problem, calls IterativeSolver::step() until convergence,
/// checkpoints through CheckpointManager on a fixed iteration cadence,
/// injects failures from a seeded FailureInjector clocked in iteration
/// slots, and recovers with recover() plus restart() or
/// resume_after_restore(). No virtual clock is involved.
///
///   resilient_bench --workload <name> --seed <n> --seconds <s> --trace 0|1
///                   --workdir <dir> [--trace-out <file>]
///
/// --trace 0 measures the end-to-end metrics on the bare library objects.
/// --trace 1 alternates bare and traced solves of the same schedules: the
/// traced ones run through the forwarding decorators of traced.hpp and give
/// the per-layer metrics; the pairs give the tracing overhead. The last
/// line of stdout is one JSON object {correct, attempted, failed, metrics}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ckpt/tier/partner_store.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/crc32.hpp"
#include "common/simd.hpp"
#include "lck.hpp"
#include "traced.hpp"

namespace {

namespace fs = std::filesystem;
using lck::index_t;
using perfbench::Scope;
using perfbench::Span;
using perfbench::SpanRecorder;

enum class Mode { kAsync, kTiered };

struct Workload {
  const char* name;
  const char* why;
  const char* method;   ///< "cg" | "jacobi"
  index_t grid;         ///< Poisson grid edge; the matrix is grid³ square.
  double rtol;
  bool precondition;    ///< bjacobi for CG.
  bool lossy;           ///< Algorithm 2 (x only) vs Algorithm 1.
  const char* codec;
  Mode mode;
  int ckpt_every;       ///< Checkpoint when iteration % ckpt_every == 0.
  double fail_every;    ///< Mean iteration slots between failures.
  bool severities;      ///< Sample the default severity mix.
  int delta_chain;      ///< set_delta() chain length; 0 = off.
  int schedules;        ///< Distinct failure schedules cycled in one run.
};

// Grid 24 keeps one solver's matrix and vectors (about 2 MB) near the size
// of a 2 MiB per-core L2. On a shared host, work that spills to the shared
// L3 or to memory ran up to 2x slower while neighbours were busy. Several
// distinct schedules per run keep the medians steady across seeds.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w{
      // Codec- and drain-bound: Algorithm 1 state through the staged
      // pipeline; deflate is slow enough that back-pressure dominates.
      {"cg-lossless-async", "codec- and drain-bound Algorithm 1 CG through stage/wait_drain/commit: codec and async pipeline work show here",
       "cg", 24, 1e-8, true, false, "deflate", Mode::kAsync, 4, 15.0, false, 0, 32},
      // Recovery-heavy: delta checkpoints into the 3-level hierarchy with
      // the default severity mix, so L1, L2 and L3 each serve recoveries.
      // Which tier and chain position each recovery gets is set by its
      // schedule; 48 schedules keep that mix, and so recover_ms_p50, close
      // to the same for every seed.
      {"jacobi-tiered-delta", "recovery-heavy Algorithm 2 Jacobi with delta checkpoints into L1/L2/L3-dedup tiers: wire-format, tier and restore work show here",
       "jacobi", 24, 1e-4, false, true, "sz", Mode::kTiered, 10, 60.0, true, 4, 48},
  };
  return w;
}

/// Weibull shape of the failure inter-arrival times (mean = fail_every).
/// Exponential arrivals (shape 1, paper §5.4) gave an unpreconditioned
/// lossy CG solve 0, 1, 2 or 3 failures by chance, which moved a run's
/// median solve_s by ±40% between seeds; shape 8 keeps the failure count
/// per solve nearly fixed
/// (coefficient of variation 0.15) while the seed still decides where each
/// failure lands and how severe it is.
constexpr double kArrivalShape = 8.0;

/// Hard stop: a run that cannot finish its schedules in this time fails
/// instead of overrunning the caller's 180 s limit.
constexpr double kMaxRunSeconds = 120.0;

/// End-to-end times are reported at a reference host speed: raw seconds ×
/// kProbeRefSeconds / (the run's median probe_seconds()). On a shared host
/// every kind of work here (solver, codec, set-up) slowed by 1.4–1.6×
/// together from one ten-minute window to the next; the probe, run before
/// each solve, moves with it and cancels it.
constexpr double kProbeRefSeconds = 1e-3;

/// Host-speed probe: 7-point stencil sweeps over a 24³ grid, the workloads'
/// size, written here so that no library change can move it.
double probe_seconds() {
  constexpr int n = 24;
  constexpr int sweeps = 64;
  static std::vector<double> a(n * n * n, 1.0), b(n * n * n, 1.0);
  static volatile double sink = 0.0;
  const lck::WallTimer t;
  for (int s = 0; s < sweeps; ++s) {
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        for (int k = 1; k < n - 1; ++k) {
          const int c = (i * n + j) * n + k;
          b[c] = (a[c - 1] + a[c + 1] + a[c - n] + a[c + n] + a[c - n * n] +
                  a[c + n * n]) * (1.0 / 6.0) + 1e-3;
        }
    std::swap(a, b);
  }
  const double secs = t.seconds();
  sink = sink + a[n * n * n / 2];
  return secs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "resilient_bench: %s\nusage: resilient_bench --workload <name> "
               "--seed <n> --seconds <s> --trace 0|1 --workdir <dir> "
               "[--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(o.seconds > 0.0))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (flag == "--workdir") {
      o.workdir = val;
    } else if (flag == "--trace-out") {
      o.trace_out = val;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.workdir.empty())
    usage("--workload, --seed and --workdir are required");
  return o;
}

/// splitmix64: the failure schedule of (run seed, schedule index).
std::uint64_t schedule_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x100000001b3ull + static_cast<std::uint64_t>(k) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::span<const lck::byte_t> bytes_of(const lck::Vector& v) {
  return {reinterpret_cast<const lck::byte_t*>(v.data()),
          v.size() * sizeof(double)};
}

/// Deterministic outcome of one solve: identical for every solve of the
/// same schedule, in every run, traced or not.
struct Counts {
  index_t iters = 0;     ///< N + N': the solver's logical iteration count.
  index_t steps = 0;     ///< step() calls, rollback re-execution included.
  int checkpoints = 0;   ///< Checkpoint events (checkpoint() or stage()).
  int committed = 0;
  int failures = 0;
  std::array<int, 3> by_tier{};  ///< Recoveries served per tier (tiered).
  std::size_t stored_bytes = 0;  ///< Sum over committed checkpoints.
  std::size_t chunks = 0;
  std::size_t chunks_deduped = 0;
  bool operator==(const Counts&) const = default;
};

struct SolveResult {
  Counts counts;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< Bench verification time excluded.
  double cpu_s = 0.0;
  double verify_s = 0.0;
  double t_begin = 0.0, t_end = 0.0;  ///< Recorder clock (traced solves).
  std::vector<double> block_ms;
  std::vector<double> recover_ms;
  bool converged = false;
  double true_rel_residual = 0.0;
  int bad_recoveries = 0;     ///< Restored state failed its check.
  int failed_ops = 0;         ///< Checkpoints/recoveries that threw.
  std::string error;
  std::vector<std::uint32_t> blob_crcs;  ///< Self-check only.
  // Traced solves only.
  std::uint64_t vector_passes = 0;
  std::size_t l3_physical = 0, l3_logical = 0, dedup_hits = 0;
  double background_cpu_s = 0.0;  ///< Writer or promoter thread CPU.
  std::size_t encoded_bytes = 0;
};

struct ProblemShape {
  index_t rows = 0;
  index_t nnz = 0;
};

/// The store itself when untraced, else the store behind a TracedStore.
std::unique_ptr<lck::CheckpointStore> wrap(std::unique_ptr<lck::CheckpointStore> store,
                                           const char* backend, SpanRecorder* rec) {
  if (rec == nullptr) return store;
  return std::make_unique<perfbench::TracedStore>(std::move(store), backend, *rec);
}

/// Run one resilient solve. `rec` non-null ⇒ traced (decorated objects).
/// `readback` ⇒ CRC-32 every committed blob (self-check; not timed).
SolveResult run_solve(const Workload& w, std::uint64_t sched_seed,
                      const std::string& dir, SpanRecorder* rec,
                      bool readback, ProblemShape* shape) {
  SolveResult out;
  const double eb = 1e-4;
  // The previous solve's store directory goes before set-up is timed.
  std::error_code ec;
  fs::remove_all(dir, ec);

  // ----- set-up ------------------------------------------------------------
  const lck::WallTimer setup_timer;
  lck::LocalProblem prob = lck::make_local_problem(
      w.method, w.grid, w.rtol, 2000000, w.precondition);
  auto solver = prob.make_solver();
  if (shape != nullptr) *shape = {prob.a.rows(), prob.a.nnz()};
  fs::create_directories(dir);

  const auto codec = lck::make_compressor(w.codec, lck::ErrorBound::pointwise_rel(eb));
  std::unique_ptr<perfbench::TracedCompressor> traced_codec;
  const lck::Compressor* comp = codec.get();
  if (rec != nullptr) {
    traced_codec = std::make_unique<perfbench::TracedCompressor>(*codec, *rec);
    comp = traced_codec.get();
  }

  lck::TieredCheckpointStore* tiered = nullptr;
  const lck::DedupChunkStore* l3 = nullptr;
  std::unique_ptr<lck::CheckpointStore> store;
  if (w.mode == Mode::kTiered) {
    // make_tiered_store(2, 1, 4, dir, true)'s hierarchy, built here so that
    // traced solves can decorate L1 and L3; the L2 PartnerStore stays bare
    // (see traced.hpp).
    auto l3_store = std::make_unique<lck::DedupChunkStore>(dir);
    l3 = l3_store.get();
    std::vector<lck::TieredCheckpointStore::Level> levels;
    levels.push_back({lck::TierSpec{"L1-local", lck::FailureSeverity::kProcess, 2, 1},
                      wrap(std::make_unique<lck::MemoryStore>(), "l1", rec)});
    levels.push_back({lck::TierSpec{"L2-partner", lck::FailureSeverity::kNode, 2, 1},
                      std::make_unique<lck::PartnerStore>()});
    levels.push_back({lck::TierSpec{"L3-pfs", lck::FailureSeverity::kSystem, 2, 4},
                      wrap(std::move(l3_store), "l3", rec)});
    auto ts = std::make_unique<lck::TieredCheckpointStore>(std::move(levels), true);
    // One promotion in flight: the promoter always finds its source in L1,
    // so which tier holds what — and the dedup counts — repeat exactly.
    ts->set_max_inflight_promotions(1);
    tiered = ts.get();
    store = std::move(ts);
  } else {
    store = wrap(std::make_unique<lck::DiskStore>(dir), "disk", rec);
  }

  lck::CheckpointManager manager(std::move(store), comp);
  manager.set_retention(w.mode == Mode::kTiered ? (1 << 28) : 2);
  if (w.delta_chain > 0) manager.set_delta(w.delta_chain);

  lck::Vector x_buf;                 // Algorithm 2 restore target
  std::vector<lck::byte_t> iter_blob, scalar_blob;
  std::vector<lck::ProtectedVar> trad_vars;
  if (w.lossy) {
    const lck::Vector& live_x = solver->solution();
    x_buf.assign(live_x.size(), 0.0);
    manager.protect(0, "x", &live_x, &x_buf);
    manager.protect_blob(1, "iter", &iter_blob);
  } else {
    trad_vars = solver->checkpoint_vectors();
    int id = 0;
    for (const auto& var : trad_vars) manager.protect(id++, var.name, var.data);
    manager.protect_blob(100, "scalars", &scalar_blob);
  }

  lck::FailureInjector injector(w.fail_every, sched_seed);
  injector.set_weibull(kArrivalShape,
                       w.fail_every / std::tgamma(1.0 + 1.0 / kArrivalShape));
  if (w.severities) injector.set_severity_weights(lck::kDefaultSeverityWeights);
  out.setup_s = setup_timer.seconds();

  // ----- bench-side verification state (excluded from the timings) --------
  // Snapshot of the protected state per version, taken when it is
  // checkpointed, so a recovery can be checked against exactly what was
  // saved: bit-identical (CRC-32) for Algorithm 1, within the pointwise
  // bound for Algorithm 2.
  std::map<int, std::vector<lck::byte_t>> shadow;
  const std::size_t shadow_cap = w.mode == Mode::kTiered ? 64 : 4;
  const auto snapshot_state = [&](int version) {
    std::vector<lck::byte_t> s;
    if (w.lossy) {
      const auto b = bytes_of(solver->solution());
      s.assign(b.begin(), b.end());
    } else {
      for (const auto& var : trad_vars) {
        const auto b = bytes_of(*var.data);
        s.insert(s.end(), b.begin(), b.end());
      }
      s.insert(s.end(), scalar_blob.begin(), scalar_blob.end());
    }
    shadow[version] = std::move(s);
    while (shadow.size() > shadow_cap) shadow.erase(shadow.begin());
  };
  const auto restored_ok = [&](int version) {
    const auto it = shadow.find(version);
    if (it == shadow.end()) return false;
    const auto& saved = it->second;
    if (w.lossy) {
      if (saved.size() != x_buf.size() * sizeof(double)) return false;
      for (std::size_t i = 0; i < x_buf.size(); ++i) {
        double orig = 0.0;
        std::memcpy(&orig, saved.data() + i * sizeof(double), sizeof(double));
        if (!(std::abs(x_buf[i] - orig) <= eb * std::abs(orig) * (1.0 + 1e-9)))
          return false;
      }
      return true;
    }
    lck::Crc32 crc;
    std::size_t n = 0;
    for (const auto& var : trad_vars) {
      crc.update(bytes_of(*var.data));
      n += var.data->size() * sizeof(double);
    }
    crc.update(scalar_blob);
    n += scalar_blob.size();
    return n == saved.size() && crc.value() == lck::crc32(saved);
  };

  lck::WallTimer verify_timer;
  double verify_cpu = 0.0;
  const auto verify_begin = [&] {
    verify_timer.reset();
    verify_cpu -= lck::CpuTimer::now();
  };
  const auto verify_end = [&] {
    out.verify_s += verify_timer.seconds();
    verify_cpu += lck::CpuTimer::now();
  };
  const auto note_committed = [&](const lck::CheckpointRecord& r) {
    ++out.counts.committed;
    out.counts.stored_bytes += r.stored_bytes;
    out.counts.chunks += r.chunks;
    out.counts.chunks_deduped += r.chunks_deduped;
    if (readback) out.blob_crcs.push_back(lck::crc32(manager.store().read(r.version)));
  };

  // ----- the resilient solve ----------------------------------------------
  int inflight = -1;  // async: staged, not yet committed
  const auto capture = [&] {
    const Scope s(rec, "solvers.capture");
    (void)solver->solution();
    lck::ByteWriter bw;
    if (w.lossy)
      bw.put(static_cast<std::int64_t>(solver->iteration()));
    else
      solver->save_scalars(bw);
    (w.lossy ? iter_blob : scalar_blob) = std::move(bw).take();
  };
  const auto do_checkpoint = [&] {
    capture();
    const lck::WallTimer t;
    std::optional<lck::CheckpointRecord> committed;
    int staged = -1;
    if (w.mode == Mode::kAsync) {
      if (inflight >= 0) {
        {
          const Scope s(rec, "ckpt.wait_drain");
          committed = manager.wait_drain(inflight);
        }
        const Scope s(rec, "ckpt.commit_version");
        manager.commit_version(inflight);
        inflight = -1;
      }
      const Scope s(rec, "ckpt.stage");
      staged = inflight = manager.stage().version;
    } else {
      const Scope s(rec, "ckpt.checkpoint");
      committed = manager.checkpoint();
      staged = committed->version;
    }
    out.block_ms.push_back(t.seconds() * 1e3);
    ++out.counts.checkpoints;
    const Scope s(rec, "bench.verify");
    verify_begin();
    snapshot_state(staged);
    if (committed) note_committed(*committed);
    verify_end();
  };
  const auto do_recover = [&](lck::FailureSeverity sev) {
    ++out.counts.failures;
    if (tiered != nullptr) {
      // Queued promotions finish first, so the tier that serves this
      // recovery depends on the schedule alone. The wait is the promoter's
      // L3 writes, not recovery work, so recover_ms starts after it.
      const Scope s(rec, "tier.drain_promotions");
      tiered->drain_promotions();
    }
    const lck::WallTimer t;
    int level = -1;
    if (inflight >= 0) {
      const Scope s(rec, "ckpt.abort_version");
      manager.abort_version(inflight);
      inflight = -1;
    }
    if (tiered != nullptr) {
      const Scope s(rec, "tier.invalidate");
      tiered->invalidate(sev);
    }
    int version = -1;
    if (manager.has_checkpoint()) {
      if (tiered != nullptr) level = tiered->level_of(tiered->latest_version());
      {
        const Scope s(rec, "ckpt.recover");
        version = manager.recover().version;
      }
      const Scope s(rec, "solvers.restart");
      if (w.lossy) {
        solver->restart(x_buf);
        lck::ByteReader br(iter_blob);
        solver->set_iteration(br.get<std::int64_t>());
      } else {
        lck::ByteReader br(scalar_blob);
        solver->restore_scalars(br);
        solver->resume_after_restore();
      }
    } else {
      // No committed checkpoint yet: global restart from the initial guess.
      const Scope s(rec, "solvers.restart");
      solver->restart(lck::Vector(prob.b.size(), 0.0));
      solver->set_iteration(0);
    }
    out.recover_ms.push_back(t.seconds() * 1e3);
    if (level >= 0 && level < 3) ++out.counts.by_tier[static_cast<std::size_t>(level)];
    if (version >= 0) {
      const Scope s(rec, "bench.verify");
      verify_begin();
      if (!restored_ok(version)) ++out.bad_recoveries;
      verify_end();
    }
  };

  const std::uint64_t passes0 = lck::obs::vector_passes();
  const lck::WallTimer wall;
  const lck::CpuTimer cpu;
  if (rec != nullptr) out.t_begin = rec->now();
  try {
    do_checkpoint();  // iteration 0: every failure has a version to recover
    double slot = 0.0;
    const index_t max_steps = 50000;
    while (!solver->converged() && out.counts.steps < max_steps) {
      if (injector.interrupts(slot, 1.0)) {
        const lck::FailureSeverity sev = injector.severity();
        slot += 1.0;
        injector.arm(slot);
        do_recover(sev);
        continue;
      }
      {
        const Scope s(rec, "solvers.step");
        solver->step();
      }
      slot += 1.0;
      ++out.counts.steps;
      if (solver->iteration() % w.ckpt_every == 0 && !solver->converged())
        do_checkpoint();
    }
  } catch (const std::exception& e) {
    ++out.failed_ops;
    out.error = e.what();
  }
  if (rec != nullptr) out.t_end = rec->now();
  out.wall_s = wall.seconds() - out.verify_s;
  out.cpu_s = cpu.seconds() - verify_cpu;
  out.vector_passes = lck::obs::vector_passes() - passes0;
  out.counts.iters = solver->iteration();
  out.converged = solver->converged();

  // ----- after the timed interval -----------------------------------------
  if (tiered != nullptr) {
    tiered->drain_promotions();
    if (l3 != nullptr) {
      out.l3_physical = l3->physical_bytes();
      out.l3_logical = l3->logical_bytes();
      out.dedup_hits = l3->dedup_hits();
    }
  }
  if (rec != nullptr) {
    out.background_cpu_s = rec->store_thread_cpu_seconds();
    rec->forget_threads();
  }
  if (traced_codec != nullptr) out.encoded_bytes = traced_codec->encoded_bytes();
  lck::Vector r(prob.b.size());
  prob.a.residual(prob.b, solver->solution(), r);
  out.true_rel_residual = lck::norm2(r) / lck::norm2(prob.b);
  return out;
}

// ----- per-layer aggregation over traced solves -----------------------------

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}
bool is(const Span& s, const char* name) { return std::strcmp(s.name, name) == 0; }

struct SolveSpans {
  std::vector<Span> spans;  ///< Spans of one solve, parents re-indexed.
  std::vector<double> self;  ///< Per span: duration minus its children.
};

/// Spans of one solve. A parent is always on its children's thread, and
/// those children run one after another, so self time is the span's
/// duration minus the sum of its children's. A parent precedes its
/// children in recording order.
SolveSpans spans_of(const std::vector<Span>& all, int solve) {
  SolveSpans s;
  std::map<int, int> remap;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].solve == solve) {
      remap[static_cast<int>(i)] = static_cast<int>(s.spans.size());
      s.spans.push_back(all[i]);
    }
  s.self.resize(s.spans.size());
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    Span& sp = s.spans[i];
    const auto it = remap.find(sp.parent);
    sp.parent = it != remap.end() ? it->second : -1;
    const double d = sp.end - sp.start;
    s.self[i] += d;
    if (sp.parent >= 0) s.self[static_cast<std::size_t>(sp.parent)] -= d;
  }
  return s;
}

struct JsonOut {
  std::string body;
  void add(const std::string& name, double value, const char* unit) {
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit);
    body += buf;
  }
};

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return;
  f << "{\"spans\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d, \"solve\": %d, \"thread\": %d, \"bytes\": %llu}",
                  i == 0 ? "" : ",\n", s.name, s.start, s.end, s.parent, s.solve,
                  s.thread, static_cast<unsigned long long>(s.bytes));
    f << buf;
  }
  f << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const Workload* wp = nullptr;
  for (const auto& w : workloads())
    if (opt.workload == w.name) wp = &w;
  if (wp == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const Workload& w = *wp;

  // Thread budget: OpenMP team + async writer + promoter <= nproc. The team
  // is one thread: at these L2-resident sizes a team of two was slower and
  // its fork/join barriers made the timings swing with the host's load.
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const int team = 1;
#ifdef _OPENMP
  omp_set_num_threads(team);
#endif
  const long l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);

  // ----- the measured loop --------------------------------------------------
  // Solve i runs schedule i % K. With --trace 1 every schedule runs twice in
  // a row, bare then traced.
  std::unique_ptr<SpanRecorder> recorder;
  if (opt.trace) recorder = std::make_unique<SpanRecorder>();
  const std::string solve_dir = opt.workdir + "/store";
  const int K = w.schedules;

  bool correct = true;
  std::vector<std::string> problems;
  const auto fail = [&](const std::string& why) {
    correct = false;
    if (problems.size() < 8) problems.push_back(why);
  };

  ProblemShape shape;
  // Self-check (trace runs): a decorated and a bare solve of schedule 0 must
  // give identical counts and identical CRC-32s of every committed blob.
  if (opt.trace) {
    SpanRecorder scratch;
    const auto bare = run_solve(w, schedule_seed(opt.seed, 0), solve_dir, nullptr, true, &shape);
    const auto dec = run_solve(w, schedule_seed(opt.seed, 0), solve_dir, &scratch, true, nullptr);
    if (!(bare.counts == dec.counts)) fail("decorated run changed the counts");
    if (bare.blob_crcs != dec.blob_crcs || bare.blob_crcs.empty())
      fail("decorated run changed the committed blobs");
  }

  std::vector<SolveResult> bare, traced;
  std::vector<double> probe;  // probe_seconds() before each bare solve
  std::vector<int> traced_ids;  // span solve id of each traced solve
  std::map<int, Counts> first_counts;
  std::size_t pooled_ckpts = 0;
  const lck::WallTimer run_timer;
  int solve_id = 0;
  for (int i = 0;; ++i) {
    const bool enough = run_timer.seconds() >= opt.seconds && i >= K &&
                        pooled_ckpts >= 100;
    if (enough) break;
    if (run_timer.seconds() > kMaxRunSeconds) {
      fail("run exceeded its time limit before every schedule finished");
      break;
    }
    const int k = i % K;
    const int passes = opt.trace ? 2 : 1;
    for (int p = 0; p < passes; ++p) {
      SpanRecorder* rec = p == 1 ? recorder.get() : nullptr;
      if (rec != nullptr) rec->set_solve(solve_id);
      else probe.push_back(probe_seconds());
      SolveResult r = run_solve(w, schedule_seed(opt.seed, k), solve_dir, rec,
                                false, &shape);
      if (rec != nullptr) rec->set_solve(-1);
      if (!r.error.empty()) fail("solve threw: " + r.error);
      if (!r.converged) fail("solve did not converge");
      if (!(r.true_rel_residual <= w.rtol))
        fail("true residual " + std::to_string(r.true_rel_residual) + " above rtol");
      if (r.bad_recoveries > 0) fail("a recovery did not restore the checkpointed state");
      const auto [it, first] = first_counts.emplace(k, r.counts);
      if (!first && !(it->second == r.counts)) fail("counts did not repeat for a schedule");
      if (rec != nullptr) {
        traced.push_back(std::move(r));
        traced_ids.push_back(solve_id);
      } else {
        pooled_ckpts += r.block_ms.size();
        bare.push_back(std::move(r));
      }
      ++solve_id;
    }
  }
  std::error_code ec;
  fs::remove_all(solve_dir, ec);

  // ----- end-to-end metrics (bare solves) -----------------------------------
  std::vector<double> solve_s, cpu_s, setup_s, block_ms, recover_ms;
  std::size_t attempted = 0, failed = 0;
  for (const auto& r : bare) {
    solve_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
    setup_s.push_back(r.setup_s);
    block_ms.insert(block_ms.end(), r.block_ms.begin(), r.block_ms.end());
    recover_ms.insert(recover_ms.end(), r.recover_ms.begin(), r.recover_ms.end());
  }
  for (const auto* set : {&bare, &traced})
    for (const auto& r : *set) {
      attempted += r.block_ms.size() + r.recover_ms.size();
      failed += static_cast<std::size_t>(r.bad_recoveries + r.failed_ops);
    }
  // Counts are means over the first solve of each schedule, so they depend
  // on the seed alone, never on how many solves fit into the run.
  double iters = 0.0, steps = 0.0, stored = 0.0, committed = 0.0;
  for (const auto& [k, c] : first_counts) {
    iters += static_cast<double>(c.iters) / K;
    steps += static_cast<double>(c.steps) / K;
    stored += static_cast<double>(c.stored_bytes);
    committed += c.committed;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // ----- host record and human-readable report ------------------------------
  const double ws_bytes =
      static_cast<double>(shape.nnz) * 12.0 + static_cast<double>(shape.rows) * 8.0 * 8.0;
  std::printf("# host: nproc=%ld omp_team=%d simd=%s l3_bytes=%ld compiler=\"%s\" "
              "build=%s\n",
              nproc, team, lck::simd::isa_name(lck::simd::active_isa()), l3_bytes,
              __VERSION__, LCK_BENCH_BUILD_TYPE);
  std::printf("# workload %s (%s): rows=%lld nnz=%lld working_set_bytes=%.0f "
              "(%.2fx L3), seed=%llu, schedules=%d\n",
              w.name, w.why, static_cast<long long>(shape.rows),
              static_cast<long long>(shape.nnz), ws_bytes,
              l3_bytes > 0 ? ws_bytes / static_cast<double>(l3_bytes) : 0.0,
              static_cast<unsigned long long>(opt.seed), K);
  std::printf("# samples: solves=%zu checkpoints=%zu recoveries=%zu traced_solves=%zu\n",
              bare.size(), block_ms.size(), recover_ms.size(), traced.size());
  for (const auto& why : problems) std::printf("# CHECK FAILED: %s\n", why.c_str());

  JsonOut m;
  if (!opt.trace) {
    const auto row = [&](const char* name, double v, const char* unit,
                         std::size_t n) {
      std::printf("# %-24s %14.6g %-6s (n=%zu)\n", name, v, unit, n);
      m.add(name, v, unit);
    };
    const double probe_s = median(probe);
    const double scale = probe_s > 0.0 ? kProbeRefSeconds / probe_s : 1.0;
    std::printf("# host probe %.6g s (n=%zu): times are raw x %.6g\n", probe_s,
                probe.size(), scale);
    const auto timed = [&](const char* name, double raw, const char* unit,
                           std::size_t n) {
      std::printf("# %-24s %14.6g %-6s raw %.6g (n=%zu)\n", name, raw * scale,
                  unit, raw, n);
      m.add(name, raw * scale, unit);
    };
    timed("solve_s", median(solve_s), "s", solve_s.size());
    timed("solve_cpu_s", median(cpu_s), "s", cpu_s.size());
    timed("ckpt_block_ms_p50", percentile(block_ms, 0.5), "ms", block_ms.size());
    timed("ckpt_block_ms_p90", percentile(block_ms, 0.9), "ms", block_ms.size());
    timed("recover_ms_p50", median(recover_ms), "ms", recover_ms.size());
    row("stored_bytes_per_ckpt", committed > 0 ? stored / committed : 0.0, "bytes",
        static_cast<std::size_t>(committed));
    row("iters_to_converge", iters, "count", first_counts.size());
    row("steps_executed", steps, "count", first_counts.size());
    row("peak_rss_mb", peak_rss_mb, "MB", 1);
    timed("setup_s", median(setup_s), "s", setup_s.size());
  } else {
    // ----- per-layer metrics (traced solves) ---------------------------------
    const auto all = recorder->spans();
    if (!opt.trace_out.empty()) write_trace(opt.trace_out, all);
    std::map<std::string, std::vector<double>> per_solve;  // name -> one per solve
    std::map<std::string, std::vector<double>> pooled;     // name -> per call
    double enc_raw = 0, enc_s = 0, enc_out = 0, dec_raw = 0, dec_s = 0;
    std::vector<double> overhead, unattributed;
    std::vector<double> enc_calls, promos, chunks, deduped, tl1, tl2, tl3, st;
    for (std::size_t t = 0; t < traced.size(); ++t) {
      const SolveResult& r = traced[t];
      const SolveSpans ss = spans_of(all, traced_ids[t]);
      std::map<std::string, double> sum;
      double covered = 0.0, verify = 0.0, step_s = 0.0;
      for (std::size_t i = 0; i < ss.spans.size(); ++i) {
        const Span& s = ss.spans[i];
        const double d = s.end - s.start;
        const double self = ss.self[i];
        sum[std::string(s.name) + ".s"] += d;
        sum[std::string(s.name) + ".bytes"] += static_cast<double>(s.bytes);
        sum[std::string(s.name) + ".self"] += self;
        if (s.thread == 0 && s.parent < 0) {
          if (is(s, "bench.verify")) verify += d;
          else covered += d;
        }
        if (s.thread == 0 && (is(s, "solvers.step") || is(s, "solvers.restart") ||
                              is(s, "ckpt.recover") || is(s, "ckpt.stage") ||
                              is(s, "tier.invalidate")))
          pooled[s.name].push_back(d * 1e3);
        if (is(s, "solvers.step")) step_s += d;
        if (is(s, "store.l3.write")) sum["promotions"] += 1;
        if (is(s, "compress.encode")) {
          enc_raw += static_cast<double>(s.bytes);
          enc_s += d;
          sum["encode_calls"] += 1;
        }
        if (is(s, "compress.decode")) { dec_raw += static_cast<double>(s.bytes); dec_s += d; }
        if (s.thread != 0 && w.mode == Mode::kAsync &&
            (starts_with(s.name, "compress.") || starts_with(s.name, "store.")) &&
            (s.parent < 0))
          sum["drain"] += d;
      }
      enc_out += static_cast<double>(r.encoded_bytes);
      const double loop_wall = (r.t_end - r.t_begin) - verify;
      unattributed.push_back(loop_wall > 0 ? 1.0 - covered / loop_wall : 0.0);
      // Paired with the bare solve of the same schedule that ran just before.
      const double bare_wall = bare[t].wall_s;
      overhead.push_back(bare_wall > 0 ? r.wall_s / bare_wall - 1.0 : 0.0);
      const auto g = [&](const std::string& k) {
        const auto it = sum.find(k);
        return it != sum.end() ? it->second : 0.0;
      };
      const double computed_bytes =
          static_cast<double>(r.counts.steps) * static_cast<double>(shape.nnz) * 12.0 +
          static_cast<double>(r.vector_passes) * static_cast<double>(shape.rows) * 8.0;
      per_solve["solvers.step_s"].push_back(step_s);
      per_solve["solvers.computed_gb_s"].push_back(step_s > 0 ? computed_bytes / step_s / 1e9 : 0.0);
      per_solve["compress.encode_s"].push_back(g("compress.encode.s"));
      per_solve["compress.decode_s"].push_back(g("compress.decode.s"));
      per_solve["ckpt.checkpoint_self_s"].push_back(g("ckpt.checkpoint.self") +
                                                    g("ckpt.stage.self") +
                                                    g("ckpt.commit_version.self"));
      per_solve["ckpt.recover_self_s"].push_back(g("ckpt.recover.self"));
      per_solve["ckpt.backpressure_s"].push_back(g("ckpt.wait_drain.s"));
      per_solve["ckpt.drain_s"].push_back(g("drain"));
      per_solve["tier.promote_s"].push_back(w.mode == Mode::kTiered ? r.background_cpu_s : 0.0);
      per_solve["tier.promote_wait_s"].push_back(g("tier.drain_promotions.s"));
      double w_s = 0, r_s = 0, rm_s = 0, w_b = 0, r_b = 0;
      for (const char* b : {"disk", "l1", "l3"}) {
        const std::string p = std::string("store.") + b;
        w_s += g(p + ".write.s") + g(p + ".commit.s");
        r_s += g(p + ".read.s");
        rm_s += g(p + ".remove.s") + g(p + ".abort.s");
        w_b += g(p + ".write.bytes");
        r_b += g(p + ".read.bytes");
        per_solve[p + ".write_s"].push_back(g(p + ".write.s"));
        per_solve[p + ".commit_s"].push_back(g(p + ".commit.s"));
        per_solve[p + ".read_s"].push_back(g(p + ".read.s"));
        per_solve[p + ".remove_s"].push_back(g(p + ".remove.s") + g(p + ".abort.s"));
        per_solve[p + ".write_bytes"].push_back(g(p + ".write.bytes"));
        per_solve[p + ".read_bytes"].push_back(g(p + ".read.bytes"));
      }
      per_solve["store.write_s"].push_back(w_s);
      per_solve["store.read_s"].push_back(r_s);
      per_solve["store.remove_s"].push_back(rm_s);
      per_solve["store.write_bytes"].push_back(w_b);
      per_solve["store.read_bytes"].push_back(r_b);
      per_solve["chunk.l3_physical_bytes"].push_back(static_cast<double>(r.l3_physical));
      per_solve["chunk.l3_logical_bytes"].push_back(static_cast<double>(r.l3_logical));
      per_solve["chunk.dedup_hits"].push_back(static_cast<double>(r.dedup_hits));
      enc_calls.push_back(g("encode_calls"));
      promos.push_back(g("promotions"));
      const Counts& c = r.counts;
      chunks.push_back(static_cast<double>(c.chunks));
      deduped.push_back(static_cast<double>(c.chunks_deduped));
      tl1.push_back(c.by_tier[0]);
      tl2.push_back(c.by_tier[1]);
      tl3.push_back(c.by_tier[2]);
      st.push_back(static_cast<double>(c.steps));
    }
    const auto med = [&](const std::string& k) { return median(per_solve[k]); };
    // A layer that the workload does not use reads 0.
    const auto row = [&](const std::string& name, double v, const char* unit) {
      std::printf("# %-28s %14.6g %s\n", name.c_str(), v, unit);
      m.add(name, v, unit);
    };
    const std::size_t n_traced = traced.size();
    std::printf("# per-layer metrics: medians over %zu traced solves\n", n_traced);
    row("solvers.step_ms_p50", median(pooled["solvers.step"]), "ms");
    row("solvers.step_s", med("solvers.step_s"), "s");
    row("solvers.steps", median(st), "count");
    row("solvers.computed_gb_s", med("solvers.computed_gb_s"), "GB/s");
    row("solvers.restart_ms_p50", median(pooled["solvers.restart"]), "ms");
    row("compress.encode_s", med("compress.encode_s"), "s");
    row("compress.encode_mb_s", enc_s > 0 ? enc_raw / enc_s / 1e6 : 0.0, "MB/s");
    row("compress.encode_calls", median(enc_calls), "count");
    row("compress.decode_s", med("compress.decode_s"), "s");
    row("compress.decode_mb_s", dec_s > 0 ? dec_raw / dec_s / 1e6 : 0.0, "MB/s");
    row("compress.ratio", enc_out > 0 ? enc_raw / enc_out : 0.0, "1");
    {
      std::vector<double> per_ckpt;
      for (const auto& r : traced) per_ckpt.insert(per_ckpt.end(), r.block_ms.begin(), r.block_ms.end());
      row("ckpt.checkpoint_ms_p50", median(per_ckpt), "ms");
    }
    row("ckpt.checkpoint_self_s", med("ckpt.checkpoint_self_s"), "s");
    row("ckpt.recover_ms_p50", median(pooled["ckpt.recover"]), "ms");
    row("ckpt.recover_self_s", med("ckpt.recover_self_s"), "s");
    row("ckpt.chunks", median(chunks), "count");
    row("ckpt.chunks_deduped", median(deduped), "count");
    row("ckpt.stage_ms_p50", median(pooled["ckpt.stage"]), "ms");
    row("ckpt.backpressure_s", med("ckpt.backpressure_s"), "s");
    row("ckpt.drain_s", med("ckpt.drain_s"), "s");
    row("store.write_s", med("store.write_s"), "s");
    row("store.write_bytes", med("store.write_bytes"), "bytes");
    row("store.read_s", med("store.read_s"), "s");
    row("store.read_bytes", med("store.read_bytes"), "bytes");
    row("store.remove_s", med("store.remove_s"), "s");
    for (const char* b : {"disk", "l1", "l3"}) {
      const std::string p = std::string("store.") + b;
      row(p + ".write_bytes", med(p + ".write_bytes"), "bytes");
      row(p + ".read_bytes", med(p + ".read_bytes"), "bytes");
      for (const char* op : {"write", "commit", "read", "remove"})
        row(p + "." + op + "_s", med(p + "." + op + "_s"), "s");
    }
    row("tier.promotions", median(promos), "count");
    row("tier.recover_l1", median(tl1), "count");
    row("tier.recover_l2", median(tl2), "count");
    row("tier.recover_l3", median(tl3), "count");
    row("tier.promote_s", med("tier.promote_s"), "s");
    row("tier.promote_wait_s", med("tier.promote_wait_s"), "s");
    row("tier.invalidate_ms_p50", median(pooled["tier.invalidate"]), "ms");
    row("chunk.l3_physical_bytes", med("chunk.l3_physical_bytes"), "bytes");
    row("chunk.l3_logical_bytes", med("chunk.l3_logical_bytes"), "bytes");
    row("chunk.dedup_hits", med("chunk.dedup_hits"), "count");
    row("trace.overhead_frac", median(overhead), "1");
    row("trace.unattributed_frac", median(unattributed), "1");
    row("ops_failed_frac",
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
        "1");
  }
  if (failed > 0) correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, m.body.c_str());
  return 0;
}
