/// SIMD kernel-engine tests (PR 10): runtime dispatch and the LCK_FORCE_ISA
/// override, pack ops pinned against scalar arithmetic for every compiled
/// backend, gather-based CSR row kernels on adversarial shapes (empty rows,
/// one long row, unaligned dimensions), and the lane-canonical reduction
/// contract — dot/norm/fused kernels and the fused SpMV+norm pass must be
/// bit-identical across every ISA, every thread count, and sizes straddling
/// the 16Ki reduction-block boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/compressor.hpp"
#include "solvers/bicgstab.hpp"
#include "solvers/cg.hpp"
#include "sparse/csr.hpp"
#include "sparse/gen/random_spd.hpp"
#include "sparse/vector_ops.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lck {
namespace {

/// Every tier this binary can both dispatch to and execute on this CPU.
std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> v;
  const simd::Isa top = simd::supported_isa() < simd::compiled_isa()
                            ? simd::supported_isa()
                            : simd::compiled_isa();
  for (int i = 0; i <= static_cast<int>(top); ++i)
    v.push_back(static_cast<simd::Isa>(i));
  return v;
}

/// Restores dispatch to its default (env/CPUID) choice when a test that
/// called force_isa() leaves scope, so tests stay order-independent.
struct IsaGuard {
  ~IsaGuard() { simd::reset_isa(); }
};

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.uniform() * 2.0 - 1.0;
  return v;
}

void expect_bitwise_eq(std::span<const double> a, std::span<const double> b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

/// Sizes straddling the kReductionBlockElems = 16384 serial/blocked boundary.
const std::size_t kSizes[] = {1, 5, 16383, 16384, 16385, 50000, 100000};

template <typename F>
void for_each_thread_count(F&& body) {
#if defined(_OPENMP)
  const int prev = omp_get_max_threads();
  for (const int threads : {1, 2, 4, 8}) {
    omp_set_num_threads(threads);
    body(threads);
  }
  omp_set_num_threads(prev);
#else
  body(1);
#endif
}

// ---------------------------------------------------------------------------
// Dispatch and the LCK_FORCE_ISA override.
// ---------------------------------------------------------------------------

TEST(Dispatch, IsaNamesRoundTrip) {
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
        simd::Isa::kAvx512})
    EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
}

TEST(Dispatch, ParseIsaRejectsUnknownNamesListingValidOnes) {
  try {
    (void)simd::parse_isa("avx9000");
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    // Same diagnostic rule as make_compressor: a typo must be a one-look fix.
    EXPECT_NE(std::string(e.what()).find("scalar, sse2, avx2, avx512"),
              std::string::npos)
        << e.what();
  }
}

TEST(Dispatch, ActiveIsaIsRunnable) {
  IsaGuard guard;
  simd::reset_isa();
  const simd::Isa active = simd::active_isa();
  EXPECT_LE(active, simd::supported_isa());
  EXPECT_LE(active, simd::compiled_isa());
  EXPECT_EQ(simd::ops().isa, active);
}

TEST(Dispatch, ForceIsaPinsEveryRunnableTier) {
  IsaGuard guard;
  for (const simd::Isa isa : runnable_isas()) {
    simd::force_isa(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_EQ(simd::ops().isa, isa);
  }
}

TEST(Dispatch, ForceIsaAboveSupportedThrows) {
  if (simd::supported_isa() >= simd::Isa::kAvx512)
    GTEST_SKIP() << "CPU supports every tier; nothing to reject";
  IsaGuard guard;
  EXPECT_THROW(simd::force_isa(simd::Isa::kAvx512), config_error);
}

TEST(Dispatch, EnvForceIsaOverridesAndStrictParses) {
  const char* prev = std::getenv("LCK_FORCE_ISA");
  const std::string saved = prev != nullptr ? prev : "";
  const bool had = prev != nullptr;
  std::vector<byte_t> data(1000);
  Rng rng(3);
  for (auto& b : data) b = static_cast<byte_t>(rng());
  const std::uint32_t want = crc32(data);

  ::setenv("LCK_FORCE_ISA", "scalar", 1);
  simd::reset_isa();
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);

  ::setenv("LCK_FORCE_ISA", "avx9000", 1);
  simd::reset_isa();
  try {
    (void)simd::active_isa();
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("scalar, sse2, avx2, avx512"),
              std::string::npos)
        << e.what();
  }
  // CRC-32, which cannot throw, stays on its tables instead of ending the
  // process.
  EXPECT_EQ(simd::active_crc32_fold(), nullptr);
  EXPECT_EQ(crc32(data), want);

  if (had)
    ::setenv("LCK_FORCE_ISA", saved.c_str(), 1);
  else
    ::unsetenv("LCK_FORCE_ISA");
  simd::reset_isa();
  EXPECT_LE(simd::active_isa(), simd::supported_isa());  // re-prime the cache
}

TEST(Dispatch, OpsForUncompiledBackendThrows) {
  if (simd::compiled_isa() >= simd::Isa::kAvx512)
    GTEST_SKIP() << "all backends compiled in";
  EXPECT_THROW((void)simd::ops_for(simd::Isa::kAvx512), config_error);
}

// ---------------------------------------------------------------------------
// Pack ops: every backend's vector arithmetic against scalar reference.
// ---------------------------------------------------------------------------

TEST(Packs, SelftestPassesForEveryRunnableBackend) {
  for (const simd::Isa isa : runnable_isas()) {
    std::string msg;
    EXPECT_TRUE(simd::ops_for(isa).pack_selftest(&msg))
        << simd::isa_name(isa) << ": " << msg;
  }
}

// ---------------------------------------------------------------------------
// Lane-canonical reductions: cross-ISA and cross-thread-count bit identity,
// and agreement with the portable lane_sum_block reference.
// ---------------------------------------------------------------------------

TEST(LaneCanonical, DotNormBitIdenticalAcrossIsasThreadsAndSizes) {
  IsaGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector x = random_vector(n, 11);
    const Vector y = random_vector(n, 12);
    // Portable reference: the generic lane-canonical template.
    const auto xy = [&](index_t i) { return x[i] * y[i]; };
    const auto xx = [&](index_t i) { return x[i] * x[i]; };
    const double ref_dot =
        detail::deterministic_reduce_sum(static_cast<index_t>(n), xy);
    const double ref_nrm = std::sqrt(
        detail::deterministic_reduce_sum(static_cast<index_t>(n), xx));
    for (const simd::Isa isa : runnable_isas()) {
      simd::force_isa(isa);
      for_each_thread_count([&](int threads) {
        EXPECT_EQ(dot(x, y), ref_dot)
            << simd::isa_name(isa) << " n=" << n << " threads=" << threads;
        EXPECT_EQ(norm2(x), ref_nrm)
            << simd::isa_name(isa) << " n=" << n << " threads=" << threads;
        EXPECT_EQ(norm_inf(x), norm_inf(x)) << "norm_inf nondeterministic?";
      });
    }
  }
}

TEST(LaneCanonical, FusedKernelsBitIdenticalAcrossIsas) {
  IsaGuard guard;
  const std::size_t n = 20000;  // > one reduction block, not a lane multiple
  const Vector p = random_vector(n, 21);
  const Vector q = random_vector(n, 22);
  const Vector z = random_vector(n, 23);

  struct Snapshot {
    double axpy_nrm, pq, rr, wd, d2a, d2b, a2n;
    Vector y, x, r, w, zz;
  };
  std::vector<Snapshot> snaps;
  for (const simd::Isa isa : runnable_isas()) {
    simd::force_isa(isa);
    Snapshot s;
    s.y = random_vector(n, 24);
    s.axpy_nrm = axpy_norm2(0.37, p, s.y);
    s.x = random_vector(n, 25);
    s.r = random_vector(n, 26);
    const DotAxpyResult da = dot_axpy(p, q, 0.9, s.x, s.r);
    s.pq = da.pq;
    s.rr = da.rr;
    s.w = Vector(n, 0.0);
    s.wd = waxpy_dot(p, -0.61, q, s.w, z);
    const auto [d2a, d2b] = dot2(p, q, z);
    s.d2a = d2a;
    s.d2b = d2b;
    s.zz = random_vector(n, 27);
    s.a2n = axpy2_norm2(0.12, p, -0.45, q, s.zz);
    snaps.push_back(std::move(s));
  }
  for (std::size_t k = 1; k < snaps.size(); ++k) {
    const char* isa = simd::isa_name(runnable_isas()[k]);
    EXPECT_EQ(snaps[k].axpy_nrm, snaps[0].axpy_nrm) << isa;
    EXPECT_EQ(snaps[k].pq, snaps[0].pq) << isa;
    EXPECT_EQ(snaps[k].rr, snaps[0].rr) << isa;
    EXPECT_EQ(snaps[k].wd, snaps[0].wd) << isa;
    EXPECT_EQ(snaps[k].d2a, snaps[0].d2a) << isa;
    EXPECT_EQ(snaps[k].d2b, snaps[0].d2b) << isa;
    EXPECT_EQ(snaps[k].a2n, snaps[0].a2n) << isa;
    expect_bitwise_eq(snaps[k].y, snaps[0].y, isa);
    expect_bitwise_eq(snaps[k].x, snaps[0].x, isa);
    expect_bitwise_eq(snaps[k].r, snaps[0].r, isa);
    expect_bitwise_eq(snaps[k].w, snaps[0].w, isa);
    expect_bitwise_eq(snaps[k].zz, snaps[0].zz, isa);
  }
}

// ---------------------------------------------------------------------------
// CSR row kernels: the gather path (rows >= kSimdRowMinNnz) and the serial
// short-row path, on adversarial shapes.
// ---------------------------------------------------------------------------

/// Rows of every interesting length: empty, 1, short (serial path), exactly
/// kSimdRowMinNnz, one long row with a non-multiple-of-8 tail, and a full
/// row. Column count 23 keeps every dimension unaligned.
CsrMatrix adversarial_matrix() {
  const index_t cols = 23;
  const std::vector<index_t> lens = {0, 20, 1, 23, 7, 16, 17};
  std::vector<index_t> rp = {0};
  std::vector<index_t> ci;
  std::vector<double> vals;
  Rng rng(99);
  for (const index_t len : lens) {
    // Ascending distinct columns: sample a stride-1 window when len == cols,
    // otherwise spread len columns over [0, cols).
    for (index_t k = 0; k < len; ++k) {
      ci.push_back(len == cols ? k : (k * cols) / len);
      vals.push_back(rng.uniform() * 2.0 - 1.0);
    }
    rp.push_back(static_cast<index_t>(ci.size()));
  }
  return CsrMatrix(static_cast<index_t>(lens.size()), cols, std::move(rp),
                   std::move(ci), std::move(vals));
}

TEST(RowKernels, RowDotMatchesLaneCanonicalReferenceEverywhere) {
  const Vector x = random_vector(64, 31);
  Rng rng(32);
  for (const index_t len : {index_t{0}, index_t{1}, index_t{7}, index_t{15},
                            index_t{16}, index_t{17}, index_t{23}, index_t{24},
                            index_t{64}, index_t{100}}) {
    std::vector<index_t> col(static_cast<std::size_t>(len));
    std::vector<double> val(static_cast<std::size_t>(len));
    for (index_t k = 0; k < len; ++k) {
      col[static_cast<std::size_t>(k)] = (k * 37) % 64;
      val[static_cast<std::size_t>(k)] = rng.uniform() * 2.0 - 1.0;
    }
    // Reference realizes the row contract in portable code: serial below
    // kSimdRowMinNnz, one lane-canonical block above it.
    double ref;
    if (len < simd::kSimdRowMinNnz) {
      ref = 0.0;
      for (index_t k = 0; k < len; ++k)
        ref += val[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
    } else {
      auto term = [&](index_t k) {
        return val[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
      };
      ref = detail::lane_sum_block(index_t{0}, len, term);
    }
    for (const simd::Isa isa : runnable_isas())
      EXPECT_EQ(simd::ops_for(isa).row_dot(col.data(), val.data(), len,
                                           x.data()),
                ref)
          << simd::isa_name(isa) << " len=" << len;
  }
}

TEST(RowKernels, AdversarialShapesMatchRowwiseAcrossIsas) {
  IsaGuard guard;
  const CsrMatrix a = adversarial_matrix();
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), 41);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), 42);
  Vector ref(static_cast<std::size_t>(a.rows()));
  a.multiply_rowwise(x, ref);  // pinned to the scalar backend
  for (const simd::Isa isa : runnable_isas()) {
    simd::force_isa(isa);
    Vector y(static_cast<std::size_t>(a.rows()), -1.0);
    a.multiply(x, y);
    expect_bitwise_eq(y, ref, simd::isa_name(isa));
    Vector r1(y.size()), r2(y.size());
    a.residual(b, x, r1);
    const double fused = a.residual_norm2(b, x, r2);
    expect_bitwise_eq(r1, r2, "fused residual vector");
    EXPECT_EQ(fused, norm2(r1)) << simd::isa_name(isa);
  }
}

TEST(RowKernels, WideRowMatrixGatherPathMatchesRowwiseAcrossIsas) {
  IsaGuard guard;
  RandomSpdOptions opt;
  opt.n = 2000;
  opt.off_per_row = 24;  // rows well past kSimdRowMinNnz: gather path live
  const CsrMatrix a = random_dominant(opt);
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), 51);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), 52);
  Vector ref(static_cast<std::size_t>(a.rows()));
  a.multiply_rowwise(x, ref);
  for (const simd::Isa isa : runnable_isas()) {
    simd::force_isa(isa);
    Vector y(ref.size());
    a.multiply(x, y);
    expect_bitwise_eq(y, ref, simd::isa_name(isa));
    Vector r1(ref.size()), r2(ref.size());
    a.residual(b, x, r1);
    const double fused = a.residual_norm2(b, x, r2);
    expect_bitwise_eq(r1, r2, "fused residual vector");
    EXPECT_EQ(fused, norm2(r1)) << simd::isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// Whole-solver cross-ISA bit identity on a wide-row matrix (the gather
// kernels and every fused reduction in one trajectory).
// ---------------------------------------------------------------------------

TEST(SolverParity, CgAndBicgstabTrajectoriesBitIdenticalAcrossIsas) {
  IsaGuard guard;
  RandomSpdOptions opt;
  opt.n = 1500;
  opt.off_per_row = 24;
  const CsrMatrix a = random_dominant(opt);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), 61);
  SolveOptions sopts;
  sopts.rtol = 1e-30;  // never converge inside the window

  std::vector<std::vector<double>> cg_hist, bi_hist;
  std::vector<Vector> cg_x, bi_x;
  for (const simd::Isa isa : runnable_isas()) {
    simd::force_isa(isa);
    CgSolver cg(a, b, nullptr, sopts);
    BicgstabSolver bi(a, b, nullptr, sopts);
    std::vector<double> ch, bh;
    for (int it = 0; it < 25; ++it) {
      cg.step();
      bi.step();
      ch.push_back(cg.residual_norm());
      bh.push_back(bi.residual_norm());
    }
    cg_hist.push_back(std::move(ch));
    bi_hist.push_back(std::move(bh));
    cg_x.emplace_back(cg.solution().begin(), cg.solution().end());
    bi_x.emplace_back(bi.solution().begin(), bi.solution().end());
  }
  for (std::size_t k = 1; k < cg_hist.size(); ++k) {
    const char* isa = simd::isa_name(runnable_isas()[k]);
    EXPECT_EQ(cg_hist[k], cg_hist[0]) << "cg residuals, " << isa;
    EXPECT_EQ(bi_hist[k], bi_hist[0]) << "bicgstab residuals, " << isa;
    expect_bitwise_eq(cg_x[k], cg_x[0], isa);
    expect_bitwise_eq(bi_x[k], bi_x[0], isa);
  }
}

// ---------------------------------------------------------------------------
// Compression hot-loop kernels: pure byte/integer transforms, so every
// backend must produce identical output.
// ---------------------------------------------------------------------------

TEST(CompressionKernels, Shuffle8MatchesScalarAndRoundTrips) {
  Rng rng(71);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{64},
                              std::size_t{1000}}) {
    std::vector<byte_t> in(n * 8);
    for (auto& v : in) v = static_cast<byte_t>(rng.uniform() * 255.0);
    std::vector<byte_t> ref(in.size(), 0);
    simd::ops_for(simd::Isa::kScalar)
        .shuffle8(in.data(), ref.data(), n, 0, n);
    for (const simd::Isa isa : runnable_isas()) {
      const auto& o = simd::ops_for(isa);
      std::vector<byte_t> out(in.size(), 0);
      o.shuffle8(in.data(), out.data(), n, 0, n);
      EXPECT_EQ(out, ref) << simd::isa_name(isa) << " n=" << n;
      std::vector<byte_t> back(in.size(), 0);
      o.unshuffle8(out.data(), back.data(), n, 0, n);
      EXPECT_EQ(back, in) << simd::isa_name(isa) << " n=" << n;
      if (n > 4) {
        // Subrange form of the kernel API.
        std::vector<byte_t> sub(in.size(), 0), subref(in.size(), 0);
        simd::ops_for(simd::Isa::kScalar)
            .shuffle8(in.data(), subref.data(), n, 3, n - 2);
        o.shuffle8(in.data(), sub.data(), n, 3, n - 2);
        EXPECT_EQ(sub, subref) << simd::isa_name(isa) << " subrange n=" << n;
      }
    }
  }
}

TEST(CompressionKernels, Hist8MatchesNaiveHistogram) {
  Rng rng(72);
  const std::size_t alphabet = 256;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{4097}}) {
    std::vector<std::uint32_t> s(n);
    for (auto& v : s) v = static_cast<std::uint32_t>(rng.uniform() * 255.0);
    std::vector<std::uint64_t> naive(alphabet, 0);
    for (const std::uint32_t v : s) ++naive[v];
    for (const simd::Isa isa : runnable_isas()) {
      const auto& o = simd::ops_for(isa);
      std::vector<std::uint64_t> part(8 * alphabet, 0);
      o.hist8(s.data(), n, part.data(), alphabet);
      std::vector<std::uint64_t> freq(alphabet, 0);
      o.hist8_merge(part.data(), alphabet, freq.data());
      EXPECT_EQ(freq, naive) << simd::isa_name(isa) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Diagnostics: registries must name their members on a bad lookup.
// ---------------------------------------------------------------------------

TEST(Diagnostics, MakeCompressorUnknownNameListsRegisteredCodecs) {
  try {
    (void)make_compressor("nope", ErrorBound{});
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    const std::string w = e.what();
    for (const char* name : {"none", "rle", "shuffle-rle", "deflate",
                             "shuffle-deflate", "sz", "zfp", "trunc"})
      EXPECT_NE(w.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << w;
    EXPECT_EQ(w.find("lz4"), std::string::npos) << w;
  }
  // "lz4" and "shuffle-lz4" name no codec: they throw like any other.
  for (const char* name : {"lz4", "shuffle-lz4"})
    EXPECT_THROW((void)make_compressor(name, ErrorBound{}), config_error)
        << name;
}

}  // namespace
}  // namespace lck
