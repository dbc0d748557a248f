/// Domain scenario 3 — bring-your-own matrix: load a SuiteSparse Matrix
/// Market file (e.g. the paper's KKT240) and solve it with GMRES(30) under
/// lossy checkpointing; without an argument, a synthetic KKT saddle-point
/// system stands in (KKT240 is not redistributable, so Fig. 3 uses the
/// same synthetic substitute).
///
///   build/examples/custom_matrix [matrix.mtx] [--policy fixed|young|adaptive]
///                                [--delta <chain-len>]
///                                [--trace <path>] [--metrics <path>]
///                                [--spmv-bench]
///
/// --trace writes the run's checkpoint-lifecycle spans as Chrome
/// trace_event JSON (open in Perfetto); --metrics dumps the
/// MetricsSnapshot of the run as JSON. --spmv-bench skips the solve and
/// instead times SpMV on the loaded matrix under the scalar reference
/// backend vs the dispatched SIMD backend (plus the fused residual+norm
/// kernel vs its separate form) — the first "real matrices" kernel rows.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/perf_model.hpp"
#include "solvers/gmres.hpp"
#include "sparse/gen/kkt.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/vector_ops.hpp"

namespace {

/// Times SpMV and the fused residual-norm kernel on `a` under the scalar
/// reference backend vs the dispatched ISA. Returns the process exit code.
int run_spmv_bench(const lck::CsrMatrix& a) {
  using namespace lck;
  const simd::Isa active = simd::active_isa();
  Rng rng(13);
  Vector x(static_cast<std::size_t>(a.cols()));
  Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : x) v = rng.uniform() * 2.0 - 1.0;
  for (auto& v : b) v = rng.uniform() * 2.0 - 1.0;
  Vector y(static_cast<std::size_t>(a.rows()), 0.0);
  Vector r(static_cast<std::size_t>(a.rows()), 0.0);

  // Size reps so each timed segment is a few ms even on small matrices.
  const int reps = static_cast<int>(
      std::max<index_t>(1, 4'000'000 / std::max<index_t>(1, a.nnz())));
  const int trials = 7;
  volatile double guard = 0.0;

  simd::force_isa(simd::Isa::kScalar);
  const double spmv_scalar = time_cpu(
      [&] {
        a.multiply(x, y);
        guard = guard + y[0];
      },
      reps, trials);
  simd::force_isa(active);
  const double spmv_simd = time_cpu(
      [&] {
        a.multiply(x, y);
        guard = guard + y[0];
      },
      reps, trials);
  const double fused = time_cpu(
      [&] { guard = guard + a.residual_norm2(b, x, r); }, reps, trials);
  const double separate = time_cpu(
      [&] {
        a.multiply(x, y);
        waxpy(b, -1.0, y, r);
        guard = guard + norm2(r);
      },
      reps, trials);
  simd::reset_isa();

  std::printf("\nSpMV kernel bench (%d reps x %d trials, best CPU time; "
              "active ISA: %s)\n",
              reps, trials, simd::isa_name(active));
  std::printf("  %-28s %10s %10s\n", "kernel", "cpu [s]", "speedup");
  std::printf("  %-28s %10.5f %10s\n", "multiply (scalar ref)", spmv_scalar,
              "1.00x");
  std::printf("  %-28s %10.5f %9.2fx\n", "multiply (dispatched)", spmv_simd,
              spmv_simd > 0.0 ? spmv_scalar / spmv_simd : 0.0);
  std::printf("  %-28s %10.5f %10s\n", "multiply+waxpy+norm2", separate, "");
  std::printf("  %-28s %10.5f %9.2fx\n", "residual_norm2 (fused)", fused,
              fused > 0.0 ? separate / fused : 0.0);
  return guard == guard ? 0 : 1;  // keep the accumulator observable
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lck;

  std::string mtx_path;
  std::string policy = "fixed";
  std::string trace_path;
  std::string metrics_path;
  int delta_chain = 0;
  bool spmv_bench = false;
  bench::CliParser cli(
      argc, argv,
      "[matrix.mtx] [--policy fixed|young|adaptive] [--delta <chain-len>] "
      "[--trace <path>] [--metrics <path>] [--spmv-bench]");
  while (cli.more()) {
    if (cli.match("--policy"))
      policy = cli.value();
    else if (cli.match("--delta"))
      delta_chain = static_cast<int>(cli.number(0));
    else if (cli.match("--trace"))
      trace_path = cli.value();
    else if (cli.match("--metrics"))
      metrics_path = cli.value();
    else if (cli.match("--spmv-bench"))
      spmv_bench = true;
    else if (cli.positional())
      mtx_path = cli.take();
    else
      cli.die_unknown();
  }

  CsrMatrix a;
  if (!mtx_path.empty()) {
    std::printf("Loading %s ...\n", mtx_path.c_str());
    a = load_matrix_market(mtx_path);
  } else {
    std::printf("No matrix given; generating a synthetic KKT saddle-point "
                "system (symmetric indefinite, like KKT240).\n");
    KktOptions opt;
    opt.grid_n = 12;
    a = kkt_matrix(opt);
  }
  std::printf("Matrix: %lld x %lld, %lld nonzeros, symmetric: %s\n",
              static_cast<long long>(a.rows()),
              static_cast<long long>(a.cols()),
              static_cast<long long>(a.nnz()),
              a.is_symmetric(1e-12) ? "yes" : "no");

  if (spmv_bench) return run_spmv_bench(a);

  Vector b(a.rows(), 1.0);
  const JacobiPreconditioner pc(a);  // the paper's Fig. 3 choice
  SolveOptions opts;
  opts.rtol = 1e-6;
  opts.max_iterations = 100000;
  GmresSolver solver(a, b, &pc, 30, opts);

  // Failure-prone execution with adaptive-bound lossy checkpointing.
  ResilienceConfig cfg;
  cfg.scheme = CkptScheme::kLossy;
  cfg.compression.adaptive_error_bound = true;  // Theorem 3: eb tracks ||r||/||b||
  cfg.compression.adaptive_theta = 0.25;
  cfg.failure.mtti_seconds = 900.0;  // aggressive for demonstration
  cfg.failure.seed = 7;
  cfg.iteration_seconds = 1.0;
  cfg.policy.name = policy;
  cfg.policy.interval_seconds =
      young_interval_seconds(cfg.cluster.write_seconds(
                                 static_cast<double>(a.rows()) * 8.0),
                             cfg.failure.mtti_seconds);
  cfg.delta.max_delta_chain = delta_chain;
  cfg.dynamic_scale = 1.0;
  cfg.static_bytes = static_cast<double>(a.nnz()) * 12.0;
  cfg.obs.trace = !trace_path.empty();
  cfg.obs.metrics = !metrics_path.empty();

  ResilientRunner runner(solver, cfg);
  const auto res = runner.run();

  if (!trace_path.empty()) {
    runner.trace()->write_chrome_trace(trace_path, /*pid=*/1, "custom_matrix");
    std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot open --metrics path %s\n",
                   metrics_path.c_str());
      return 1;
    }
    f << runner.metrics()->snapshot().to_json() << "\n";
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  std::printf("\nConverged: %s after %lld iterations "
              "(%lld steps executed, %d failures survived, %d checkpoints, "
              "compression %.1fx)\n",
              res.converged ? "yes" : "no",
              static_cast<long long>(res.convergence_iteration),
              static_cast<long long>(res.executed_steps), res.failures,
              res.checkpoints, res.compression_ratio);
  std::printf("Pacing: policy \"%s\", final interval %.1f s, "
              "%d mid-run adjustments\n",
              policy.c_str(), res.policy_interval_final,
              res.interval_adjustments);
  if (delta_chain > 0)
    std::printf("Delta: %d full / %d total checkpoints, %zu chunks stored "
                "as references, %.1f MB of delta streams\n",
                res.full_checkpoints, res.checkpoints, res.chunks_deduped,
                res.delta_bytes_total / 1e6);
  std::printf("Final residual: %.3e (rtol %.0e)\n", res.final_residual_norm,
              opts.rtol);
  return 0;
}
