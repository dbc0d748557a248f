/// Figure 3: productive execution time and convergence iterations for
/// GMRES + Jacobi preconditioner on the KKT240-class symmetric indefinite
/// system, versus process count (256 … 4096).
///
/// Substitution: KKT240 itself (28 M equations) is not
/// redistributable, so a synthetic saddle-point system with the same
/// structure is solved for real; per-iteration cost is measured locally and
/// extrapolated to the paper's scale with a documented compute+allreduce
/// model. The shape to verify: hour-plus solves even at 4,096 ranks, with
/// iteration count independent of rank count.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "solvers/gmres.hpp"
#include "sparse/gen/kkt.hpp"

int main() {
  using namespace lck;
  bench::banner("Fig. 3 — GMRES on KKT240-class matrix vs process count",
                "Tao et al., HPDC'18, Figure 3");

  KktOptions opt;
  opt.grid_n = 14;
  const CsrMatrix k = kkt_matrix(opt);
  Vector b(k.rows(), 1.0);
  const JacobiPreconditioner pc(k);

  SolveOptions opts;
  opts.rtol = 1e-6;
  opts.max_iterations = 60000;
  GmresSolver solver(k, b, &pc, 30, opts);

  WallTimer timer;
  const auto st = solver.solve();
  const double wall = timer.seconds();
  const double local_per_iter = wall / static_cast<double>(solver.iteration());
  std::printf("Local synthetic KKT: n=%lld, nnz=%lld, %lld iterations, "
              "converged=%d, %.2fs wall\n",
              static_cast<long long>(k.rows()),
              static_cast<long long>(k.nnz()),
              static_cast<long long>(solver.iteration()), st.converged,
              wall);

  // Extrapolation model: per-iteration time = SpMV+orthogonalization work
  // over p cores + allreduce latency. Iteration count scales with the
  // condition number (~ grid dimension ratio for this family).
  const double target_n = 28.0e6;  // KKT240: ~28 M equations
  const double nnz_per_row =
      static_cast<double>(k.nnz()) / static_cast<double>(k.rows());
  const double per_row_per_core =
      local_per_iter / static_cast<double>(k.rows());
  const double grid_ratio = std::cbrt(target_n / static_cast<double>(k.rows()));
  const double target_iters =
      static_cast<double>(solver.iteration()) * grid_ratio;
  (void)nnz_per_row;

  std::printf("\n%-10s %-16s %-18s\n", "procs", "exec time (s)",
              "iterations");
  for (const int procs : {256, 512, 1024, 2048, 4096}) {
    const double compute =
        per_row_per_core * target_n / static_cast<double>(procs);
    const double comm = 5e-4 * std::log2(static_cast<double>(procs));
    const double t_iter = compute + comm;
    std::printf("%-10d %-16.0f %-18.0f\n", procs, t_iter * target_iters,
                target_iters);
  }
  std::printf(
      "\nPaper: >1 hour at 4,096 processes, decreasing with scale; "
      "iterations (right axis, ~constant) do not depend on rank count.\n");
  return 0;
}
