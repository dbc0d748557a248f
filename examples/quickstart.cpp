/// Quickstart: solve the paper's 3-D Poisson system (Eq. 15) with
/// preconditioned CG, protecting the solver state with lossy checkpointing
/// through the FTI-style Protect()/Snapshot() API (paper §4.2 workflow),
/// paced by a CheckpointPolicy instead of a hand-rolled modulo loop.
///
///   build/examples/quickstart
///
/// Walks through: (1) build the system, (2) register variables to
/// checkpoint, (3) iterate under a pacing policy, snapshotting when it says
/// so, (4) simulate a crash by clobbering the state, (5) recover from the
/// lossy checkpoint and finish the solve.
///
/// Everything below compiles against the single public facade header.

#include <cstdio>

#include "lck.hpp"

int main() {
  using namespace lck;

  // (1) The paper's evaluation operator: A x = b on a 24^3 grid (SPD form).
  const CsrMatrix a = poisson3d_spd(24);
  const Vector b = smooth_rhs(a);
  const auto precond = make_preconditioner("bjacobi", a, 8);
  CgSolver solver(a, b, precond.get(), {.rtol = 1e-8});
  std::printf("System: %lld unknowns, %lld nonzeros\n",
              static_cast<long long>(a.rows()),
              static_cast<long long>(a.nnz()));

  // (2) Lossy checkpointing: SZ with the paper's 1e-4 pointwise-relative
  // bound; only the approximate solution x is protected (Algorithm 2).
  const auto sz = make_compressor("sz", ErrorBound::pointwise_rel(1e-4));
  CheckpointManager ckpt(std::make_unique<MemoryStore>(), sz.get());
  Vector x_protected = solver.solution();
  ckpt.protect(0, "x", &x_protected);

  // (3) Pacing through the policy API: "fixed" reproduces the paper's
  // offline interval. At one virtual second per iteration this checkpoints
  // every 10 iterations; swap the name for "young" or "adaptive" (with a
  // PolicyContext carrying λ and modeled costs) to let the perf model pace
  // the run instead.
  PolicyContext pacing;
  pacing.fixed_interval_seconds = 10.0;
  const auto policy = make_policy("fixed", pacing);
  const double iteration_seconds = 1.0;
  double now = 0.0, last_ckpt = 0.0;

  index_t crash_at = 35;
  while (!solver.converged()) {
    solver.step();
    now += iteration_seconds;
    if (policy->should_checkpoint(now, last_ckpt)) {
      x_protected = solver.solution();
      const auto rec = ckpt.snapshot();
      last_ckpt = now;
      policy->on_checkpoint_committed(/*blocking_seconds=*/0.0,
                                      static_cast<double>(rec.stored_bytes));
      std::printf("  checkpoint v%d at iteration %lld: %zu B raw -> %zu B "
                  "stored (%.1fx)\n",
                  rec.version, static_cast<long long>(solver.iteration()),
                  rec.raw_bytes, rec.stored_bytes,
                  static_cast<double>(rec.raw_bytes) /
                      static_cast<double>(rec.stored_bytes));
    }
    // (4) Simulated fail-stop failure.
    if (solver.iteration() == crash_at) {
      std::printf("  !! simulated failure at iteration %lld\n",
                  static_cast<long long>(crash_at));
      ckpt.request_recovery();
      ckpt.snapshot();  // FTI semantics: pending recovery -> restore
      // (5) The decompressed x is the new initial guess (Algorithm 2).
      solver.restart(x_protected);
      last_ckpt = now;  // checkpoint timer restarts after recovery
      std::printf("  recovered from lossy checkpoint; residual now %.3e\n",
                  solver.residual_norm());
      crash_at = -1;  // only crash once
    }
  }

  Vector r(b.size());
  a.residual(b, solver.solution(), r);
  std::printf("Converged at iteration %lld, true ||r||/||b|| = %.3e\n",
              static_cast<long long>(solver.iteration()),
              norm2(r) / norm2(b));
  return 0;
}
