#pragma once
/// \file experiment.hpp
/// \brief Shared experiment configuration: the paper's calibration constants
///        (§5), Table 3's weak-scaling problem sizes, and builders for the
///        laptop-scale stand-in problems whose vectors proxy the paper's
///        cluster-scale ones.

#include <memory>
#include <string>

#include "sim/cluster_model.hpp"
#include "solvers/factory.hpp"
#include "sparse/gen/poisson3d.hpp"

namespace lck {

/// Per-method calibration from the paper's 2,048-rank runs (§4.3, §5.4).
struct PaperMethod {
  std::string method;               ///< "jacobi" | "gmres" | "cg"
  double rtol;                      ///< PETSc relative tolerance (§5.1).
  double baseline_seconds;          ///< Productive time at 2,048 ranks.
  double baseline_iterations;      ///< Iterations to converge, failure-free.
  int trad_vectors;                 ///< Vectors the traditional scheme saves.
  bool adaptive_eb;                 ///< Theorem-3 bound (GMRES only).
  double eb_value;                  ///< Fixed pointwise-relative eb otherwise.
  double expected_nprime;           ///< Paper's N′ for the Eq. 8 model.

  /// Mean virtual seconds per iteration (Tit).
  [[nodiscard]] double iteration_seconds() const {
    return baseline_seconds / baseline_iterations;
  }
};

/// Jacobi: baseline 50 min / 3,941 iterations; rtol 1e-4; eb 1e-4;
/// expected N′ ≈ 6 (Theorem 2 with R ≈ 0.99998).
[[nodiscard]] PaperMethod paper_jacobi();

/// GMRES(30): baseline 120 min / 5,875 iterations; rtol 7e-5;
/// Theorem-3 adaptive eb; expected N′ = 0.
[[nodiscard]] PaperMethod paper_gmres();

/// CG: baseline 35 min / 2,376 iterations; rtol 1e-7; eb 1e-4;
/// expected N′ = 594 (25% of total — paper §5.3).
[[nodiscard]] PaperMethod paper_cg();

[[nodiscard]] PaperMethod paper_method(const std::string& name);

/// Table 3 weak-scaling rows: grid dimension n (problem size n³) per
/// process count (256…2048). Throws for process counts not in the table.
[[nodiscard]] index_t table3_grid_n(int processes);

/// Cluster-scale bytes of one dynamic vector for a Table 3 row.
[[nodiscard]] double table3_vector_bytes(int processes);

/// Static-state (A, M, b) bytes re-read/reconstructed on recovery,
/// modeled as a fraction of one dynamic vector (the paper regenerates the
/// Poisson operator rather than reading it back, so recovery pays only a
/// small static read on top of the dynamic state).
[[nodiscard]] double static_state_bytes(double vector_bytes);

/// A laptop-scale instance of the paper's Eq. 15 problem whose solution
/// vector stands in for the cluster-scale one.
struct LocalProblem {
  CsrMatrix a;
  Vector b;
  std::unique_ptr<Preconditioner> precond;
  SolverSpec spec;

  [[nodiscard]] std::unique_ptr<IterativeSolver> make_solver() const {
    return lck::make_solver(spec, a, b, precond.get());
  }
  /// Real bytes of one dynamic vector of this instance.
  [[nodiscard]] double vector_bytes() const {
    return static_cast<double>(a.rows()) * sizeof(double);
  }
};

/// Build the local problem for a method. `grid_n` is the local Poisson grid
/// (matrix dimension grid_n³); SPD variant with block-Jacobi/ILU0
/// preconditioning for CG/GMRES, plain stencil for stationary methods —
/// mirroring the paper's PETSc defaults. Pass precondition=false to get
/// longer Krylov convergence trajectories (useful when an experiment needs
/// iteration counts comparable to the paper's cluster-scale runs).
[[nodiscard]] LocalProblem make_local_problem(const std::string& method,
                                              index_t grid_n, double rtol,
                                              index_t max_iterations = 200000,
                                              bool precondition = true);

}  // namespace lck
