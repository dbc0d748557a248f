#pragma once
/// \file gmres.hpp
/// \brief Restarted GMRES(m) with right preconditioning — the paper's
///        nonsymmetric workhorse (GMRES(30) in §5).
///
/// Right preconditioning keeps the Givens-recurrence residual equal to the
/// *true* residual norm, which is what Theorem 3's adaptive error bound
/// eb = O(||r(t)||/||b||) needs at checkpoint time.
///
/// One step() = one inner Arnoldi iteration (matching the paper's iteration
/// counts, e.g. 5,875 iterations of GMRES(30)). The approximate solution is
/// materialized from the Krylov basis on demand, so checkpoints may be taken
/// at any iteration. Like the paper's restarted scheme, the only dynamic
/// variable is x: recovery restarts the Krylov subspace from the recovered
/// iterate (§4.2).

#include "solvers/solver.hpp"

namespace lck {

class GmresSolver final : public IterativeSolver {
 public:
  GmresSolver(const CsrMatrix& a, Vector b, const Preconditioner* m = nullptr,
              index_t restart = 30, SolveOptions opts = {});

  [[nodiscard]] std::string name() const override { return "gmres"; }

  void do_resume_after_restore() override;

 protected:
  void do_restart() override;
  void do_step() override;
  void materialize_solution() override;

 private:
  void begin_cycle();

  index_t m_restart_;
  index_t j_ = 0;  // inner iteration index within the current cycle

  Vector x_base_;               // iterate at the start of the cycle
  std::vector<Vector> v_;       // Krylov basis, m+1 vectors
  std::vector<Vector> h_;       // Hessenberg columns: h_[j] has j+2 entries
  Vector cs_, sn_, g_;          // Givens rotations and rotated rhs
  Vector w_, z_;                // scratch
  bool x_current_ = true;       // x_ reflects the basis state
};

}  // namespace lck
