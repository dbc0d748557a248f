#include "solvers/stationary.hpp"

#include <cmath>

namespace lck {

// ----- Jacobi ---------------------------------------------------------------

JacobiSolver::JacobiSolver(const CsrMatrix& a, Vector b, SolveOptions opts)
    : IterativeSolver(a, std::move(b), nullptr, opts),
      inv_diag_(a.diagonal()),
      r_(b_.size(), 0.0) {
  for (auto& d : inv_diag_) {
    require(d != 0.0, "jacobi: zero diagonal entry");
    d = 1.0 / d;
  }
  restart(x_);
}

void JacobiSolver::do_restart() {
  res_norm_ = a_.residual_norm2(b_, x_, r_);
  if (initial_res_norm_ == 0.0) initial_res_norm_ = res_norm_;
}

void JacobiSolver::do_resume_after_restore() {
  res_norm_ = a_.residual_norm2(b_, x_, r_);
}

void JacobiSolver::do_step() {
  // x ← x + D⁻¹ r, then refresh the recomputed residual with the norm fused
  // into the same sweep. The fusion is legal since the lane-canonical
  // reduction landed: residual_norm2() parallelizes over the *reduction*
  // partition (fixed 16Ki row blocks) and accumulates y² lane-canonically,
  // so it associates exactly like residual() followed by norm2().
  diag_axpy(inv_diag_, r_, x_);
  res_norm_ = a_.residual_norm2(b_, x_, r_);
}

double JacobiSolver::estimate_spectral_radius() const {
  if (iteration_ == 0 || initial_res_norm_ == 0.0 || res_norm_ == 0.0)
    return 0.0;
  return std::pow(res_norm_ / initial_res_norm_,
                  1.0 / static_cast<double>(iteration_));
}

// ----- SOR family -----------------------------------------------------------

SorSolver::SorSolver(const CsrMatrix& a, Vector b, double omega,
                     SweepKind kind, SolveOptions opts)
    : IterativeSolver(a, std::move(b), nullptr, opts),
      omega_(omega),
      kind_(kind),
      r_(b_.size(), 0.0) {
  require(omega > 0.0 && omega < 2.0, "sor: omega must lie in (0, 2)");
  restart(x_);
}

std::string SorSolver::name() const {
  return kind_ == SweepKind::kSymmetric ? "ssor" : "sor";
}

void SorSolver::do_restart() {
  res_norm_ = a_.residual_norm2(b_, x_, r_);
}

void SorSolver::do_resume_after_restore() { do_restart(); }

void SorSolver::sweep(bool forward) {
  const index_t n = a_.rows();
  const auto row_ptr = a_.row_ptr();
  const auto col_idx = a_.col_idx();
  const auto vals = a_.values();
  for (index_t s = 0; s < n; ++s) {
    const index_t i = forward ? s : n - 1 - s;
    double sum = b_[i];
    double diag = 0.0;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const index_t c = col_idx[k];
      if (c == i)
        diag = vals[k];
      else
        sum -= vals[k] * x_[c];
    }
    require(diag != 0.0, "sor: zero diagonal entry");
    x_[i] = (1.0 - omega_) * x_[i] + omega_ * sum / diag;
  }
}

void SorSolver::do_step() {
  sweep(true);
  if (kind_ == SweepKind::kSymmetric) sweep(false);
  res_norm_ = a_.residual_norm2(b_, x_, r_);
}

}  // namespace lck
