#pragma once
/// \file stationary.hpp
/// \brief Stationary iterative methods x(i) = G·x(i−1) + c analyzed in the
///        paper's §4.4.1: Jacobi, Gauss–Seidel, SOR, SSOR.

#include "solvers/solver.hpp"

namespace lck {

/// Jacobi: x ← x + D⁻¹·(b − A·x). Fully parallel; the paper's stationary
/// representative (§5). The only dynamic vector is x.
class JacobiSolver final : public IterativeSolver {
 public:
  JacobiSolver(const CsrMatrix& a, Vector b, SolveOptions opts = {});
  [[nodiscard]] std::string name() const override { return "jacobi"; }
  void do_resume_after_restore() override;

  /// Spectral radius estimate of the iteration matrix G = I − D⁻¹A from the
  /// observed residual contraction, R ≈ (||r_N||/||r_0||)^(1/N) — the
  /// estimator the paper uses for Theorem 2 (§5.3, R ≈ 0.99998).
  [[nodiscard]] double estimate_spectral_radius() const;

 protected:
  void do_restart() override;
  void do_step() override;

 private:
  Vector inv_diag_;
  Vector r_;  // recomputed variable (paper §3)
  double initial_res_norm_ = 0.0;
};

/// SOR variant: a forward sweep, or a forward then a backward one (SSOR).
enum class SweepKind { kForward, kSymmetric };

/// Gauss–Seidel / SOR / SSOR (relaxation ω; ω = 1 ⇒ Gauss–Seidel).
/// Sweeps are inherently sequential over rows (classic formulation).
class SorSolver : public IterativeSolver {
 public:
  SorSolver(const CsrMatrix& a, Vector b, double omega,
            SweepKind kind = SweepKind::kForward, SolveOptions opts = {});
  [[nodiscard]] std::string name() const override;
  void do_resume_after_restore() override;

 protected:
  void do_restart() override;
  void do_step() override;

 private:
  void sweep(bool forward);
  double omega_;
  SweepKind kind_;
  Vector r_;
};

/// Gauss–Seidel = SOR with ω = 1.
class GaussSeidelSolver final : public SorSolver {
 public:
  GaussSeidelSolver(const CsrMatrix& a, Vector b, SolveOptions opts = {})
      : SorSolver(a, std::move(b), 1.0, SweepKind::kForward, opts) {}
  [[nodiscard]] std::string name() const override { return "gauss-seidel"; }
};

/// SSOR = symmetric SOR (forward + backward sweep per iteration).
class SsorSolver final : public SorSolver {
 public:
  SsorSolver(const CsrMatrix& a, Vector b, double omega = 1.0,
             SolveOptions opts = {})
      : SorSolver(a, std::move(b), omega, SweepKind::kSymmetric, opts) {}
  [[nodiscard]] std::string name() const override { return "ssor"; }
};

}  // namespace lck
