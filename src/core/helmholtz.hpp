// Global Helmholtz operator H = h1 * A + h2 * B on a masked C0 space
// (paper §4): the diagonally dominant operator governing each velocity
// component in the split Stokes problem, solved with Jacobi-preconditioned
// conjugate gradients.
#pragma once

#include <vector>

#include "core/space.hpp"
#include "solver/cg.hpp"
#include "tensor/tensor_apply.hpp"

namespace tsem {

class HelmholtzOp {
 public:
  /// mask: Dirichlet mask (from Space::make_mask); h1 multiplies the
  /// stiffness (e.g. 1/Re), h2 the mass (e.g. bdf0/dt); h2 may be 0 for a
  /// pure Poisson operator.
  HelmholtzOp(const Space& space, double h1, double h2,
              std::vector<double> mask);

  /// w = mask .* QQ^T (h1 A_L + h2 B_L) u for a C0, masked input u
  /// (apply_multi with nf = 1).
  void apply(const double* u, double* w) const;

  /// apply() over nf independent fields: one element loop for all fields
  /// (apply_helmholtz_local_multi), then gather-scatter and mask per field.
  /// w[f] is bitwise identical to nf separate apply() calls.
  void apply_multi(const double* const* u, double* const* w, int nf) const;

  /// Assembled, masked diagonal (1.0 at masked nodes) for Jacobi.
  [[nodiscard]] const std::vector<double>& diagonal() const { return diag_; }

  [[nodiscard]] const Space& space() const { return *space_; }
  [[nodiscard]] const std::vector<double>& mask() const { return mask_; }
  [[nodiscard]] double h1() const { return h1_; }
  [[nodiscard]] double h2() const { return h2_; }

 private:
  const Space* space_;
  double h1_, h2_;
  std::vector<double> mask_;
  std::vector<double> diag_;
  mutable TensorWork work_;
};

struct HelmholtzSolveOptions {
  double tol = 1e-9;  ///< relative to the initial residual
  int max_iter = 4000;
  /// Start CG from zero instead of the previous solution in `out` — the
  /// resilience layer's first escalation when a warm start went bad.
  bool zero_guess = false;
};

/// Persistent per-field buffers for helmholtz_solve_multi: the Dirichlet
/// lift, assembled rhs, operator scratch, CG iterate and the Krylov vectors
/// (entry f serves field f).  Callers that solve every time step hold one
/// so steady-state solves never touch the allocator.  Kept OUTSIDE the
/// TensorWork arena on purpose: the solve passes that arena down into
/// apply_helmholtz_local_multi, which would clobber any slab the solve
/// itself had claimed (see workspace.hpp).
struct HelmholtzSolveScratch {
  std::vector<std::vector<double>> ub, b, t, x;
  std::vector<CgScratch> cg;
};

/// Field cap for helmholtz_solve_multi (stack-sized pointer arrays).
inline constexpr int kMaxSolveFields = 8;

/// Dirichlet-lifted Jacobi-PCG solve of H u[f] = rhs_weak[f] for nf
/// independent right-hand sides of the SAME operator, in one lockstep CG
/// loop whose operator applies go through apply_multi (one element loop
/// per iteration for all active fields).  `bcvals[f]` carries the
/// Dirichlet values (read where the operator's mask is 0); `rhs_weak[f]`
/// is the unassembled weak-form rhs; `out[f]` holds the previous solution
/// on entry (warm start unless zero_guess) and the solution on return.
/// Pass a persistent `scratch` to make repeated solves allocation-free.
///
/// Each field advances its own CgStepper (cg.hpp), the recurrence pcg()
/// itself runs, and drops out of the applies the moment it exits, so
/// per-field iterates, iteration counts and statuses are bitwise identical
/// to nf separate pcg() solves.  results[0..nf-1] receives each field's
/// CgResult, whose SolveStatus the time stepper's recovery policy keys on.
///
/// Commit semantics mirror a sequential loop that stops at the first
/// failure (failed = hard failure, or MaxIter when maxiter_is_failure):
/// out[f] is committed in field order up to and including the first failed
/// field, except that a NonFinite/Breakdown field keeps the caller's data,
/// and fields after it are left untouched.  Returns the index of the first
/// failed field, or nf when every field succeeded.
int helmholtz_solve_multi(const HelmholtzOp& h,
                          const std::vector<double>* const* bcvals,
                          const std::vector<double>* const* rhs_weak,
                          std::vector<double>* const* out, int nf,
                          const HelmholtzSolveOptions& opt, TensorWork& work,
                          HelmholtzSolveScratch* scratch, CgResult* results,
                          bool maxiter_is_failure = false);

}  // namespace tsem
