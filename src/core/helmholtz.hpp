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

  /// w = mask .* QQ^T (h1 A_L + h2 B_L) u for a C0, masked input u.
  void apply(const double* u, double* w) const;

  /// Fused apply over nf independent fields (one element sweep streams the
  /// derivative matrices and G factors across all fields; see
  /// apply_helmholtz_local_multi).  w[f] is bitwise identical to nf
  /// separate apply() calls.
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

/// Persistent buffers for helmholtz_solve: the Dirichlet lift, assembled
/// rhs, operator scratch, CG iterate and the Krylov vectors.  Callers
/// that solve every time step hold one so steady-state solves never touch
/// the allocator.  Kept OUTSIDE the TensorWork arena on purpose: the
/// solve passes that arena down into apply_helmholtz_local, which would
/// clobber any slab the solve itself had claimed (see workspace.hpp).
struct HelmholtzSolveScratch {
  std::vector<double> ub, b, t, x;
  CgScratch cg;
  // Per-field buffers for helmholtz_solve_multi (kept separate from the
  // single-field members so mixing both entry points on one scratch is
  // safe).
  std::vector<std::vector<double>> mub, mb, mt, mx;
  std::vector<CgScratch> mcg;
};

/// Dirichlet-lifted Jacobi-PCG solve of H u = rhs_weak on the operator's
/// masked C0 space.  `bcvals` carries the Dirichlet values (read where the
/// operator's mask is 0); `rhs_weak` is the unassembled weak-form rhs;
/// `out` holds the previous solution on entry (warm start unless
/// zero_guess) and the solution on return.  The returned CgResult carries
/// the SolveStatus the time stepper's recovery policy keys on; on a
/// NonFinite/Breakdown exit `out` is left untouched.  Pass a persistent
/// `scratch` to make repeated solves allocation-free.
CgResult helmholtz_solve(const HelmholtzOp& h,
                         const std::vector<double>& bcvals,
                         const std::vector<double>& rhs_weak,
                         std::vector<double>& out,
                         const HelmholtzSolveOptions& opt, TensorWork& work,
                         HelmholtzSolveScratch* scratch = nullptr);

/// Field cap for helmholtz_solve_multi (stack-sized pointer arrays).
inline constexpr int kMaxSolveFields = 8;

/// Lockstep multi-field variant of helmholtz_solve: nf independent
/// right-hand sides of the SAME operator are solved in one CG loop whose
/// operator applies are fused (apply_multi), so the element data streams
/// once per iteration for all fields instead of once per field.
///
/// Each field runs its own CG recurrence (its own alpha/beta/dots) and
/// drops out of the fused apply the moment it exits, so per-field iterates,
/// iteration counts and statuses are bitwise identical to nf sequential
/// helmholtz_solve calls.  results[0..nf-1] receives each field's CgResult.
///
/// Commit semantics mirror a sequential loop that stops at the first
/// failure (failed = hard failure, or MaxIter when maxiter_is_failure):
/// out[f] is committed in field order up to and including the first failed
/// field (hard-failed fields keep the caller's data, as in
/// helmholtz_solve), and fields after it are left untouched.  Returns the
/// index of the first failed field, or nf when every field succeeded.
int helmholtz_solve_multi(const HelmholtzOp& h,
                          const std::vector<double>* const* bcvals,
                          const std::vector<double>* const* rhs_weak,
                          std::vector<double>* const* out, int nf,
                          const HelmholtzSolveOptions& opt, TensorWork& work,
                          HelmholtzSolveScratch* scratch, CgResult* results,
                          bool maxiter_is_failure = false);

}  // namespace tsem
