// P_N x P_{N-2} pressure coupling (paper §4).
//
// Velocity lives on the GLL(N)^d element grids (C0); pressure lives on
// the interior Gauss(N-2)^d grids (discontinuous, no interelement
// continuity).  This file provides the discrete divergence D
// (velocity -> pressure), its transpose D^T (the pressure gradient
// force), and the Stokes Schur complement E = D B^{-1} D^T — the
// consistent Poisson operator that governs the pressure and dominates
// the stiffness of unsteady incompressible flow.
//
// All metric data on the Gauss mesh is exact: the coordinate derivatives
// (polynomials of degree <= N) are interpolated from the GLL grid before
// the rational metric combinations are formed.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/space.hpp"
#include "solver/cg.hpp"
#include "solver/projection.hpp"

namespace tsem {

class PressureSystem {
 public:
  /// vmask: the velocity Dirichlet mask entering B^{-1} (the same mask
  /// used by the Helmholtz solves).  For fully enclosed flows E is
  /// singular with nullspace = constants; see remove_mean().  The mesh
  /// order must lie in 3..16, the orders the element kernels are
  /// compiled for.
  PressureSystem(const Space& vspace, std::vector<double> vmask);

  /// Gauss points per direction (= N - 1).
  [[nodiscard]] int ng1() const { return ng1_; }
  /// Pressure dofs per element.
  [[nodiscard]] int npe() const { return npe_; }
  /// Total pressure dofs (= K * (N-1)^d).
  [[nodiscard]] std::size_t nloc() const {
    return static_cast<std::size_t>(vspace_->mesh().nelem) * npe_;
  }

  /// dp = -D u is NOT applied here: this computes dp = D u (the discrete
  /// weighted divergence); u is an array of dim component fields.
  void divergence(const double* const* u, double* dp) const;

  /// w_c = (D^T p)_c, element-local (unassembled) velocity fields.
  void gradient_t(const double* p, double* const* w) const;

  /// ep = E p = D Q (Q^T B Q)^{-1} mask Q^T D^T p.
  void apply_E(const double* p, double* ep) const;

  /// Pressure quadrature weights (W_g * J_g) — the pressure mass diagonal.
  [[nodiscard]] const std::vector<double>& pbm() const { return pbm_; }

  /// Subtract the pbm-weighted mean — the physical normalization of the
  /// pressure (zero volume average).
  void remove_mean(double* p) const;

  /// Subtract the plain (unweighted) mean: the ORTHOGONAL projector onto
  /// the complement of the constant nullspace in the Euclidean dot
  /// product.  This is the projector that must be used inside CG (the
  /// weighted one is not symmetric there and stalls the iteration).
  void remove_mean_plain(double* p) const;

  /// Physical coordinates of the pressure (Gauss) nodes.
  [[nodiscard]] const std::vector<double>& px() const { return px_; }
  [[nodiscard]] const std::vector<double>& py() const { return py_; }
  [[nodiscard]] const std::vector<double>& pz() const { return pz_; }

  [[nodiscard]] const Space& vspace() const { return *vspace_; }

  /// W_g J_g dr_j/dx_i at the Gauss nodes (component-major like Mesh::g).
  [[nodiscard]] const double* pgeo(int i, int j) const {
    return pg_.data() + (static_cast<std::size_t>(i) * dim_ + j) * nloc();
  }

 private:
  const Space* vspace_;
  int dim_;
  int ng1_;
  int npe_;
  std::vector<double> pg_;   // dim^2 * nloc
  std::vector<double> pbm_;  // nloc
  std::vector<double> px_, py_, pz_;
  // 1D coupling matrices: ig (Gauss x GLL interpolation), dg = ig * Dhat,
  // their transposes, and the side-by-side pair [igt | dgt] (N1 x 2G)
  // that D^T's y and z stages contract against in one product.
  std::vector<double> ig_, dg_, igt_, dgt_, idgt_;
  // B^{-1} * vmask, formed once by the constructor: apply_E scales the
  // gs-summed D^T p by it.
  std::vector<double> bmask_;
  // apply_E's velocity-length fields (D^T p, then gs-summed and scaled by
  // B^{-1} mask in place, element by element, as D reads them).  Sized
  // lazily on first use so E applications never allocate in steady state.
  mutable std::vector<double> et_[3];

  // Element kernels, compiled for each (dimension, GLL point count) and
  // chosen once by the constructor; their scratch lives on the stack at
  // compile-time sizes.  divergence_elem zeroes and fills dp's block e
  // only; gradient_t_elem overwrites block e of each w[c] only.
  using DivergenceElem = void (PressureSystem::*)(int, const double* const*,
                                                  double*) const;
  using GradientTElem = void (PressureSystem::*)(int, const double*,
                                                 double* const*) const;
  DivergenceElem divergence_elem_ = nullptr;
  GradientTElem gradient_t_elem_ = nullptr;
  template <int D, int N1>
  void divergence_elem(int e, const double* const* u, double* dp) const;
  template <int D, int N1>
  void gradient_t_elem(int e, const double* p, double* const* w) const;
  /// Point the two kernel pointers at the instantiation for this mesh.
  template <int... Is>
  void bind_kernels(std::integer_sequence<int, Is...>);
};

struct PressureSolveOptions {
  double tol = 1e-6;  ///< relative to the FULL rhs norm (see NsOptions)
  int max_iter = 4000;
  /// Project the rhs and iterates onto the mean-free quotient (enclosed /
  /// fully periodic flows where E has the constant nullspace).
  bool mean_free = true;
  /// Skip the projection initial guess and start CG from zero — the
  /// resilience layer's first escalation when the warm path went bad.
  bool zero_guess = false;
};

struct PressureSolveResult {
  CgResult cg;
  double res0 = 0.0;     ///< residual before iteration (after projection)
  int apply_count = 0;   ///< E applications (flops accounting upstream)
  int precond_count = 0; ///< preconditioner applications
};

/// Persistent buffers for solve_pressure: the working rhs, the projection
/// guess and residual, and the CG Krylov vectors.  A caller solving every
/// time step keeps one alive so steady-state pressure solves never touch
/// the allocator.
struct PressureSolveScratch {
  std::vector<double> rhs, p0, r;
  CgScratch cg;
};

/// Projected, preconditioned CG solve of E dp = g.  `precond` computes
/// z = M^{-1} r (pass nullptr for identity); `proj` is the
/// successive-RHS projection accelerator (nullptr disables; the basis is
/// only updated when the solve did not hard-fail, so a poisoned attempt
/// cannot pollute it).  dp holds the correction on return; on a
/// NonFinite/Breakdown exit it is left zeroed.  The returned SolveStatus
/// feeds the time stepper's recovery policy.  Pass a persistent `scratch`
/// to make repeated solves allocation-free.
PressureSolveResult solve_pressure(
    const PressureSystem& psys,
    const std::function<void(const double*, double*)>& precond,
    SolutionProjection* proj, const double* g, double* dp,
    const PressureSolveOptions& opt, PressureSolveScratch* scratch = nullptr);

}  // namespace tsem
