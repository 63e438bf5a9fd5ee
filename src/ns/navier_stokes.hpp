// Unsteady incompressible Navier-Stokes integrator (paper §4).
//
// Semi-discrete form (P_N x P_{N-2}):
//     B du/dt = -B (u.grad)u - nu A u + D^T p + B f,    D u = 0
// advanced by a BDF operator-splitting scheme:
//   * the convective term is treated either by OIFS sub-integration
//     (characteristics: the paper's production scheme, allowing
//     convective CFL 1-5) or by explicit extrapolation (EXTk);
//   * each velocity component solves a Jacobi-PCG Helmholtz system
//     H = (beta0/dt) B + nu A;
//   * the pressure correction solves E dp = -(beta0/dt) D u* with
//     Schwarz-preconditioned PCG accelerated by projection onto previous
//     solutions;
//   * the Fischer-Mullen filter F_alpha is applied once per step.
//
// An optional advected-diffused scalar (temperature) with its own
// boundary conditions supports the Boussinesq convection applications.
//
// Every solve reports a SolveStatus, and step() wraps the whole update in
// the resilience layer's deterministic escalation ladder (see
// resilience/recovery.hpp): a hard-failed solve rolls the state back and
// retries with zero guesses and a flushed projection basis, then with a
// diagonal preconditioner fallback, then at halved dt with the BDF/OIFS
// ramp restarted — all recorded in StepStats.  Full solver state can be
// exported/imported bit-exactly for checkpoint/restart
// (resilience/checkpoint.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/dealias.hpp"
#include "core/helmholtz.hpp"
#include "core/pressure.hpp"
#include "core/space.hpp"
#include "resilience/recovery.hpp"
#include "solver/cg.hpp"
#include "solver/projection.hpp"
#include "solver/schwarz.hpp"

namespace tsem {

struct NsOptions {
  double dt = 1e-3;
  double viscosity = 1e-3;  ///< nu = 1/Re
  int torder = 2;           ///< BDF order (1-3); ramps up from 1 at start
  double filter_alpha = 0.0;
  enum class Convection { Oifs, Ext };
  Convection convection = Convection::Oifs;
  int oifs_substeps = 0;  ///< 0 = auto from the current CFL (target ~0.5)
  /// Over-integrate the convective term on a 3/2-rule fine Gauss grid
  /// (OIFS mode only) — removes the aliasing error of the collocation
  /// form (see core/dealias.hpp).
  bool dealias = false;
  /// Solver tolerances.  helm_tol is relative to the initial residual;
  /// pres_tol is relative to the FULL rhs norm each step (not the
  /// projection-reduced residual), so projection genuinely saves
  /// iterations, matching the paper's usage.
  double helm_tol = 1e-9;
  double pres_tol = 1e-6;
  int max_iter = 4000;
  int proj_len = 8;  ///< projection window L (0 disables)
  bool use_schwarz = true;
  SchwarzOptions schwarz;
  /// Remove the pressure nullspace (enclosed / fully periodic flows).
  bool pressure_mean_free = true;
  /// Setup replay/record (DESIGN.md "Setup cache").  Forwarded into the
  /// SchwarzOptions seams and applied to the dealiasing operator here:
  /// with setup_import, the fdm/xxt/dealias sections replace the cold
  /// builds (falling back per section on validation failure); with
  /// setup_record, built artifacts are serialized into the bundle.
  /// Non-owning; must outlive the NavierStokes constructor call only.
  const SetupBundle* setup_import = nullptr;
  SetupBundle* setup_record = nullptr;
  /// Failure recovery policy (see resilience/recovery.hpp).
  ResilienceOptions resilience;
};

struct StepStats {
  int step = 0;
  double time = 0.0;
  int pressure_iters = 0;
  std::array<int, 3> helmholtz_iters{0, 0, 0};
  double pressure_res0 = 0.0;  ///< residual before iteration (after proj)
  double divergence = 0.0;     ///< ||D u^n||_2 after correction
  double cfl = 0.0;
  double flops = 0.0;  ///< modeled flops spent this step

  // --- resilience record (escalation ladder, resilience/recovery.hpp) ---
  double dt = 0.0;  ///< dt actually used (== NsOptions::dt unless rejected)
  SolveStatus pressure_status = SolveStatus::Converged;
  std::array<SolveStatus, 3> helmholtz_status{
      SolveStatus::Converged, SolveStatus::Converged, SolveStatus::Converged};
  SolveStatus scalar_status = SolveStatus::Converged;  ///< worst over scalars
  int attempts = 1;       ///< total attempts including the accepted one
  int dt_halvings = 0;    ///< rejections taken (watchdog + solver-driven)
  bool cfl_rejected = false;       ///< watchdog halved dt preemptively
  bool projection_flushed = false; ///< rung 1 taken (zero guess + flush)
  bool precond_fallback = false;   ///< rung 2 taken (Schwarz -> diagonal)
  bool nonfinite_field = false;    ///< post-step field scan found NaN/Inf
  bool recovered = false;  ///< accepted after at least one failed attempt
  bool failed = false;     ///< ladder exhausted; state rolled back
};

/// Where a registered fault hook is invoked (deterministic test seam for
/// the resilience layer; see resilience/fault_injector.hpp).
enum class FaultSite {
  HelmholtzRhs,  ///< weak rhs of velocity component `component`
  PressureRhs,   ///< pressure Poisson rhs g
};

/// Bit-exact exportable solver state (resilience/checkpoint.hpp).
struct NsState {
  std::int32_t dim = 0;
  std::int32_t nscalars = 0;
  std::uint64_t nlocal = 0;
  std::uint64_t npressure = 0;
  std::int32_t step = 0;
  std::int32_t order_ramp = 0;
  std::int32_t bc_frozen = 0;
  double time = 0.0;
  double dt = 0.0;
  double flops_total = 0.0;
  std::array<std::vector<double>, 3> u, ubc;
  std::array<std::array<std::vector<double>, 3>, 3> uh, ch;
  std::vector<double> p;
  struct Scalar {
    std::vector<double> th, thbc;
    std::array<std::vector<double>, 3> hist;
  };
  std::vector<Scalar> scalars;
  std::vector<std::vector<double>> proj_q, proj_w;
};

class NavierStokes {
 public:
  /// dirichlet_tags: boundary tag bits where ALL velocity components are
  /// Dirichlet (per-component masks can be overridden with set_mask).
  NavierStokes(const Space& space, std::uint32_t dirichlet_tags,
               NsOptions opt);
  ~NavierStokes();  // out-of-line: ScalarData is incomplete here

  [[nodiscard]] const Space& space() const { return *space_; }
  [[nodiscard]] const NsOptions& options() const { return opt_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] double time() const { return time_; }

  /// Velocity component c (element-by-element storage); set initial
  /// conditions here before the first step.  Boundary values are frozen
  /// from this field at the first step() (time-independent BCs).
  std::vector<double>& u(int c) { return u_[c]; }
  [[nodiscard]] const std::vector<double>& u(int c) const { return u_[c]; }
  std::vector<double>& pressure() { return p_; }
  [[nodiscard]] const PressureSystem& pressure_system() const {
    return *psys_;
  }

  /// Nodal body force, called once per step; add into f[c].
  using Forcing = std::function<void(const NavierStokes&, double t,
                                     const std::array<double*, 3>& f)>;
  void set_forcing(Forcing f) { forcing_ = std::move(f); }

  /// Optional advected-diffused scalars (temperature, species, ...):
  /// the paper's "multiple-species transport" support.  Requires OIFS
  /// convection (EXT advects the velocity only).  Returns the index of
  /// the new scalar.
  int add_scalar(std::uint32_t dirichlet_tags, double diffusivity);
  [[nodiscard]] int nscalars() const {
    return static_cast<int>(scalars_.size());
  }
  [[nodiscard]] bool has_scalar() const { return !scalars_.empty(); }
  std::vector<double>& scalar(int which = 0);
  [[nodiscard]] const std::vector<double>& scalar(int which = 0) const;

  /// Advance one time step through the resilience ladder.
  StepStats step();

  /// Deterministic fault-injection seam: invoked on each solve rhs right
  /// before the solve, every attempt.  `step` is the 1-based index of the
  /// step being computed, `attempt` the 1-based ladder attempt,
  /// `component` the velocity component (HelmholtzRhs only).  Used by the
  /// resilience tests; pass nullptr to clear.
  using FaultHook = std::function<void(FaultSite site, int step, int attempt,
                                       int component, double* data,
                                       std::size_t n)>;
  void set_fault_hook(FaultHook h) { fault_hook_ = std::move(h); }

  /// Snapshot the complete time-stepping state (fields, histories,
  /// pressure, scalars, projection basis, clock) for checkpointing.
  [[nodiscard]] NsState export_state() const;
  /// Restore a previously exported state.  The target must be built on
  /// the same discretization (dim/sizes/scalar count); on mismatch
  /// returns false with *err describing the offending field and leaves
  /// the object untouched.  NsOptions::dt is overwritten by the state's
  /// dt so the restored run continues on the same clock.
  bool import_state(const NsState& s, std::string* err = nullptr);

  /// CRC-32 digest over the complete exportable state (fields, histories,
  /// pressure, scalars, projection basis, clock).  Two solvers report the
  /// same digest iff their continued runs are bit-identical — the fleet
  /// layer (src/fleet/) uses this to prove a checkpoint-resumed job ended
  /// in exactly the state of an uninterrupted run.
  [[nodiscard]] std::uint32_t state_digest() const;

  /// max_q |u . grad| based convective CFL of the current field.
  [[nodiscard]] double current_cfl() const;
  /// ||D u||_2 of the current velocity.
  [[nodiscard]] double divergence_norm() const;
  /// Volume-integrated kinetic energy of (u - uref), uref optional.
  [[nodiscard]] double kinetic_energy(
      const std::array<const double*, 3>& uref = {nullptr, nullptr,
                                                  nullptr}) const;

  /// Cumulative modeled flop count (see DESIGN.md performance model).
  [[nodiscard]] double total_flops() const { return flops_total_; }

 private:
  struct ScalarData;
  struct Snapshot;
  struct StepScratch;
  /// Per-attempt solve policy chosen by the escalation ladder.
  struct AttemptPolicy {
    bool zero_guess = false;   ///< rung 1: cold-start every solve
    bool use_schwarz = true;   ///< rung 2 clears this: diagonal fallback
  };

  void compute_bdf_coeffs(int order, double* beta0, double* c) const;
  /// max |u . grad| rate of the current field; CFL = rate * dt.
  [[nodiscard]] double cfl_rate() const;
  /// Advect `fields` (in place) from t^{n-q} to t^n by RK4 sub-stepping
  /// of the pure convection problem, with the advecting velocity
  /// interpolated/extrapolated from the known history.
  void oifs_advect(double dt, int q, int order, int substeps,
                   const std::vector<std::vector<double>*>& fields,
                   const std::vector<const double*>& field_masks);
  /// One full step attempt at the given dt/order under the given policy.
  /// Returns false (without advancing the clock) on a hard solve failure
  /// or a non-finite post-step field; statuses are recorded in stats.
  bool attempt_step(double dt, int order, const AttemptPolicy& pol,
                    int attempt, StepStats& stats);
  [[nodiscard]] bool solve_failed(SolveStatus s) const;
  void apply_velocity_filter();
  void save_snapshot(Snapshot& s) const;
  void restore_snapshot(const Snapshot& s);
  /// Size the persistent step scratch (StepScratch, snapshot, solver
  /// buffers) for the current field/scalar layout.  Called at the top of
  /// every attempt; a no-op once everything is at full size, so steps are
  /// allocation-free in steady state.
  void ensure_scratch();

  const Space* space_;
  NsOptions opt_;
  int dim_;
  std::size_t nl_;
  double time_ = 0.0;
  int nsteps_ = 0;
  /// Consecutive accepted steps at the nominal dt since the last dt
  /// rejection (drives the BDF startup ramp; a rejected step restarts it
  /// because the history spacing is no longer uniform).
  int ramp_ = 0;

  std::vector<double> mask_;
  std::array<std::vector<double>, 3> u_;
  std::array<std::vector<double>, 3> ubc_;  // frozen Dirichlet values
  bool bc_frozen_ = false;
  // Velocity history u^{n-1}, u^{n-2}, u^{n-3}.
  std::array<std::array<std::vector<double>, 3>, 3> uh_;
  // Convection history for EXT mode.
  std::array<std::array<std::vector<double>, 3>, 3> ch_;
  std::vector<double> p_;

  std::unique_ptr<PressureSystem> psys_;
  std::unique_ptr<DealiasedConvection> dealias_;
  std::unique_ptr<SchwarzPrecond> schwarz_;
  std::unique_ptr<SolutionProjection> proj_;
  std::unique_ptr<HelmholtzOp> hop_;
  double hop_h2_ = -1.0;  ///< cache key: h2 = beta0/dt of the cached hop_

  std::vector<std::unique_ptr<ScalarData>> scalars_;
  Forcing forcing_;
  FaultHook fault_hook_;
  std::vector<double> fmat_;  // cached 1D filter matrix
  mutable TensorWork work_;
  // Persistent per-step buffers (see ensure_scratch): field-length
  // temporaries, solver Krylov spaces, and the resilience rollback image
  // all live here so the steady-state step path never allocates.
  std::unique_ptr<StepScratch> scr_;
  std::unique_ptr<Snapshot> snap_;
  mutable std::vector<double> divscr_;  // divergence_norm work
  double flops_total_ = 0.0;
};

}  // namespace tsem
