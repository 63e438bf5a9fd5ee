// Additive overlapping Schwarz preconditioner for the consistent Poisson
// operator E (paper §5; Dryja & Widlund [5]; Fischer [9, 10]):
//
//     M^{-1} = R0^T A0^{-1} R0  +  sum_k R_k^T A~_k^{-1} R_k
//
// Local problems live on each element's Gauss grid extended `overlap`
// points into its neighbors (Fig 5 right), with homogeneous Dirichlet
// conditions one layer beyond; they are solved either by the fast
// diagonalization method (tensor-product separable operator, the paper's
// production choice) or by a dense-factored P1 FEM Laplacian on the same
// grid (the Fig 5 left / Table 2 baseline, overlap 0/1/3).
//
// The coarse component is a Q1 Laplacian on the spectral element vertex
// mesh, restricted/prolongated by bilinear interpolation at the Gauss
// points, and solved by any CoarseSolver backend (XXT by default).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/pressure.hpp"
#include "solver/coarse.hpp"
#include "solver/fdm.hpp"
#include "solver/overlap.hpp"
#include "tensor/workspace.hpp"

namespace tsem {

/// The per-element extended-subdomain FDM factorizations of the Schwarz
/// preconditioner, built standalone from the mesh (no PressureSystem
/// needed): identical grids and eigensolves to SchwarzPrecond's Fdm path
/// — SchwarzPrecond builds through this function — deduplicated by the
/// bitwise 1D-grid signature.  fdm_of[e] maps each element to its entry.
std::vector<FdmLocal> build_schwarz_fdm(const Mesh& m, int ng1, int overlap,
                                        std::vector<int>* fdm_of);

/// Element-local Schwarz FDM solves outside SchwarzPrecond: gather the
/// residual and ghost strips into the extended subdomain grid, solve by
/// fast diagonalization, scatter the own part into z and the ghost
/// returns into vout — per element, over an explicit element list.
///
/// This is the mp executed tier's fork-safe entry point (DESIGN.md
/// "Overlap protocol"): the sweep is SERIAL, and elems/blk follow the
/// element-list kernel convention of core/operators.hpp — elems[i] names
/// the mesh element (geometry), blk[i] its block in the field arrays
/// (nullptr: full-mesh layout).  Per-element arithmetic matches
/// SchwarzPrecond::apply's FP64 local pass expression for expression
/// (FdmLocal::solve is bitwise equal to the batched form), so a sweep
/// over all elements with the production ghost values reproduces the
/// preconditioner's local component bitwise — asserted in test_schwarz.
class SchwarzLocalSolver {
 public:
  SchwarzLocalSolver(const Mesh& m, int ng1, int overlap);

  /// Extended local dofs per element ((ng1 + 2*overlap)^dim).
  [[nodiscard]] std::size_t nle() const { return nle_; }
  /// Scratch doubles solve_elems needs (5 * nle: rloc, zloc, FDM work).
  [[nodiscard]] std::size_t work_doubles() const { return 5 * nle_; }
  [[nodiscard]] int overlap() const { return ov_; }

  /// Solve the listed elements.  r and z are pressure fields in blocks
  /// of ng1^dim; ghost and vout are layer-major with `nslots` slots per
  /// layer and 2*dim*ng1^(dim-1) slots per block (GhostExchange layout
  /// when blk is null, the rank-local DistGhost layout otherwise).
  /// z is accumulated (+=, disjoint blocks); the listed elements' vout
  /// slots are overwritten.  work must hold >= work_doubles().
  void solve_elems(const std::int32_t* elems, const std::int32_t* blk,
                   std::size_t nelems, const double* r, const double* ghost,
                   std::size_t nslots, double* z, double* vout,
                   double* work) const;

 private:
  int dim_, ng1_, ov_;
  GhostSlotMap map_;  // ghost points of the (ng1 + 2*overlap)^dim grid
  int m1_;
  std::size_t npe_, nle_;
  std::vector<FdmLocal> fdm_;
  std::vector<int> fdm_of_;
};

struct SetupBundle;  // solver/setup_bundle.hpp

struct SchwarzOptions {
  enum class Local { Fdm, FemP1 };
  Local local = Local::Fdm;
  /// Ghost layers. Fdm uses exactly 1 (the paper's one-point extension);
  /// FemP1 accepts 0 (block Jacobi), 1, or 3 as in Table 2.
  int overlap = 1;
  bool use_coarse = true;
  /// Nested-dissection levels for the XXT coarse solve (-1 = auto).
  int coarse_nlevels = -1;
  /// Setup replay/record seams (DESIGN.md "Setup cache").  With
  /// setup_import set, the FDM eigendecompositions, the factored XXT
  /// coarse tree, and the overlap ghost-exchange pattern are restored
  /// from the bundle's sections instead of rebuilt (a section that is
  /// absent or fails structural validation
  /// falls back to the cold build — bitwise the same result).  With
  /// setup_record set, the built artifacts are serialized into the
  /// bundle for publication.  Both default off; non-owning pointers must
  /// outlive the constructor call only.
  const SetupBundle* setup_import = nullptr;
  SetupBundle* setup_record = nullptr;
};

class SchwarzPrecond {
 public:
  SchwarzPrecond(const PressureSystem& psys, SchwarzOptions opt);

  /// z = M^{-1} r on the pressure dofs.
  void apply(const double* r, double* z) const;

  [[nodiscard]] const SchwarzOptions& options() const { return opt_; }
  /// Setup + per-apply flop counts for the local solves (Table 2 cpu
  /// accounting is done by wall clock in the bench; these support the
  /// machine model).
  [[nodiscard]] double local_flops_per_apply() const { return local_flops_; }
  [[nodiscard]] const CoarseSolver* coarse() const { return coarse_.get(); }
  /// The overlap ghost exchange behind apply() (nullptr when overlap = 0);
  /// each apply() runs one exchange() and one scatter_add(), i.e.
  /// 2 * overlap gather-scatter ops over the anchor ids.
  [[nodiscard]] const GhostExchange* ghost_exchange() const {
    return ghosts_.get();
  }

  /// Number of apply() calls that received a non-finite residual.  Such a
  /// residual would only smear NaN through every overlapped subdomain and
  /// the coarse solve, so the local solves are skipped and r is passed
  /// through unchanged — the CG driver's non-finite guard then classifies
  /// the solve as SolveStatus::NonFinite and the resilience layer takes
  /// over.  The counter lets StepStats attribute the fault to the
  /// preconditioner input rather than the operator.
  [[nodiscard]] long nonfinite_applies() const { return nonfinite_applies_; }
  void reset_fault_counters() const { nonfinite_applies_ = 0; }

 private:
  void build_local_grids();
  void build_coarse();
  // The gather and scatter passes around apply()'s batched local solves.
  void gather_residual(const double* r, const double* ghost,
                       double* batch_r) const;
  void scatter_solution(const double* batch_z, double* vout,
                        double* z) const;

  const PressureSystem* psys_;
  SchwarzOptions opt_;
  int dim_, ng1_, m1_;  // m1 = extended 1D interior size ng1 + 2*overlap
  std::size_t nle_;     // local extended dofs per element
  std::unique_ptr<GhostExchange> ghosts_;

  // Local solvers.  FdmLocal factorizations are deduplicated by the
  // bitwise 1D grid signature (a uniform mesh collapses to ONE entry);
  // fdm_of_[e] maps an element to its factorization.  FemP1 Cholesky
  // factors stay per element.
  std::vector<FdmLocal> fdm_;             // unique factorizations
  std::vector<int> fdm_of_;               // element -> fdm_ index
  std::vector<std::vector<double>> fem_;  // per element Cholesky factors
  double local_flops_ = 0.0;

  // Batched local-solve layout, fixed at setup so apply() is identical
  // for every thread count: elements are permuted into slots grouped by
  // factorization, then cut into chunks of <= kBatch contiguous slots.
  // One FdmLocal::solve_batch call sweeps a chunk.
  static constexpr int kBatch = 16;
  struct Chunk {
    int local;  // fdm_ index (Fdm) — FemP1 solves per slot
    int slot0;  // first slot of the chunk
    int count;
  };
  std::vector<int> slot_of_;       // element -> slot
  std::vector<int> elem_of_slot_;  // slot -> element
  std::vector<Chunk> chunks_;
  mutable std::vector<double> batch_r_, batch_z_;  // nelem * nle_ each

  // Coarse data.
  std::unique_ptr<CoarseSolver> coarse_;
  std::vector<double> r0w_;  // (2^dim x npe) bilinear weights at Gauss pts
  mutable std::vector<double> cb_, cx_;
  mutable std::vector<double> csum_;  // per-(element, corner) restrictions

  mutable std::vector<double> ghost_, vout_;
  /// Per-thread FDM batch workspace (3 * kBatch * nle_ doubles per
  /// thread) for the OpenMP-parallel chunk-solve loop in apply().
  mutable Workspace lscratch_;
  mutable long nonfinite_applies_ = 0;
};

}  // namespace tsem
