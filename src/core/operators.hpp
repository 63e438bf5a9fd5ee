// Matrix-free element-local operator kernels (paper §3).
//
// All kernels operate on the element-by-element storage and do NOT
// perform assembly; callers compose them with Space::dssum and masks to
// obtain the global SPD operators (see helmholtz.hpp, pressure.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"
#include "tensor/tensor_apply.hpp"

namespace tsem {

/// w = A_L u : the unassembled stiffness (discrete Laplacian) of eq. (4),
///   A^k = (D_r D_s D_t)^T [G_ij] (D_r D_s D_t),
/// evaluated as 2d tensor contractions + pointwise work per element.
void apply_stiffness_local(const Mesh& m, const double* u, double* w,
                           TensorWork& work);

/// w = h1 * A_L u + h2 * B_L u (local Helmholtz).
void apply_helmholtz_local(const Mesh& m, double h1, double h2,
                           const double* u, double* w, TensorWork& work);

// ---------------------------------------------------------------------------
// Element-list variants (DESIGN.md "Overlap protocol").
//
// Apply the same per-element kernels to an explicit list of elements:
// elems[i] names the mesh element whose geometry (metric factors, mass)
// is used, and blk[i] — when blk is non-null — gives the npe-sized block
// of that element in u and w.  Pass blk = nullptr when u/w are full
// element-major fields (blocks coincide with elems); pass rank-local
// block indices when u/w are packed rank-local fields (the mp executed
// tier's layout, a subsequence of the global element-major layout).
//
// The loops are SERIAL by design: these are the fork-safe entry points
// the mp rank processes drive their interior/boundary element sweeps
// through (mp/runtime.hpp's OpenMP caveat).  They run the same element
// kernel as the full loops, so a sweep over any disjoint element
// partition (e.g. interior then boundary) reproduces the full loop's
// result bitwise.

/// w blocks = A_L u blocks for the listed elements.
void apply_stiffness_local_elems(const Mesh& m, const std::int32_t* elems,
                                 const std::int32_t* blk, std::size_t nelems,
                                 const double* u, double* w,
                                 TensorWork& work);

/// w blocks = h1 * A_L u + h2 * B_L u for the listed elements.
void apply_helmholtz_local_elems(const Mesh& m, double h1, double h2,
                                 const std::int32_t* elems,
                                 const std::int32_t* blk, std::size_t nelems,
                                 const double* u, double* w,
                                 TensorWork& work);

/// Diagonal of the local stiffness matrix (for Jacobi preconditioning).
std::vector<double> stiffness_diagonal_local(const Mesh& m);

/// Physical-space gradient at the GLL nodes: for each direction c,
/// grad[c] = du/dx_c, via the chain rule with the stored metrics.
/// grad must point to dim arrays of length nlocal.
void gradient_local(const Mesh& m, const double* u, double* const* grad,
                    TensorWork& work);

/// conv = (vel . grad) u  evaluated pointwise at the GLL nodes
/// (collocation form); vel is an array of dim component fields.
void convect_local(const Mesh& m, const double* const* vel, const double* u,
                   double* conv, TensorWork& work);

/// Apply the 1D filter matrix f (built by filter_matrix) to every element
/// in every direction: u <- (F (x) F (x) F) u.
void apply_filter_local(const Mesh& m, const std::vector<double>& f,
                        double* u, TensorWork& work);

// ---------------------------------------------------------------------------
// Multi-field entries.
//
// The velocity step applies the same operator to several fields (the
// velocity components, plus scalars).  Each *_multi entry below is ONE
// OpenMP element loop that runs the operator's element kernel for every
// field of each element, so nf fields cost one parallel region instead of
// nf.  The single-field entries above are these with nf = 1, so per-field
// results are bitwise equal to nf separate calls.

/// w[f] = A_L u[f] for f = 0..nf-1.
void apply_stiffness_local_multi(const Mesh& m, const double* const* u,
                                 double* const* w, int nf, TensorWork& work);

/// w[f] = h1 * A_L u[f] + h2 * B_L u[f].
void apply_helmholtz_local_multi(const Mesh& m, double h1, double h2,
                                 const double* const* u, double* const* w,
                                 int nf, TensorWork& work);

/// grad[f * dim + c] = d u[f] / dx_c  (nf scalar fields, dim components
/// each).
void gradient_local_multi(const Mesh& m, const double* const* u,
                          double* const* grad, int nf, TensorWork& work);

/// conv[f] = (vel . grad) u[f] with ONE shared advecting velocity.
void convect_local_multi(const Mesh& m, const double* const* vel,
                         const double* const* u, double* const* conv, int nf,
                         TensorWork& work);

/// u[f] <- (F (x) F (x) F) u[f] for all fields.
void apply_filter_local_multi(const Mesh& m, const std::vector<double>& f,
                              double* const* u, int nf, TensorWork& work);

/// Flop count for one local stiffness application over the whole mesh
/// (paper §3: 12 N^4 + 15 N^3 per element in 3D) — used by the
/// performance model.
double stiffness_flops(const Mesh& m);

}  // namespace tsem
