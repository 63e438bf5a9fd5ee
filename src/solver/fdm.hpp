// Fast diagonalization method (Lynch, Rice & Thomas [17]; paper §5).
//
// Inverts the separable low-order Laplacian
//     A~ = B (x) A + A (x) B            (2D, and the analogous 3D sum)
// built from 1D P1 FEM operators on the extended Schwarz subdomain grids:
//     A~^{-1} = (S_y (x) S_x) [I (x) L_x + L_y (x) I]^{-1}
//               (S_y^T (x) S_x^T) ... with S generalized eigenvectors,
// applied as fast tensor products — the same O(K N^{d+1}) complexity as a
// matrix-free operator application, which is what makes the FDM-based
// Schwarz preconditioner cheaper than the FEM-based one (Table 2).
#pragma once

#include <array>
#include <vector>

namespace tsem {

class ByteWriter;
class ByteReader;

class FdmLocal {
 public:
  FdmLocal() = default;
  /// pts[d]: 1D node positions in direction d INCLUDING the two Dirichlet
  /// ring endpoints; the solve acts on the interior tensor product
  /// (size prod_d (pts[d].size() - 2)).
  FdmLocal(const std::array<std::vector<double>, 3>& pts, int dim);

  /// z = A~^{-1} r (z may alias r).  work must hold >= 3 * size() doubles.
  void solve(const double* r, double* z, double* work) const;

  /// Batched solve over nb element-contiguous blocks: r and z hold nb
  /// size()-sized blocks back to back, work >= 3 * nb * size() doubles
  /// (z may alias r).  The first tensor stage contracts the whole batch
  /// in ONE tall mxm_bt call (the per-element row blocks concatenate
  /// because x is the fastest index); later stages sweep the batch
  /// slab-by-slab with hot factor matrices.  Each block's result is
  /// bitwise identical to a solve() on that block — every row of every
  /// stage runs the same kernel on the same operands.
  void solve_batch(const double* r, double* z, int nb, double* work) const;

  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] int extent(int d) const { return m_[d]; }
  [[nodiscard]] std::size_t size() const { return inv_lambda_.size(); }
  /// Flops for one solve (for the Table 2 cost accounting).
  [[nodiscard]] double solve_flops() const;

  /// Append the factorization (dim, extents, eigenvector matrices,
  /// inverse eigenvalue sums) to w (setup cache, DESIGN.md "Setup
  /// cache").
  void serialize(ByteWriter& w) const;
  /// Rebuild *this from r.  Returns false (object unspecified) on a
  /// truncated or structurally inconsistent payload; integrity against
  /// bit rot is the enclosing cache entry's CRC, not this check.
  bool deserialize(ByteReader& r);

 private:
  int dim_ = 0;
  int m_[3] = {0, 0, 0};
  // Eigenvector matrices (m x m, row-major, columns = eigenvectors) and
  // transposes (pre-stored for the tensor kernels).
  std::array<std::vector<double>, 3> s_;
  std::array<std::vector<double>, 3> st_;
  std::vector<double> inv_lambda_;
};

}  // namespace tsem
