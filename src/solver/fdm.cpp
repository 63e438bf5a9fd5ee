#include "solver/fdm.hpp"

#include "common/check.hpp"
#include "fem/fem.hpp"
#include "io/binfile.hpp"
#include "tensor/linalg.hpp"
#include "tensor/mxm.hpp"
#include "tensor/tensor_apply.hpp"

namespace tsem {

FdmLocal::FdmLocal(const std::array<std::vector<double>, 3>& pts, int dim)
    : dim_(dim) {
  TSEM_REQUIRE(dim == 2 || dim == 3);
  std::array<std::vector<double>, 3> lambda;
  for (int d = 0; d < dim; ++d) {
    std::vector<double> a, bl;
    fem1d_operators(pts[d], a, bl);
    const int m = static_cast<int>(bl.size());
    m_[d] = m;
    std::vector<double> bmat(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) bmat[i * m + i] = bl[i];
    generalized_sym_eig(a.data(), bmat.data(), m, lambda[d], s_[d]);
    st_[d].resize(s_[d].size());
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < m; ++j) st_[d][j * m + i] = s_[d][i * m + j];
  }
  if (dim == 2) {
    inv_lambda_.resize(static_cast<std::size_t>(m_[0]) * m_[1]);
    for (int j = 0; j < m_[1]; ++j)
      for (int i = 0; i < m_[0]; ++i)
        inv_lambda_[j * m_[0] + i] = 1.0 / (lambda[0][i] + lambda[1][j]);
  } else {
    inv_lambda_.resize(static_cast<std::size_t>(m_[0]) * m_[1] * m_[2]);
    for (int k = 0; k < m_[2]; ++k)
      for (int j = 0; j < m_[1]; ++j)
        for (int i = 0; i < m_[0]; ++i)
          inv_lambda_[(k * m_[1] + j) * m_[0] + i] =
              1.0 / (lambda[0][i] + lambda[1][j] + lambda[2][k]);
  }
}

void FdmLocal::solve(const double* r, double* z, double* work) const {
  const std::size_t n = size();
  double* t = work;
  double* scratch = work + n;
  if (dim_ == 2) {
    // t = (Sy^T (x) Sx^T) r
    tensor2_apply(st_[0].data(), m_[0], m_[0], st_[1].data(), m_[1], m_[1], r,
                  t, scratch);
    for (std::size_t i = 0; i < n; ++i) t[i] *= inv_lambda_[i];
    tensor2_apply(s_[0].data(), m_[0], m_[0], s_[1].data(), m_[1], m_[1], t,
                  z, scratch);
  } else {
    tensor3_apply(st_[0].data(), m_[0], m_[0], st_[1].data(), m_[1], m_[1],
                  st_[2].data(), m_[2], m_[2], r, t, scratch);
    for (std::size_t i = 0; i < n; ++i) t[i] *= inv_lambda_[i];
    tensor3_apply(s_[0].data(), m_[0], m_[0], s_[1].data(), m_[1], m_[1],
                  s_[2].data(), m_[2], m_[2], t, z, scratch);
  }
}

void FdmLocal::solve_batch(const double* r, double* z, int nb,
                           double* work) const {
  const std::size_t n = size();
  const std::size_t stride = n * static_cast<std::size_t>(nb);
  double* t = work;            // diagonal-scaled intermediate, nb blocks
  double* t1 = work + stride;  // stage scratch
  double* t2 = t1 + stride;    // stage scratch (3D)
  if (dim_ == 2) {
    const int mx = m_[0], my = m_[1];
    mxm_bt(r, nb * my, st_[0].data(), mx, t1, mx);
    for (int e = 0; e < nb; ++e)
      mxm(st_[1].data(), my, t1 + e * n, my, t + e * n, mx);
    for (int e = 0; e < nb; ++e) {
      double* te = t + e * n;
      for (std::size_t i = 0; i < n; ++i) te[i] *= inv_lambda_[i];
    }
    mxm_bt(t, nb * my, s_[0].data(), mx, t1, mx);
    for (int e = 0; e < nb; ++e)
      mxm(s_[1].data(), my, t1 + e * n, my, z + e * n, mx);
  } else {
    const int mx = m_[0], my = m_[1], mz = m_[2];
    const std::size_t slab = static_cast<std::size_t>(my) * mx;
    mxm_bt(r, nb * mz * my, st_[0].data(), mx, t1, mx);
    for (int s = 0; s < nb * mz; ++s)
      mxm(st_[1].data(), my, t1 + s * slab, my, t2 + s * slab, mx);
    for (int e = 0; e < nb; ++e)
      mxm(st_[2].data(), mz, t2 + e * n, mz, t + e * n, my * mx);
    for (int e = 0; e < nb; ++e) {
      double* te = t + e * n;
      for (std::size_t i = 0; i < n; ++i) te[i] *= inv_lambda_[i];
    }
    mxm_bt(t, nb * mz * my, s_[0].data(), mx, t1, mx);
    for (int s = 0; s < nb * mz; ++s)
      mxm(s_[1].data(), my, t1 + s * slab, my, t2 + s * slab, mx);
    for (int e = 0; e < nb; ++e)
      mxm(s_[2].data(), mz, t2 + e * n, mz, z + e * n, my * mx);
  }
}

double FdmLocal::solve_flops() const {
  double f = static_cast<double>(size());  // the diagonal scale
  if (dim_ == 2) {
    f += 4.0 * static_cast<double>(m_[0]) * m_[0] * m_[1] +
         4.0 * static_cast<double>(m_[1]) * m_[1] * m_[0];
  } else {
    const double mx = m_[0], my = m_[1], mz = m_[2];
    f += 4.0 * (mx * mx * my * mz + my * my * mx * mz + mz * mz * mx * my);
  }
  return f;
}

void FdmLocal::serialize(ByteWriter& w) const {
  w.put<std::int32_t>(dim_);
  for (int d = 0; d < 3; ++d) w.put<std::int32_t>(m_[d]);
  for (int d = 0; d < 3; ++d) w.put_vec(s_[d]);
  for (int d = 0; d < 3; ++d) w.put_vec(st_[d]);
  w.put_vec(inv_lambda_);
}

bool FdmLocal::deserialize(ByteReader& r) {
  std::int32_t dim = 0, m[3] = {0, 0, 0};
  if (!r.get(&dim)) return false;
  for (int d = 0; d < 3; ++d)
    if (!r.get(&m[d])) return false;
  if (dim != 2 && dim != 3) return false;
  std::array<std::vector<double>, 3> s, st;
  std::vector<double> il;
  for (int d = 0; d < 3; ++d)
    if (!r.get_vec(&s[d])) return false;
  for (int d = 0; d < 3; ++d)
    if (!r.get_vec(&st[d])) return false;
  if (!r.get_vec(&il)) return false;
  std::size_t n = 1;
  for (int d = 0; d < dim; ++d) {
    if (m[d] < 1) return false;
    const std::size_t mm = static_cast<std::size_t>(m[d]) * m[d];
    if (s[d].size() != mm || st[d].size() != mm) return false;
    n *= static_cast<std::size_t>(m[d]);
  }
  if (il.size() != n) return false;
  dim_ = dim;
  for (int d = 0; d < 3; ++d) m_[d] = m[d];
  s_ = std::move(s);
  st_ = std::move(st);
  inv_lambda_ = std::move(il);
  return true;
}

}  // namespace tsem
