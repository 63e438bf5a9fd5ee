#include "core/operators.hpp"

#include "common/check.hpp"
#include "poly/basis1d.hpp"

namespace tsem {
namespace {

// Per-element scratch every kernel below draws from the calling thread's
// arena slab: dim reference derivatives plus one accumulator.
std::size_t elem_scratch(const Mesh& m) {
  return 4 * static_cast<std::size_t>(m.npe);
}

// One element of the paper's §3 operator, A^k = (D_r D_s)^T [G] (D_r D_s).
// `goff` is the element's offset into the mesh geometry (G factors, mass);
// u and w are the element's field blocks.  With bm null this is the
// stiffness w = A^k u; otherwise bm is the element's mass diagonal and
// w = h1 * A^k u + h2 * B^k u, added in the last accumulate pass.
void helmholtz_elem_2d(const Mesh& m, const Basis1D& b, std::size_t goff,
                       const double* bm, double h1, double h2,
                       const double* u, double* w, double* s) {
  const int n1 = b.npts();
  const int npe = m.npe;
  const std::size_t nl = m.nlocal();
  double* ur = s;
  double* us = s + npe;
  double* t = s + 2 * static_cast<std::size_t>(npe);
  tensor2_apply_x(b.d.data(), n1, n1, u, ur);
  tensor2_apply_y(b.d.data(), n1, n1, u, us);
  const double* grr = m.g.data() + 0 * nl + goff;
  const double* grs = m.g.data() + 1 * nl + goff;
  const double* gss = m.g.data() + 2 * nl + goff;
  for (int n = 0; n < npe; ++n) {
    const double wr = grr[n] * ur[n] + grs[n] * us[n];
    const double ws = grs[n] * ur[n] + gss[n] * us[n];
    ur[n] = wr;
    us[n] = ws;
  }
  tensor2_apply_x(b.dt.data(), n1, n1, ur, w);
  tensor2_apply_y(b.dt.data(), n1, n1, us, t);
  if (bm)
    for (int n = 0; n < npe; ++n)
      w[n] = h1 * (w[n] + t[n]) + h2 * bm[n] * u[n];
  else
    for (int n = 0; n < npe; ++n) w[n] += t[n];
}

// 3D counterpart of helmholtz_elem_2d (A^k with D_t and six G factors).
void helmholtz_elem_3d(const Mesh& m, const Basis1D& b, std::size_t goff,
                       const double* bm, double h1, double h2,
                       const double* u, double* w, double* s) {
  const int n1 = b.npts();
  const int npe = m.npe;
  const std::size_t nl = m.nlocal();
  double* ur = s;
  double* us = s + npe;
  double* ut = s + 2 * static_cast<std::size_t>(npe);
  double* t = s + 3 * static_cast<std::size_t>(npe);
  tensor3_apply_x(b.d.data(), n1, n1, n1, u, ur);
  tensor3_apply_y(b.d.data(), n1, n1, n1, u, us);
  tensor3_apply_z(b.d.data(), n1, n1, n1, u, ut);
  const double* grr = m.g.data() + 0 * nl + goff;
  const double* grs = m.g.data() + 1 * nl + goff;
  const double* grt = m.g.data() + 2 * nl + goff;
  const double* gss = m.g.data() + 3 * nl + goff;
  const double* gst = m.g.data() + 4 * nl + goff;
  const double* gtt = m.g.data() + 5 * nl + goff;
  for (int n = 0; n < npe; ++n) {
    const double wr = grr[n] * ur[n] + grs[n] * us[n] + grt[n] * ut[n];
    const double ws = grs[n] * ur[n] + gss[n] * us[n] + gst[n] * ut[n];
    const double wt = grt[n] * ur[n] + gst[n] * us[n] + gtt[n] * ut[n];
    ur[n] = wr;
    us[n] = ws;
    ut[n] = wt;
  }
  tensor3_apply_x(b.dt.data(), n1, n1, n1, ur, w);
  tensor3_apply_y(b.dt.data(), n1, n1, n1, us, t);
  for (int n = 0; n < npe; ++n) w[n] += t[n];
  tensor3_apply_z(b.dt.data(), n1, n1, n1, ut, t);
  if (bm)
    for (int n = 0; n < npe; ++n)
      w[n] = h1 * (w[n] + t[n]) + h2 * bm[n] * u[n];
  else
    for (int n = 0; n < npe; ++n) w[n] += t[n];
}

void helmholtz_elem(const Mesh& m, const Basis1D& b, std::size_t goff,
                    bool mass, double h1, double h2, const double* u,
                    double* w, double* s) {
  const double* bm = mass ? m.bm.data() + goff : nullptr;
  if (m.dim == 2)
    helmholtz_elem_2d(m, b, goff, bm, h1, h2, u, w, s);
  else
    helmholtz_elem_3d(m, b, goff, bm, h1, h2, u, w, s);
}

// grad[c] = du/dx_c on element `off`: reference derivatives, then the
// chain rule with the stored metrics.
void gradient_elem(const Mesh& m, const Basis1D& b, std::size_t off,
                   const double* u, double* const* grad, double* s) {
  const int n1 = b.npts();
  const int npe = m.npe;
  double* ur = s;
  double* us = s + npe;
  double* ut = s + 2 * static_cast<std::size_t>(npe);
  if (m.dim == 2) {
    tensor2_apply_x(b.d.data(), n1, n1, u + off, ur);
    tensor2_apply_y(b.d.data(), n1, n1, u + off, us);
    const double* rx = m.metric(0, 0) + off;
    const double* ry = m.metric(0, 1) + off;
    const double* sx = m.metric(1, 0) + off;
    const double* sy = m.metric(1, 1) + off;
    for (int n = 0; n < npe; ++n) {
      grad[0][off + n] = rx[n] * ur[n] + sx[n] * us[n];
      grad[1][off + n] = ry[n] * ur[n] + sy[n] * us[n];
    }
  } else {
    tensor3_apply_x(b.d.data(), n1, n1, n1, u + off, ur);
    tensor3_apply_y(b.d.data(), n1, n1, n1, u + off, us);
    tensor3_apply_z(b.d.data(), n1, n1, n1, u + off, ut);
    for (int c = 0; c < 3; ++c) {
      const double* rc = m.metric(0, c) + off;
      const double* sc = m.metric(1, c) + off;
      const double* tc = m.metric(2, c) + off;
      double* gc = grad[c] + off;
      for (int n = 0; n < npe; ++n)
        gc[n] = rc[n] * ur[n] + sc[n] * us[n] + tc[n] * ut[n];
    }
  }
}

// conv = (vel . grad) u on element `off`.  Fused gradient + dot product:
// the reference derivatives stay in the element scratch and the chain
// rule feeds the velocity dot product directly, instead of materializing
// dim full-length gradient fields.
void convect_elem(const Mesh& m, const Basis1D& b, std::size_t off,
                  const double* const* vel, const double* u, double* conv,
                  double* s) {
  const int n1 = b.npts();
  const int npe = m.npe;
  double* ur = s;
  double* us = s + npe;
  double* ut = s + 2 * static_cast<std::size_t>(npe);
  if (m.dim == 2) {
    tensor2_apply_x(b.d.data(), n1, n1, u + off, ur);
    tensor2_apply_y(b.d.data(), n1, n1, u + off, us);
    const double* rx = m.metric(0, 0) + off;
    const double* ry = m.metric(0, 1) + off;
    const double* sx = m.metric(1, 0) + off;
    const double* sy = m.metric(1, 1) + off;
    const double* v0 = vel[0] + off;
    const double* v1 = vel[1] + off;
    for (int n = 0; n < npe; ++n) {
      const double gx = rx[n] * ur[n] + sx[n] * us[n];
      const double gy = ry[n] * ur[n] + sy[n] * us[n];
      conv[off + n] = v0[n] * gx + v1[n] * gy;
    }
  } else {
    tensor3_apply_x(b.d.data(), n1, n1, n1, u + off, ur);
    tensor3_apply_y(b.d.data(), n1, n1, n1, u + off, us);
    tensor3_apply_z(b.d.data(), n1, n1, n1, u + off, ut);
    const double* v0 = vel[0] + off;
    const double* v1 = vel[1] + off;
    const double* v2 = vel[2] + off;
    const double* rx = m.metric(0, 0) + off;
    const double* sx = m.metric(1, 0) + off;
    const double* tx = m.metric(2, 0) + off;
    const double* ry = m.metric(0, 1) + off;
    const double* sy = m.metric(1, 1) + off;
    const double* ty = m.metric(2, 1) + off;
    const double* rz = m.metric(0, 2) + off;
    const double* sz = m.metric(1, 2) + off;
    const double* tz = m.metric(2, 2) + off;
    for (int n = 0; n < npe; ++n) {
      const double gx = rx[n] * ur[n] + sx[n] * us[n] + tx[n] * ut[n];
      const double gy = ry[n] * ur[n] + sy[n] * us[n] + ty[n] * ut[n];
      const double gz = rz[n] * ur[n] + sz[n] * us[n] + tz[n] * ut[n];
      conv[off + n] = v0[n] * gx + v1[n] * gy + v2[n] * gz;
    }
  }
}

// u <- (F (x) F (x) F) u on element `off`, in place through the scratch.
void filter_elem(const Mesh& m, const std::vector<double>& f, std::size_t off,
                 double* u, double* s) {
  const int n1 = m.n1d();
  const int npe = m.npe;
  // The tensor apply needs nz*ny*mx + nz*my*mx = 2*npe of scratch in 3D
  // (npe in 2D) ahead of the npe-sized result.
  if (m.dim == 2) {
    tensor2_apply(f.data(), n1, n1, f.data(), n1, n1, u + off, s + npe, s);
    for (int n = 0; n < npe; ++n) u[off + n] = s[npe + n];
  } else {
    tensor3_apply(f.data(), n1, n1, f.data(), n1, n1, f.data(), n1, n1,
                  u + off, s + 2 * static_cast<std::size_t>(npe), s);
    for (int n = 0; n < npe; ++n)
      u[off + n] = s[2 * static_cast<std::size_t>(npe) + n];
  }
}

// The one element loop of every *_local_multi entry: an OpenMP static
// schedule over elements, each thread running kern(f, off, scratch) for
// every field of its elements.  Element e writes only its own
// [off, off + npe) block of each output and reads per-thread arena
// scratch, so the result is deterministic and bitwise independent of the
// thread count, and each field's values equal an nf = 1 call.
template <class Kernel>
void for_each_element(const Mesh& m, int nf, TensorWork& work,
                      const Kernel& kern) {
  const std::size_t ns = elem_scratch(m);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < m.nelem; ++e) {
    double* s = work.get(ns);
    const std::size_t off = static_cast<std::size_t>(e) * m.npe;
    for (int f = 0; f < nf; ++f) kern(f, off, s);
  }
}

void helmholtz_multi(const Mesh& m, bool mass, double h1, double h2,
                     const double* const* u, double* const* w, int nf,
                     TensorWork& work) {
  const auto& b = Basis1D::get(m.order);
  for_each_element(m, nf, work, [&](int f, std::size_t off, double* s) {
    helmholtz_elem(m, b, off, mass, h1, h2, u[f] + off, w[f] + off, s);
  });
}

// Serial by contract (header): the fork-safe mp entry point.  The kernel
// takes the geometry offset and the field blocks separately, which is
// what lets a packed rank-local field ride the global mesh geometry.
void helmholtz_elems(const Mesh& m, bool mass, double h1, double h2,
                     const std::int32_t* elems, const std::int32_t* blk,
                     std::size_t nelems, const double* u, double* w,
                     TensorWork& work) {
  const auto& b = Basis1D::get(m.order);
  const std::size_t npe = static_cast<std::size_t>(m.npe);
  double* s = work.get(elem_scratch(m));
  for (std::size_t i = 0; i < nelems; ++i) {
    const std::size_t goff = static_cast<std::size_t>(elems[i]) * npe;
    const std::size_t foff =
        static_cast<std::size_t>(blk ? blk[i] : elems[i]) * npe;
    helmholtz_elem(m, b, goff, mass, h1, h2, u + foff, w + foff, s);
  }
}

}  // namespace

void apply_stiffness_local(const Mesh& m, const double* u, double* w,
                           TensorWork& work) {
  apply_stiffness_local_multi(m, &u, &w, 1, work);
}

void apply_helmholtz_local(const Mesh& m, double h1, double h2,
                           const double* u, double* w, TensorWork& work) {
  apply_helmholtz_local_multi(m, h1, h2, &u, &w, 1, work);
}

void apply_stiffness_local_elems(const Mesh& m, const std::int32_t* elems,
                                 const std::int32_t* blk, std::size_t nelems,
                                 const double* u, double* w,
                                 TensorWork& work) {
  helmholtz_elems(m, false, 0.0, 0.0, elems, blk, nelems, u, w, work);
}

void apply_helmholtz_local_elems(const Mesh& m, double h1, double h2,
                                 const std::int32_t* elems,
                                 const std::int32_t* blk, std::size_t nelems,
                                 const double* u, double* w,
                                 TensorWork& work) {
  helmholtz_elems(m, true, h1, h2, elems, blk, nelems, u, w, work);
}

std::vector<double> stiffness_diagonal_local(const Mesh& m) {
  const auto& b = Basis1D::get(m.order);
  const int n1 = b.npts();
  const std::size_t nl = m.nlocal();
  std::vector<double> diag(nl, 0.0);
  // Column c of D-hat squared, summed against the G factors along the
  // active direction; cross terms hit only the node itself (see the
  // derivation in DESIGN.md / standard SEM references).
  std::vector<double> d2(static_cast<std::size_t>(n1) * n1);
  for (int q = 0; q < n1; ++q)
    for (int a = 0; a < n1; ++a) d2[q * n1 + a] = b.d[q * n1 + a] * b.d[q * n1 + a];

  if (m.dim == 2) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * m.npe;
      const double* grr = m.g.data() + 0 * nl + off;
      const double* grs = m.g.data() + 1 * nl + off;
      const double* gss = m.g.data() + 2 * nl + off;
      for (int bb = 0; bb < n1; ++bb)
        for (int a = 0; a < n1; ++a) {
          double s = 0.0;
          for (int q = 0; q < n1; ++q) {
            s += d2[q * n1 + a] * grr[bb * n1 + q];
            s += d2[q * n1 + bb] * gss[q * n1 + a];
          }
          s += 2.0 * b.d[a * n1 + a] * b.d[bb * n1 + bb] * grs[bb * n1 + a];
          diag[off + bb * n1 + a] = s;
        }
    }
  } else {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * m.npe;
      const double* g0 = m.g.data() + 0 * nl + off;
      const double* g1 = m.g.data() + 1 * nl + off;
      const double* g2 = m.g.data() + 2 * nl + off;
      const double* g3 = m.g.data() + 3 * nl + off;
      const double* g4 = m.g.data() + 4 * nl + off;
      const double* g5 = m.g.data() + 5 * nl + off;
      for (int c = 0; c < n1; ++c)
        for (int bb = 0; bb < n1; ++bb)
          for (int a = 0; a < n1; ++a) {
            double s = 0.0;
            for (int q = 0; q < n1; ++q) {
              s += d2[q * n1 + a] * g0[(c * n1 + bb) * n1 + q];
              s += d2[q * n1 + bb] * g3[(c * n1 + q) * n1 + a];
              s += d2[q * n1 + c] * g5[(q * n1 + bb) * n1 + a];
            }
            const int n = (c * n1 + bb) * n1 + a;
            s += 2.0 * b.d[a * n1 + a] * b.d[bb * n1 + bb] * g1[n];
            s += 2.0 * b.d[a * n1 + a] * b.d[c * n1 + c] * g2[n];
            s += 2.0 * b.d[bb * n1 + bb] * b.d[c * n1 + c] * g4[n];
            diag[off + n] = s;
          }
    }
  }
  return diag;
}

void gradient_local(const Mesh& m, const double* u, double* const* grad,
                    TensorWork& work) {
  gradient_local_multi(m, &u, grad, 1, work);
}

void convect_local(const Mesh& m, const double* const* vel, const double* u,
                   double* conv, TensorWork& work) {
  convect_local_multi(m, vel, &u, &conv, 1, work);
}

void apply_filter_local(const Mesh& m, const std::vector<double>& f,
                        double* u, TensorWork& work) {
  apply_filter_local_multi(m, f, &u, 1, work);
}

void apply_stiffness_local_multi(const Mesh& m, const double* const* u,
                                 double* const* w, int nf, TensorWork& work) {
  helmholtz_multi(m, false, 0.0, 0.0, u, w, nf, work);
}

void apply_helmholtz_local_multi(const Mesh& m, double h1, double h2,
                                 const double* const* u, double* const* w,
                                 int nf, TensorWork& work) {
  helmholtz_multi(m, true, h1, h2, u, w, nf, work);
}

void gradient_local_multi(const Mesh& m, const double* const* u,
                          double* const* grad, int nf, TensorWork& work) {
  const auto& b = Basis1D::get(m.order);
  for_each_element(m, nf, work, [&](int f, std::size_t off, double* s) {
    gradient_elem(m, b, off, u[f], grad + static_cast<std::size_t>(f) * m.dim,
                  s);
  });
}

void convect_local_multi(const Mesh& m, const double* const* vel,
                         const double* const* u, double* const* conv, int nf,
                         TensorWork& work) {
  const auto& b = Basis1D::get(m.order);
  for_each_element(m, nf, work, [&](int f, std::size_t off, double* s) {
    convect_elem(m, b, off, vel, u[f], conv[f], s);
  });
}

void apply_filter_local_multi(const Mesh& m, const std::vector<double>& f,
                              double* const* u, int nf, TensorWork& work) {
  TSEM_REQUIRE(static_cast<int>(f.size()) == m.n1d() * m.n1d());
  for_each_element(m, nf, work, [&](int ff, std::size_t off, double* s) {
    filter_elem(m, f, off, u[ff], s);
  });
}

double stiffness_flops(const Mesh& m) {
  const double n = m.order;
  if (m.dim == 3)
    return m.nelem * (12.0 * n * n * n * n + 15.0 * n * n * n);
  return m.nelem * (8.0 * n * n * n + 8.0 * n * n);
}

}  // namespace tsem
