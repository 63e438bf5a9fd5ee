#include "core/pressure.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "poly/basis1d.hpp"
#include "tensor/mxm.hpp"
#include "tensor/tensor_apply.hpp"

namespace tsem {
namespace {

// The orders the element kernels are compiled for.
constexpr int kMinOrder = 3;
constexpr int kMaxOrder = 16;

// One outlined body per stage shape, as in kernels_fixed.cpp.  Inlining
// every stage into its kernel multiplies the unrolled code without making
// the 3D stages faster, and makes this file take minutes to compile under
// the sanitizers.
template <int M, int K, int N>
[[gnu::noinline]] void stage(const double* a, const double* b, double* c) {
  mxm_fixed<M, K, N>(a, b, c);
}

}  // namespace

PressureSystem::PressureSystem(const Space& vspace, std::vector<double> vmask)
    : vspace_(&vspace) {
  const Mesh& m = vspace.mesh();
  TSEM_REQUIRE(m.order >= kMinOrder && m.order <= kMaxOrder);
  TSEM_REQUIRE(vmask.size() == m.nlocal());
  dim_ = m.dim;
  ng1_ = m.order - 1;
  npe_ = 1;
  for (int d = 0; d < dim_; ++d) npe_ *= ng1_;

  const auto& b = Basis1D::get(m.order);
  const int n1 = b.npts();
  ig_ = gll_to_gauss(m.order, ng1_);  // ng1 x n1
  dg_.assign(static_cast<std::size_t>(ng1_) * n1, 0.0);
  mxm_generic(ig_.data(), ng1_, b.d.data(), n1, dg_.data(), n1);
  igt_.resize(ig_.size());
  dgt_.resize(dg_.size());
  for (int i = 0; i < ng1_; ++i)
    for (int j = 0; j < n1; ++j) {
      igt_[j * ng1_ + i] = ig_[i * n1 + j];
      dgt_[j * ng1_ + i] = dg_[i * n1 + j];
    }
  idgt_.resize(2 * ig_.size());
  for (int j = 0; j < n1; ++j)
    for (int i = 0; i < ng1_; ++i) {
      idgt_[j * 2 * ng1_ + i] = igt_[j * ng1_ + i];
      idgt_[j * 2 * ng1_ + ng1_ + i] = dgt_[j * ng1_ + i];
    }
  bind_kernels(std::make_integer_sequence<int, kMaxOrder - kMinOrder + 1>{});
  bmask_.resize(m.nlocal());
  for (std::size_t i = 0; i < bmask_.size(); ++i)
    bmask_[i] = vspace.bm_inv()[i] * vmask[i];

  const auto& gw = gauss_weights(ng1_);
  const std::size_t nploc = nloc();
  pg_.resize(static_cast<std::size_t>(dim_) * dim_ * nploc);
  pbm_.resize(nploc);
  px_.resize(nploc);
  py_.resize(nploc);
  if (dim_ == 3) pz_.resize(nploc);

  // Per element: coordinate derivatives on the GLL grid, interpolated to
  // the Gauss grid; then metrics, Jacobian and weights at the Gauss nodes.
  const std::size_t vnpe = m.npe;
  std::vector<double> work(4 * static_cast<std::size_t>(vnpe) +
                           4 * static_cast<std::size_t>(npe_));
  if (dim_ == 2) {
    std::vector<double> xr(npe_), xs(npe_), yr(npe_), ys(npe_), cx(npe_),
        cy(npe_);
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * vnpe;
      const std::size_t poff = static_cast<std::size_t>(e) * npe_;
      // d/dr at Gauss = (ig (x) dg), d/ds = (dg (x) ig).
      tensor2_apply(dg_.data(), ng1_, n1, ig_.data(), ng1_, n1,
                    m.x.data() + off, xr.data(), work.data());
      tensor2_apply(ig_.data(), ng1_, n1, dg_.data(), ng1_, n1,
                    m.x.data() + off, xs.data(), work.data());
      tensor2_apply(dg_.data(), ng1_, n1, ig_.data(), ng1_, n1,
                    m.y.data() + off, yr.data(), work.data());
      tensor2_apply(ig_.data(), ng1_, n1, dg_.data(), ng1_, n1,
                    m.y.data() + off, ys.data(), work.data());
      tensor2_apply(ig_.data(), ng1_, n1, ig_.data(), ng1_, n1,
                    m.x.data() + off, cx.data(), work.data());
      tensor2_apply(ig_.data(), ng1_, n1, ig_.data(), ng1_, n1,
                    m.y.data() + off, cy.data(), work.data());
      for (int j = 0; j < ng1_; ++j)
        for (int i = 0; i < ng1_; ++i) {
          const int q = j * ng1_ + i;
          const double jac = xr[q] * ys[q] - xs[q] * yr[q];
          TSEM_REQUIRE(jac > 0.0);
          const double w = gw[i] * gw[j];
          const double wj = w * jac;
          pbm_[poff + q] = wj;
          px_[poff + q] = cx[q];
          py_[poff + q] = cy[q];
          // dr/dx = ys/J, ds/dx = -yr/J, dr/dy = -xs/J, ds/dy = xr/J.
          pg_[(0 * 2 + 0) * nploc + poff + q] = wj * (ys[q] / jac);
          pg_[(0 * 2 + 1) * nploc + poff + q] = wj * (-yr[q] / jac);
          pg_[(1 * 2 + 0) * nploc + poff + q] = wj * (-xs[q] / jac);
          pg_[(1 * 2 + 1) * nploc + poff + q] = wj * (xr[q] / jac);
        }
    }
  } else {
    std::vector<double> d[9], cc[3];
    for (auto& v : d) v.resize(npe_);
    for (auto& v : cc) v.resize(npe_);
    const double* coords[3] = {nullptr, nullptr, nullptr};
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * vnpe;
      const std::size_t poff = static_cast<std::size_t>(e) * npe_;
      coords[0] = m.x.data() + off;
      coords[1] = m.y.data() + off;
      coords[2] = m.z.data() + off;
      for (int c = 0; c < 3; ++c) {
        tensor3_apply(dg_.data(), ng1_, n1, ig_.data(), ng1_, n1, ig_.data(),
                      ng1_, n1, coords[c], d[c * 3 + 0].data(), work.data());
        tensor3_apply(ig_.data(), ng1_, n1, dg_.data(), ng1_, n1, ig_.data(),
                      ng1_, n1, coords[c], d[c * 3 + 1].data(), work.data());
        tensor3_apply(ig_.data(), ng1_, n1, ig_.data(), ng1_, n1, dg_.data(),
                      ng1_, n1, coords[c], d[c * 3 + 2].data(), work.data());
        tensor3_apply(ig_.data(), ng1_, n1, ig_.data(), ng1_, n1, ig_.data(),
                      ng1_, n1, coords[c], cc[c].data(), work.data());
      }
      for (int k = 0; k < ng1_; ++k)
        for (int j = 0; j < ng1_; ++j)
          for (int i = 0; i < ng1_; ++i) {
            const int q = (k * ng1_ + j) * ng1_ + i;
            const double xr = d[0][q], xs = d[1][q], xt = d[2][q];
            const double yr = d[3][q], ys = d[4][q], yt = d[5][q];
            const double zr = d[6][q], zs = d[7][q], zt = d[8][q];
            const double jac = xr * (ys * zt - yt * zs) -
                               xs * (yr * zt - yt * zr) +
                               xt * (yr * zs - ys * zr);
            TSEM_REQUIRE(jac > 0.0);
            const double w = gw[i] * gw[j] * gw[k];
            const double wj = w * jac;
            pbm_[poff + q] = wj;
            px_[poff + q] = cc[0][q];
            py_[poff + q] = cc[1][q];
            pz_[poff + q] = cc[2][q];
            const double dr[9] = {
                (ys * zt - yt * zs) / jac, (yt * zr - yr * zt) / jac,
                (yr * zs - ys * zr) / jac, (xt * zs - xs * zt) / jac,
                (xr * zt - xt * zr) / jac, (xs * zr - xr * zs) / jac,
                (xs * yt - xt * ys) / jac, (xt * yr - xr * yt) / jac,
                (xr * ys - xs * yr) / jac};
            // dr[xi*3 + rj] = d r_{rj} / d x_{xi}; pgeo(i, j) stores
            // WJ * dr_j/dx_i.
            for (int xi = 0; xi < 3; ++xi)
              for (int rj = 0; rj < 3; ++rj)
                pg_[(static_cast<std::size_t>(xi) * 3 + rj) * nploc + poff +
                    q] = wj * dr[xi * 3 + rj];
          }
    }
  }
}

// The element kernels below are compiled for each (dimension, GLL point
// count N1) pair, so every tensor stage is an mxm_fixed<M,K,N> (through
// stage<M,K,N>) with compile-time extents (G = N1 - 2 Gauss points per
// direction) and every scratch array is a fixed-size stack array — the
// paper's answer (§6, Table 3): one fixed kernel per shape, never a
// runtime-shaped one.
//
// The three operators are OpenMP element loops in the style of
// apply_stiffness_local: element e writes only its own output block,
// from stack scratch, with the same operation order whatever thread runs
// it.  The static schedule is therefore bitwise independent of the
// thread count.

template <int D, int N1>
void PressureSystem::divergence_elem(int e, const double* const* u,
                                     double* dp) const {
  constexpr int G = N1 - 2;
  constexpr int NP = D == 2 ? G * G : G * G * G;
  constexpr int NV = D == 2 ? N1 * N1 : N1 * N1 * N1;
  const std::size_t off = static_cast<std::size_t>(e) * NV;
  const std::size_t poff = static_cast<std::size_t>(e) * NP;
  const double* ig = ig_.data();
  const double* dg = dg_.data();
  const double* igt = igt_.data();
  const double* dgt = dgt_.data();
  alignas(64) double acc[NP];
  alignas(64) double deriv[NP];
  for (int q = 0; q < NP; ++q) acc[q] = 0.0;
  // dp += W J dr_j/dx_c * (d u_c / dr_j), in the order c, j.
  auto accumulate = [&](int c, int j) {
    const double* pg = pgeo(c, j) + poff;
    for (int q = 0; q < NP; ++q) acc[q] += pg[q] * deriv[q];
  };
  for (int c = 0; c < D; ++c) {
    const double* uc = u[c] + off;
    if constexpr (D == 2) {
      // y stage (G, N1, N1): ig u and dg u; x stage (G, N1, G).
      alignas(64) double yi[G * N1], yd[G * N1];
      stage<G, N1, N1>(ig, uc, yi);
      stage<G, N1, N1>(dg, uc, yd);
      stage<G, N1, G>(yi, dgt, deriv);
      accumulate(c, 0);
      stage<G, N1, G>(yd, igt, deriv);
      accumulate(c, 1);
    } else {
      // z stage (G, N1, N1^2): dg u, and ig u shared by the r and s
      // derivatives; y stage (G, N1, N1) per plane; x stage (G^2, N1, G).
      // The widest stages come first, where their rows are longest.
      alignas(64) double zd[G * N1 * N1], zi[G * N1 * N1], yx[G * G * N1];
      stage<G, N1, N1 * N1>(dg, uc, zd);
      stage<G, N1, N1 * N1>(ig, uc, zi);
      for (int j = 0; j < 3; ++j) {
        const double* z = j == 2 ? zd : zi;
        const double* ay = j == 1 ? dg : ig;
        const double* bx = j == 0 ? dgt : igt;
        for (int k = 0; k < G; ++k)
          stage<G, N1, N1>(ay, z + k * N1 * N1, yx + k * G * N1);
        stage<G * G, N1, G>(yx, bx, deriv);
        accumulate(c, j);
      }
    }
  }
  std::copy(acc, acc + NP, dp + poff);
}

template <int D, int N1>
void PressureSystem::gradient_t_elem(int e, const double* p,
                                     double* const* w) const {
  constexpr int G = N1 - 2;
  constexpr int NP = D == 2 ? G * G : G * G * G;
  constexpr int NV = D == 2 ? N1 * N1 : N1 * N1 * N1;
  const std::size_t off = static_cast<std::size_t>(e) * NV;
  const std::size_t poff = static_cast<std::size_t>(e) * NP;
  const double* ig = ig_.data();
  const double* dg = dg_.data();
  const double* igt = igt_.data();
  const double* idgt = idgt_.data();
  const double* pe = p + poff;
  // w_c = sum_j R_j^T (W J dr_j/dx_c * p), R_j = d/dr_j at the Gauss
  // points.  The r and s terms share the outermost ig^T stage, so their
  // partial results are stacked and contracted together against
  // [ig^T | dg^T]; in 3D the t term joins them in the z stage the same
  // way.  The last stage writes w_c's block directly.
  for (int c = 0; c < D; ++c) {
    const double* pg0 = pgeo(c, 0) + poff;
    const double* pg1 = pgeo(c, 1) + poff;
    if constexpr (D == 2) {
      // x stage (G, G, N1) into the stacked (2G x N1) block; y stage
      // (N1, 2G, N1).
      alignas(64) double t0[G * G], t1[G * G], x01[2 * G * N1];
      for (int q = 0; q < G * G; ++q) {
        t0[q] = pg0[q] * pe[q];
        t1[q] = pg1[q] * pe[q];
      }
      stage<G, G, N1>(t0, dg, x01);
      stage<G, G, N1>(t1, ig, x01 + G * N1);
      stage<N1, 2 * G, N1>(idgt, x01, w[c] + off);
    } else {
      // Plane by plane: x stages (G, G, N1), then y stages (N1, 2G, N1)
      // for the r + s terms and (N1, G, N1) for the t term, into the
      // stacked (2G x N1^2) y01/y2 block; one z stage (N1, 2G, N1^2).
      const double* pg2 = pgeo(c, 2) + poff;
      alignas(64) double t0[G * G], t1[G * G], t2[G * G];
      alignas(64) double x01[2 * G * N1], x2[G * N1];
      alignas(64) double y[2 * G * N1 * N1];
      for (int k = 0; k < G; ++k) {
        const int pk = k * G * G;
        for (int q = 0; q < G * G; ++q) {
          t0[q] = pg0[pk + q] * pe[pk + q];
          t1[q] = pg1[pk + q] * pe[pk + q];
          t2[q] = pg2[pk + q] * pe[pk + q];
        }
        stage<G, G, N1>(t0, dg, x01);
        stage<G, G, N1>(t1, ig, x01 + G * N1);
        stage<G, G, N1>(t2, ig, x2);
        stage<N1, 2 * G, N1>(idgt, x01, y + k * N1 * N1);
        stage<N1, G, N1>(igt, x2, y + (G + k) * N1 * N1);
      }
      stage<N1, 2 * G, N1 * N1>(idgt, y, w[c] + off);
    }
  }
}

// The kernel table: one instantiation per dimension and order
// kMinOrder..kMaxOrder (GLL point count N1 = order + 1).
template <int... Is>
void PressureSystem::bind_kernels(std::integer_sequence<int, Is...>) {
  static constexpr DivergenceElem kDiv[2][sizeof...(Is)] = {
      {&PressureSystem::divergence_elem<2, Is + kMinOrder + 1>...},
      {&PressureSystem::divergence_elem<3, Is + kMinOrder + 1>...}};
  static constexpr GradientTElem kGradT[2][sizeof...(Is)] = {
      {&PressureSystem::gradient_t_elem<2, Is + kMinOrder + 1>...},
      {&PressureSystem::gradient_t_elem<3, Is + kMinOrder + 1>...}};
  const int k = vspace_->mesh().order - kMinOrder;
  divergence_elem_ = kDiv[dim_ - 2][k];
  gradient_t_elem_ = kGradT[dim_ - 2][k];
}

void PressureSystem::divergence(const double* const* u, double* dp) const {
  const int nelem = vspace_->mesh().nelem;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < nelem; ++e) (this->*divergence_elem_)(e, u, dp);
}

void PressureSystem::gradient_t(const double* p, double* const* w) const {
  const int nelem = vspace_->mesh().nelem;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < nelem; ++e) (this->*gradient_t_elem_)(e, p, w);
}

void PressureSystem::apply_E(const double* p, double* ep) const {
  const obs::ScopedTimer timer("apply_E");
  const Mesh& m = vspace_->mesh();
  const std::size_t nl = m.nlocal();
  for (int c = 0; c < dim_; ++c)
    if (et_[c].size() < nl) et_[c].resize(nl);
  double* t[3] = {et_[0].data(), et_[1].data(),
                  dim_ == 3 ? et_[2].data() : nullptr};
  gradient_t(p, t);
  for (int c = 0; c < dim_; ++c) vspace_->gs().op(t[c]);
  // D with the B^{-1} mask scaling folded into each element's read: the
  // element scales its own block of t just before differentiating it.
  const double* bmask = bmask_.data();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < m.nelem; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * m.npe;
    for (int c = 0; c < dim_; ++c)
      for (std::size_t i = off; i < off + m.npe; ++i) t[c][i] *= bmask[i];
    (this->*divergence_elem_)(e, t, ep);
  }
}

void PressureSystem::remove_mean_plain(double* p) const {
  const std::size_t n = nloc();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += p[i];
  const double mean = sum / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) p[i] -= mean;
}

void PressureSystem::remove_mean(double* p) const {
  const std::size_t n = nloc();
  double vol = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    vol += pbm_[i];
    sum += pbm_[i] * p[i];
  }
  const double mean = sum / vol;
  for (std::size_t i = 0; i < n; ++i) p[i] -= mean;
}

PressureSolveResult solve_pressure(
    const PressureSystem& psys,
    const std::function<void(const double*, double*)>& precond,
    SolutionProjection* proj, const double* g, double* dp,
    const PressureSolveOptions& opt, PressureSolveScratch* scratch) {
  const obs::ScopedTimer timer("pressure/solve");
  const std::size_t np = psys.nloc();
  PressureSolveResult out;

  PressureSolveScratch local;
  PressureSolveScratch& scr = scratch ? *scratch : local;
  if (scr.rhs.size() < np) {
    scr.rhs.resize(np);
    scr.p0.resize(np);
    scr.r.resize(np);
  }
  std::vector<double>& rhs = scr.rhs;
  std::copy(g, g + np, rhs.data());
  if (opt.mean_free) psys.remove_mean_plain(rhs.data());

  auto applyE = [&](const double* x, double* y) {
    psys.apply_E(x, y);
    // Keep the Krylov space on the mean-free quotient (E preserves it
    // exactly in exact arithmetic; this suppresses roundoff drift of the
    // singular mode).
    if (opt.mean_free) psys.remove_mean_plain(y);
    ++out.apply_count;
  };
  auto pdot = [np](const double* a, const double* b) {
    double s = 0.0;
    for (std::size_t i = 0; i < np; ++i) s += a[i] * b[i];
    return s;
  };
  auto prec = [&](const double* r, double* z) {
    if (precond) {
      precond(r, z);
      ++out.precond_count;
      if (opt.mean_free) psys.remove_mean_plain(z);
    } else {
      std::copy(r, r + np, z);
    }
  };

  std::fill(dp, dp + np, 0.0);
  std::vector<double>& p0 = scr.p0;
  std::fill(p0.begin(), p0.end(), 0.0);
  const bool use_proj = proj != nullptr && !opt.zero_guess;
  if (use_proj) {
    out.res0 = proj->project(rhs.data(), p0.data(), scr.r.data());
    std::copy(p0.data(), p0.data() + np, dp);
  }

  // Tolerance relative to the FULL rhs norm (not the projection-reduced
  // residual), so projection genuinely reduces the iteration count.
  double gnorm = 0.0;
  for (std::size_t i = 0; i < np; ++i) gnorm += rhs[i] * rhs[i];
  gnorm = std::sqrt(gnorm);
  CgOptions copt;
  copt.tol = opt.tol * (gnorm > 0.0 ? gnorm : 1.0);
  copt.max_iter = opt.max_iter;
  out.cg = pcg(np, applyE, prec, pdot, rhs.data(), dp, copt, &scr.cg);
  if (!use_proj) out.res0 = out.cg.initial_residual;

  if (is_hard_failure(out.cg.status)) {
    // dp is garbage; zero it so the caller's state stays consistent, and
    // leave the projection basis untouched.
    std::fill(dp, dp + np, 0.0);
    return out;
  }
  if (proj) proj->update(dp, p0.data(), applyE);
  if (opt.mean_free) psys.remove_mean_plain(dp);
  return out;
}

}  // namespace tsem

