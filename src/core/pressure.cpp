#include "core/pressure.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "poly/basis1d.hpp"
#include "tensor/mxm.hpp"

namespace tsem {

PressureSystem::PressureSystem(const Space& vspace, std::vector<double> vmask)
    : vspace_(&vspace), vmask_(std::move(vmask)) {
  const Mesh& m = vspace.mesh();
  TSEM_REQUIRE(m.order >= 3);
  TSEM_REQUIRE(vmask_.size() == m.nlocal());
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

// The three operators below are OpenMP element loops in the style of
// apply_stiffness_local: element e zeroes and then accumulates into only
// its own output block, in the same 0.0 += order as a serial sweep, with
// scratch from the calling thread's work_ slab.  The static schedule is
// therefore bitwise independent of the thread count.

void PressureSystem::divergence_elem(int e, const double* const* u, double* dp,
                                     double* work) const {
  const Mesh& m = vspace_->mesh();
  const int n1 = m.n1d();
  const std::size_t off = static_cast<std::size_t>(e) * m.npe;
  const std::size_t poff = static_cast<std::size_t>(e) * npe_;
  double* deriv = work + static_cast<std::size_t>(m.npe) * 4;
  // 3D stage buffers: u (x) dg and u (x) ig along x, then one y stage.
  double* xd = work;
  double* xi = work + m.npe;
  double* yz = work + 2 * static_cast<std::size_t>(m.npe);
  std::fill(dp + poff, dp + poff + npe_, 0.0);
  for (int c = 0; c < dim_; ++c) {
    const double* uc = u[c] + off;
    // In 3D the x stage u (x) ig is common to the j = 1 and j = 2
    // derivatives; compute it once.  Stages still run x -> y -> z with
    // the same shapes, so every derivative is bitwise what tensor3_apply
    // gives.
    if (dim_ == 3) {
      mxm_bt(uc, n1 * n1, dg_.data(), n1, xd, ng1_);
      mxm_bt(uc, n1 * n1, ig_.data(), n1, xi, ng1_);
    }
    for (int j = 0; j < dim_; ++j) {
      // derivative along reference direction j, at Gauss points
      if (dim_ == 2) {
        const double* ax = (j == 0) ? dg_.data() : ig_.data();
        const double* ay = (j == 1) ? dg_.data() : ig_.data();
        tensor2_apply(ax, ng1_, n1, ay, ng1_, n1, uc, deriv, work);
      } else {
        const double* x = (j == 0) ? xd : xi;
        const double* ay = (j == 1) ? dg_.data() : ig_.data();
        const double* az = (j == 2) ? dg_.data() : ig_.data();
        for (int k = 0; k < n1; ++k)
          mxm(ay, ng1_, x + static_cast<std::ptrdiff_t>(k) * n1 * ng1_, n1,
              yz + static_cast<std::ptrdiff_t>(k) * ng1_ * ng1_, ng1_);
        mxm(az, ng1_, yz, n1, deriv, ng1_ * ng1_);
      }
      const double* pgij = pgeo(c, j) + poff;
      for (int q = 0; q < npe_; ++q) dp[poff + q] += pgij[q] * deriv[q];
    }
  }
}

void PressureSystem::gradient_t_elem(int e, const double* p, double* const* w,
                                     double* work) const {
  const Mesh& m = vspace_->mesh();
  const int n1 = m.n1d();
  const std::size_t off = static_cast<std::size_t>(e) * m.npe;
  const std::size_t poff = static_cast<std::size_t>(e) * npe_;
  double* t = work + static_cast<std::size_t>(m.npe) * 4;
  double* out = t + npe_;
  for (int c = 0; c < dim_; ++c) std::fill(w[c] + off, w[c] + off + m.npe, 0.0);
  for (int c = 0; c < dim_; ++c) {
    for (int j = 0; j < dim_; ++j) {
      const double* pgij = pgeo(c, j) + poff;
      for (int q = 0; q < npe_; ++q) t[q] = pgij[q] * p[poff + q];
      if (dim_ == 2) {
        const double* ax = (j == 0) ? dgt_.data() : igt_.data();
        const double* ay = (j == 1) ? dgt_.data() : igt_.data();
        tensor2_apply(ax, n1, ng1_, ay, n1, ng1_, t, out, work);
      } else {
        const double* ax = (j == 0) ? dgt_.data() : igt_.data();
        const double* ay = (j == 1) ? dgt_.data() : igt_.data();
        const double* az = (j == 2) ? dgt_.data() : igt_.data();
        tensor3_apply(ax, n1, ng1_, ay, n1, ng1_, az, n1, ng1_, t, out, work);
      }
      for (int q = 0; q < m.npe; ++q) w[c][off + q] += out[q];
    }
  }
}

std::size_t PressureSystem::elem_work_size() const {
  const std::size_t vnpe = vspace_->mesh().npe;
  return 4 * vnpe + npe_ + vnpe;
}

void PressureSystem::divergence(const double* const* u, double* dp) const {
  const int nelem = vspace_->mesh().nelem;
  const std::size_t nwork = elem_work_size();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < nelem; ++e)
    divergence_elem(e, u, dp, work_.get(nwork));
}

void PressureSystem::gradient_t(const double* p, double* const* w) const {
  const int nelem = vspace_->mesh().nelem;
  const std::size_t nwork = elem_work_size();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < nelem; ++e)
    gradient_t_elem(e, p, w, work_.get(nwork));
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
  const double* bmi = vspace_->bm_inv().data();
  const double* vmask = vmask_.data();
  const std::size_t nwork = elem_work_size();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < m.nelem; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * m.npe;
    for (int c = 0; c < dim_; ++c)
      for (std::size_t i = off; i < off + m.npe; ++i)
        t[c][i] *= bmi[i] * vmask[i];
    divergence_elem(e, t, ep, work_.get(nwork));
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

