// Tests for the P_N x P_{N-2} coupling: divergence/gradient adjointness,
// exactness, the consistent Poisson operator E, the bitwise identity of
// its OpenMP element loops at any team size, and the agreement of the
// compile-time-shaped element kernels with a runtime-shaped serial
// reference at every order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/pressure.hpp"
#include "core/space.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "obs/metrics.hpp"
#include "poly/basis1d.hpp"
#include "solver/cg.hpp"
#include "solver/projection.hpp"
#include "tensor/mxm.hpp"
#include "tensor/tensor_apply.hpp"

namespace {

using tsem::build_mesh;
using tsem::PressureSystem;
using tsem::Space;

std::vector<double> random_field(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(Pressure, DivergenceExactForLinearSolenoidalField) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 3),
                                tsem::linspace(0, 2, 2));
  Space s(build_mesh(spec, 6));
  PressureSystem p(s, s.make_mask(0xF));
  std::vector<double> ux(s.nlocal()), uy(s.nlocal());
  const auto& m = s.mesh();
  for (std::size_t i = 0; i < ux.size(); ++i) {
    ux[i] = 2.0 * m.x[i] + m.y[i];
    uy[i] = -2.0 * m.y[i] + 0.5;
  }
  const double* u[2] = {ux.data(), uy.data()};
  std::vector<double> dp(p.nloc());
  p.divergence(u, dp.data());
  for (double v : dp) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Pressure, DivergenceMatchesAnalyticWeighted) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 2),
                                tsem::linspace(0, 1, 2));
  Space s(build_mesh(spec, 7));
  PressureSystem p(s, s.make_mask(0xF));
  std::vector<double> ux(s.nlocal()), uy(s.nlocal());
  const auto& m = s.mesh();
  for (std::size_t i = 0; i < ux.size(); ++i) {
    ux[i] = m.x[i] * m.x[i];  // div = 2x + 3y^2
    uy[i] = m.y[i] * m.y[i] * m.y[i];
  }
  const double* u[2] = {ux.data(), uy.data()};
  std::vector<double> dp(p.nloc());
  p.divergence(u, dp.data());
  // (D u)_q = w_q J_q div(u)(xi_q).
  const auto& pbm = p.pbm();
  for (std::size_t q = 0; q < dp.size(); ++q) {
    const double div = 2.0 * p.px()[q] + 3.0 * p.py()[q] * p.py()[q];
    EXPECT_NEAR(dp[q], pbm[q] * div, 1e-12);
  }
}

TEST(Pressure, GradientIsTransposeOfDivergence) {
  auto spec = tsem::annulus_spec(0.8, 2.0, 2, 8, 1.3);
  Space s(build_mesh(spec, 6));
  PressureSystem p(s, s.make_mask(0x3));
  const auto uxv = random_field(s.nlocal(), 3);
  const auto uyv = random_field(s.nlocal(), 5);
  const auto pv = random_field(p.nloc(), 7);
  const double* u[2] = {uxv.data(), uyv.data()};
  std::vector<double> du(p.nloc());
  p.divergence(u, du.data());
  double lhs = 0.0;
  for (std::size_t q = 0; q < du.size(); ++q) lhs += du[q] * pv[q];

  std::vector<double> wx(s.nlocal()), wy(s.nlocal());
  double* w[2] = {wx.data(), wy.data()};
  p.gradient_t(pv.data(), w);
  double rhs = 0.0;
  for (std::size_t i = 0; i < wx.size(); ++i)
    rhs += wx[i] * uxv[i] + wy[i] * uyv[i];
  EXPECT_NEAR(lhs, rhs, 1e-10 * (1.0 + std::fabs(lhs)));
}

TEST(Pressure, GradientTranspose3D) {
  auto spec = tsem::bump_channel_spec(tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 1, 1), 1.0, 1.0, 0.6,
                                      0.2);
  Space s(build_mesh(spec, 5));
  PressureSystem p(s, s.make_mask(0x3F));
  const auto ux = random_field(s.nlocal(), 11);
  const auto uy = random_field(s.nlocal(), 13);
  const auto uz = random_field(s.nlocal(), 17);
  const auto pv = random_field(p.nloc(), 19);
  const double* u[3] = {ux.data(), uy.data(), uz.data()};
  std::vector<double> du(p.nloc());
  p.divergence(u, du.data());
  double lhs = 0.0;
  for (std::size_t q = 0; q < du.size(); ++q) lhs += du[q] * pv[q];
  std::vector<double> wx(s.nlocal()), wy(s.nlocal()), wz(s.nlocal());
  double* w[3] = {wx.data(), wy.data(), wz.data()};
  p.gradient_t(pv.data(), w);
  double rhs = 0.0;
  for (std::size_t i = 0; i < wx.size(); ++i)
    rhs += wx[i] * ux[i] + wy[i] * uy[i] + wz[i] * uz[i];
  EXPECT_NEAR(lhs, rhs, 1e-10 * (1.0 + std::fabs(lhs)));
}

TEST(Pressure, EIsSymmetricAndAnnihilatesConstants) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 3),
                                tsem::linspace(0, 1, 3));
  Space s(build_mesh(spec, 5));
  PressureSystem p(s, s.make_mask(0xF));  // enclosed: Dirichlet everywhere
  const std::size_t n = p.nloc();

  std::vector<double> ones(n, 1.0), e1(n);
  p.apply_E(ones.data(), e1.data());
  for (double v : e1) EXPECT_NEAR(v, 0.0, 1e-11);

  const auto a = random_field(n, 23);
  const auto b = random_field(n, 29);
  std::vector<double> ea(n), eb(n);
  p.apply_E(a.data(), ea.data());
  p.apply_E(b.data(), eb.data());
  double ab = 0.0, ba = 0.0, aa = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ab += b[i] * ea[i];
    ba += a[i] * eb[i];
    aa += a[i] * ea[i];
  }
  EXPECT_NEAR(ab, ba, 1e-9 * (1.0 + std::fabs(ab)));
  EXPECT_GT(aa, -1e-12);  // positive semidefinite
}

TEST(Pressure, ESolveConvergesWithIdentityPrecond) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 3),
                                tsem::linspace(0, 1, 3));
  Space s(build_mesh(spec, 6));
  PressureSystem p(s, s.make_mask(0xF));
  const std::size_t n = p.nloc();

  // Manufactured consistent RHS: g = E p* for a mean-free p*.
  auto pstar = random_field(n, 31);
  p.remove_mean(pstar.data());
  std::vector<double> g(n), sol(n, 0.0);
  p.apply_E(pstar.data(), g.data());

  auto apply = [&](const double* x, double* y) { p.apply_E(x, y); };
  auto pdot = [n](const double* x, const double* y) {
    double s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) s2 += x[i] * y[i];
    return s2;
  };
  tsem::CgOptions opt;
  opt.tol = 1e-10;
  opt.max_iter = 3000;
  auto res = tsem::pcg(n, apply, tsem::identity_precond(n), pdot, g.data(),
                       sol.data(), opt);
  EXPECT_TRUE(res.converged);
  p.remove_mean(sol.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(sol[i], pstar[i], 1e-6);
}

// ---------------------------------------------------------------------
// Serial reference: the single-threaded D, D^T and E loops as they stood
// before the element loops went parallel and the element kernels got
// compile-time shapes (runtime-shaped tensor applies, one shared scratch
// buffer, whole-field zero fills, a separate B^{-1} mask sweep).  The
// library's kernels contract in other orders, so they agree with it to a
// relative tolerance (DESIGN.md "Tolerance vs. bitwise policy").
// ---------------------------------------------------------------------

struct SerialReference {
  SerialReference(const PressureSystem& ps, std::vector<double> vmask)
      : ps(ps), vmask(std::move(vmask)) {
    const auto& m = ps.vspace().mesh();
    n1 = m.n1d();
    ng1 = ps.ng1();
    const auto& b = tsem::Basis1D::get(m.order);
    ig = tsem::gll_to_gauss(m.order, ng1);
    dg.assign(static_cast<std::size_t>(ng1) * n1, 0.0);
    tsem::mxm_generic(ig.data(), ng1, b.d.data(), n1, dg.data(), n1);
    igt.resize(ig.size());
    dgt.resize(dg.size());
    for (int i = 0; i < ng1; ++i)
      for (int j = 0; j < n1; ++j) {
        igt[j * ng1 + i] = ig[i * n1 + j];
        dgt[j * ng1 + i] = dg[i * n1 + j];
      }
    work.resize(static_cast<std::size_t>(m.npe) * 5 + ps.npe());
  }

  void divergence(const double* const* u, double* dp) {
    const auto& m = ps.vspace().mesh();
    const int dim = m.dim, npe = ps.npe();
    std::fill(dp, dp + ps.nloc(), 0.0);
    double* deriv = work.data() + static_cast<std::size_t>(m.npe) * 4;
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * m.npe;
      const std::size_t poff = static_cast<std::size_t>(e) * npe;
      for (int c = 0; c < dim; ++c) {
        for (int j = 0; j < dim; ++j) {
          if (dim == 2) {
            const double* ax = (j == 0) ? dg.data() : ig.data();
            const double* ay = (j == 1) ? dg.data() : ig.data();
            tsem::tensor2_apply(ax, ng1, n1, ay, ng1, n1, u[c] + off, deriv,
                                work.data());
          } else {
            const double* ax = (j == 0) ? dg.data() : ig.data();
            const double* ay = (j == 1) ? dg.data() : ig.data();
            const double* az = (j == 2) ? dg.data() : ig.data();
            tsem::tensor3_apply(ax, ng1, n1, ay, ng1, n1, az, ng1, n1,
                                u[c] + off, deriv, work.data());
          }
          const double* pgij = ps.pgeo(c, j) + poff;
          for (int q = 0; q < npe; ++q) dp[poff + q] += pgij[q] * deriv[q];
        }
      }
    }
  }

  void gradient_t(const double* p, double* const* w) {
    const auto& m = ps.vspace().mesh();
    const int dim = m.dim, npe = ps.npe();
    for (int c = 0; c < dim; ++c) std::fill(w[c], w[c] + m.nlocal(), 0.0);
    double* t = work.data() + static_cast<std::size_t>(m.npe) * 4;
    double* out = t + npe;
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * m.npe;
      const std::size_t poff = static_cast<std::size_t>(e) * npe;
      for (int c = 0; c < dim; ++c) {
        for (int j = 0; j < dim; ++j) {
          const double* pgij = ps.pgeo(c, j) + poff;
          for (int q = 0; q < npe; ++q) t[q] = pgij[q] * p[poff + q];
          if (dim == 2) {
            const double* ax = (j == 0) ? dgt.data() : igt.data();
            const double* ay = (j == 1) ? dgt.data() : igt.data();
            tsem::tensor2_apply(ax, n1, ng1, ay, n1, ng1, t, out,
                                work.data());
          } else {
            const double* ax = (j == 0) ? dgt.data() : igt.data();
            const double* ay = (j == 1) ? dgt.data() : igt.data();
            const double* az = (j == 2) ? dgt.data() : igt.data();
            tsem::tensor3_apply(ax, n1, ng1, ay, n1, ng1, az, n1, ng1, t, out,
                                work.data());
          }
          for (int q = 0; q < m.npe; ++q) w[c][off + q] += out[q];
        }
      }
    }
  }

  void apply_E(const double* p, double* ep) {
    const auto& sp = ps.vspace();
    const std::size_t nl = sp.nlocal();
    const int dim = sp.mesh().dim;
    std::vector<double> f[3];
    double* t[3] = {nullptr, nullptr, nullptr};
    for (int c = 0; c < dim; ++c) {
      f[c].resize(nl);
      t[c] = f[c].data();
    }
    gradient_t(p, t);
    const auto& bmi = sp.bm_inv();
    for (int c = 0; c < dim; ++c) {
      sp.gs().op(t[c]);
      for (std::size_t i = 0; i < nl; ++i) t[c][i] *= bmi[i] * vmask[i];
    }
    divergence(t, ep);
  }

  const PressureSystem& ps;
  std::vector<double> vmask;
  int n1 = 0, ng1 = 0;
  std::vector<double> ig, dg, igt, dgt, work;
};

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// max |a - b| / max |b|.
double rel_maxdiff(const std::vector<double>& a,
                   const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num = std::max(num, std::abs(a[i] - b[i]));
    den = std::max(den, std::abs(b[i]));
  }
  return den > 0.0 ? num / den : num;
}

/// Fixed random inputs u (dim components) and p, and the outputs D u,
/// D^T p and E p, filled with stale data the operators must overwrite.
struct Fields {
  Fields(const Space& s, const PressureSystem& ps) {
    const std::size_t nl = s.nlocal(), np = ps.nloc();
    for (int c = 0; c < s.mesh().dim; ++c) {
      u[c] = random_field(nl, 41 + c);
      w[c].assign(nl, 1.0);
    }
    p = random_field(np, 47);
    d.assign(np, 1.0);
    e.assign(np, 1.0);
  }
  /// Apply D, D^T and E of `ops`: the library or the serial reference.
  template <class Ops>
  void apply(Ops& ops) {
    const double* up[3] = {u[0].data(), u[1].data(), u[2].data()};
    double* wp[3] = {w[0].data(), w[1].data(), w[2].data()};
    ops.divergence(up, d.data());
    ops.gradient_t(p.data(), wp);
    ops.apply_E(p.data(), e.data());
  }
  std::vector<double> u[3], p, d, w[3], e;
};

/// The library's D, D^T and E of the random fields, at `nthreads` OpenMP
/// threads (the calling team is restored afterwards).
Fields library_outputs(const Space& s, const PressureSystem& ps,
                       int nthreads) {
  Fields f(s, ps);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(nthreads);
#else
  (void)nthreads;
#endif
  f.apply(ps);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return f;
}

/// The serial reference's D, D^T and E of the same random fields.
Fields reference_outputs(const Space& s, const PressureSystem& ps,
                         const std::vector<double>& vmask) {
  Fields f(s, ps);
  SerialReference ref(ps, vmask);
  f.apply(ref);
  return f;
}

int team_size() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// D, D^T and E at 3 threads and at the full team must equal the
/// 1-thread result bit for bit.
void expect_thread_invariant(const Space& s, const PressureSystem& ps) {
  const int dim = s.mesh().dim;
  const Fields one = library_outputs(s, ps, 1);
  for (const int nt : {3, team_size()}) {
    const Fields got = library_outputs(s, ps, nt);
    EXPECT_TRUE(bitwise_equal(one.d, got.d)) << "divergence, " << nt << "t";
    for (int c = 0; c < dim; ++c)
      EXPECT_TRUE(bitwise_equal(one.w[c], got.w[c]))
          << "gradient_t component " << c << ", " << nt << "t";
    EXPECT_TRUE(bitwise_equal(one.e, got.e)) << "apply_E, " << nt << "t";
  }
}

/// D, D^T and E agree with the serial reference to `tol` relative in the
/// max norm.
void expect_near_reference(const Space& s, const PressureSystem& ps,
                           const std::vector<double>& vmask, double tol) {
  const int dim = s.mesh().dim;
  const Fields ref = reference_outputs(s, ps, vmask);
  const Fields got = library_outputs(s, ps, team_size());
  EXPECT_LE(rel_maxdiff(got.d, ref.d), tol) << "divergence";
  for (int c = 0; c < dim; ++c)
    EXPECT_LE(rel_maxdiff(got.w[c], ref.w[c]), tol)
        << "gradient_t component " << c;
  EXPECT_LE(rel_maxdiff(got.e, ref.e), tol) << "apply_E";
}

// Curved, graded annulus, 2 x 11 = 22 elements: the static schedule
// splits them unevenly at 3 and at 4 threads.
Space deformed_2d(int order) {
  return Space(build_mesh(tsem::annulus_spec(0.8, 2.0, 2, 11, 1.3), order));
}

// Bump channel, nx x 2 x 1 elements: 5 x 2 x 1 = 10 by default, which the
// static schedule splits unevenly at 3 and at 4 threads.
Space deformed_3d(int order, int nx = 5) {
  auto spec = tsem::bump_channel_spec(tsem::linspace(0, 2, nx),
                                      tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 1, 1), 1.0, 1.0, 0.6,
                                      0.2);
  return Space(build_mesh(spec, order));
}

TEST(PressureThreading, Deformed2DBitwiseAcrossThreadCounts) {
  Space s = deformed_2d(7);
  PressureSystem ps(s, s.make_mask(0x3));
  expect_thread_invariant(s, ps);
}

TEST(PressureThreading, Deformed3DBitwiseAcrossThreadCounts) {
  Space s = deformed_3d(6);
  PressureSystem ps(s, s.make_mask(0x3F));
  expect_thread_invariant(s, ps);
}

TEST(PressureKernels, Deformed2DMatchesSerialReference) {
  Space s = deformed_2d(7);
  const auto mask = s.make_mask(0x3);
  PressureSystem ps(s, mask);
  expect_near_reference(s, ps, mask, 1e-13);
}

TEST(PressureKernels, Deformed3DMatchesSerialReference) {
  Space s = deformed_3d(6);
  const auto mask = s.make_mask(0x3F);
  PressureSystem ps(s, mask);
  expect_near_reference(s, ps, mask, 1e-13);
}

/// <D u, p> - <u, D^T p>, relative to |<D u, p>|, over local
/// (unassembled) velocity fields.
double adjoint_defect(const Space& s, const PressureSystem& ps) {
  Fields f(s, ps);
  f.apply(ps);
  double dup = 0.0, utp = 0.0;
  for (std::size_t i = 0; i < f.p.size(); ++i) dup += f.d[i] * f.p[i];
  for (int c = 0; c < s.mesh().dim; ++c)
    for (std::size_t i = 0; i < f.u[c].size(); ++i)
      utp += f.u[c][i] * f.w[c][i];
  return std::abs(dup - utp) / std::abs(dup);
}

// Every entry of the per-order kernel table (orders 3..16, 2D and 3D):
// D, D^T and E against the serial reference, and the adjoint identity.
TEST(PressureKernels, EveryOrderMatchesReferenceAndIsAdjoint) {
  for (int order = 3; order <= 16; ++order) {
    SCOPED_TRACE("order " + std::to_string(order));
    {
      Space s(build_mesh(tsem::annulus_spec(0.8, 2.0, 1, 3, 1.3), order));
      const auto mask = s.make_mask(0x3);
      PressureSystem ps(s, mask);
      expect_near_reference(s, ps, mask, 1e-12);
      EXPECT_LE(adjoint_defect(s, ps), 1e-12) << "2D";
    }
    {
      Space s = deformed_3d(order, 3);
      const auto mask = s.make_mask(0x3F);
      PressureSystem ps(s, mask);
      expect_near_reference(s, ps, mask, 1e-12);
      EXPECT_LE(adjoint_defect(s, ps), 1e-12) << "3D";
    }
  }
}

// Every E application inside solve_pressure is timed under
// pressure/solve/apply_E: pcg's applies (one for the initial residual and
// one per iteration) plus the projection update's.
TEST(PressureTiming, ApplyETimerCountsEveryApplication) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 3),
                                tsem::linspace(0, 1, 3));
  Space s(build_mesh(spec, 6));
  PressureSystem p(s, s.make_mask(0xF));
  const std::size_t n = p.nloc();
  auto g = random_field(n, 53);
  p.remove_mean_plain(g.data());
  std::vector<double> dp(n);
  tsem::SolutionProjection proj(n, 4);
  tsem::PressureSolveOptions opt;
  opt.tol = 1e-8;

  auto& reg = tsem::obs::MetricsRegistry::instance();
  reg.reset();
  const auto res = tsem::solve_pressure(p, nullptr, &proj, g.data(),
                                        dp.data(), opt);
  ASSERT_TRUE(res.cg.converged);
  ASSERT_EQ(proj.size(), 1);  // window not full: update applied E once
  const int update_applies = 1;
  const auto timed = reg.histogram("time/pressure/solve/apply_E").count();
  EXPECT_EQ(timed, res.apply_count);
  EXPECT_EQ(timed, 1 + res.cg.iterations + update_applies);
}

}  // namespace
