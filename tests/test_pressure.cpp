// Tests for the P_N x P_{N-2} coupling: divergence/gradient adjointness,
// exactness, and the consistent Poisson operator E.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/pressure.hpp"
#include "core/space.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "solver/cg.hpp"

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

}  // namespace
