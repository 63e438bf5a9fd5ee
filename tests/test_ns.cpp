// Integration tests for the Navier-Stokes integrator: Taylor-Green decay
// (exact solution), steady Poiseuille flow, divergence-free enforcement,
// temporal convergence, OIFS vs EXT, and scalar transport.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"

namespace {

using tsem::build_mesh;
using tsem::NavierStokes;
using tsem::NsOptions;
using tsem::Space;

// 2D Taylor-Green: u = sin x cos y f(t), v = -cos x sin y f(t),
// f(t) = exp(-2 nu t), p = (cos 2x + cos 2y) f^2 / 4 on [0,2pi]^2.
struct TaylorGreen {
  double nu;
  double u(double x, double y, double t) const {
    return std::sin(x) * std::cos(y) * std::exp(-2.0 * nu * t);
  }
  double v(double x, double y, double t) const {
    return -std::cos(x) * std::sin(y) * std::exp(-2.0 * nu * t);
  }
};

Space periodic_box(int k, int order) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 2 * M_PI, k),
                                tsem::linspace(0, 2 * M_PI, k));
  spec.periodic_x = spec.periodic_y = true;
  return Space(build_mesh(spec, order));
}

double taylor_green_error(NsOptions opt, int k, int order, int steps) {
  Space s = periodic_box(k, order);
  const auto& m = s.mesh();
  TaylorGreen tg{opt.viscosity};
  NavierStokes ns(s, 0u, opt);  // fully periodic: no Dirichlet tags
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = tg.u(m.x[i], m.y[i], 0.0);
    ns.u(1)[i] = tg.v(m.x[i], m.y[i], 0.0);
  }
  for (int n = 0; n < steps; ++n) ns.step();
  double err = 0.0;
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    err = std::max(err, std::fabs(ns.u(0)[i] - tg.u(m.x[i], m.y[i], ns.time())));
    err = std::max(err, std::fabs(ns.u(1)[i] - tg.v(m.x[i], m.y[i], ns.time())));
  }
  return err;
}

TEST(NavierStokes, TaylorGreenDecaysAccurately) {
  NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.05;
  opt.torder = 2;
  opt.proj_len = 8;
  const double err = taylor_green_error(opt, 4, 8, 30);
  EXPECT_LT(err, 2e-4);
}

TEST(NavierStokes, SecondOrderTemporalConvergence) {
  NsOptions opt;
  opt.viscosity = 0.05;
  opt.torder = 2;
  opt.proj_len = 0;
  opt.helm_tol = 1e-12;
  opt.pres_tol = 1e-11;
  // Same final time T = 0.4 with dt and dt/2.
  opt.dt = 0.04;
  const double e1 = taylor_green_error(opt, 4, 8, 10);
  opt.dt = 0.02;
  const double e2 = taylor_green_error(opt, 4, 8, 20);
  // Order >= ~1.7 observed slope.
  EXPECT_LT(e2, e1 / 3.0);
}

TEST(NavierStokes, ExtConvectionAlsoConverges) {
  NsOptions opt;
  opt.viscosity = 0.05;
  opt.convection = NsOptions::Convection::Ext;
  opt.dt = 0.005;
  const double err = taylor_green_error(opt, 4, 8, 40);
  EXPECT_LT(err, 2e-4);
}

TEST(NavierStokes, VelocityIsDiscretelyDivergenceFree) {
  NsOptions opt;
  opt.dt = 0.02;
  opt.viscosity = 0.02;
  opt.pres_tol = 1e-9;
  Space s = periodic_box(4, 7);
  const auto& m = s.mesh();
  TaylorGreen tg{opt.viscosity};
  NavierStokes ns(s, 0u, opt);
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = tg.u(m.x[i], m.y[i], 0.0);
    ns.u(1)[i] = tg.v(m.x[i], m.y[i], 0.0);
  }
  for (int n = 0; n < 5; ++n) {
    const auto st = ns.step();
    EXPECT_LT(st.divergence, 1e-7) << "step " << n;
  }
}

TEST(NavierStokes, PoiseuilleIsSteadyWithBodyForce) {
  // Channel y in [-1,1], periodic in x; U = 1 - y^2 sustained by
  // f_x = 2 nu.  Walls are Dirichlet (tags YLo | YHi).
  const double nu = 0.05;
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 2 * M_PI, 3),
                                tsem::linspace(-1, 1, 2));
  spec.periodic_x = true;
  Space s(build_mesh(spec, 9));
  const auto& m = s.mesh();
  NsOptions opt;
  opt.dt = 0.02;
  opt.viscosity = nu;
  opt.pres_tol = 1e-10;
  opt.helm_tol = 1e-11;
  NavierStokes ns(s, (1u << tsem::kFaceYLo) | (1u << tsem::kFaceYHi), opt);
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = 1.0 - m.y[i] * m.y[i];
    ns.u(1)[i] = 0.0;
  }
  const std::size_t nl = s.nlocal();
  ns.set_forcing([nu, nl](const NavierStokes&, double,
                          const std::array<double*, 3>& f) {
    for (std::size_t i = 0; i < nl; ++i) f[0][i] += 2.0 * nu;
  });
  for (int n = 0; n < 10; ++n) ns.step();
  for (std::size_t i = 0; i < nl; ++i) {
    EXPECT_NEAR(ns.u(0)[i], 1.0 - m.y[i] * m.y[i], 5e-7);
    EXPECT_NEAR(ns.u(1)[i], 0.0, 5e-7);
  }
}

TEST(NavierStokes, Bdf3RunsStableAndAccurate) {
  NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.05;
  opt.torder = 3;
  opt.filter_alpha = 0.1;  // the paper: filtering stabilizes 3rd order
  const double err = taylor_green_error(opt, 4, 8, 30);
  EXPECT_LT(err, 5e-4);
}

TEST(NavierStokes, UnforcedEnergyDecaysMonotonically) {
  // Viscous decay with no forcing: KE must be non-increasing.
  NsOptions opt;
  opt.dt = 0.02;
  opt.viscosity = 0.1;
  Space s = periodic_box(3, 7);
  const auto& m = s.mesh();
  NavierStokes ns(s, 0u, opt);
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = std::sin(m.x[i]) * std::cos(2.0 * m.y[i]);
    ns.u(1)[i] = std::cos(m.x[i] + 0.3);
  }
  double prev = 1e300;
  for (int n = 0; n < 12; ++n) {
    ns.step();
    const double ke = ns.kinetic_energy();
    EXPECT_LT(ke, prev * (1.0 + 1e-10)) << "step " << n;
    prev = ke;
  }
}

TEST(NavierStokes, ScalarIsAdvectedAndDiffused) {
  // Pure diffusion check: zero velocity, scalar decays like the heat
  // equation mode sin(x)sin(y) -> exp(-2 kappa t).
  const double kappa = 0.1;
  Space s = periodic_box(4, 7);
  const auto& m = s.mesh();
  NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.1;
  NavierStokes ns(s, 0u, opt);
  ns.add_scalar(0u, kappa);
  for (std::size_t i = 0; i < s.nlocal(); ++i)
    ns.scalar()[i] = std::sin(m.x[i]) * std::sin(m.y[i]);
  const int steps = 20;
  for (int n = 0; n < steps; ++n) ns.step();
  const double decay = std::exp(-2.0 * kappa * ns.time());
  for (std::size_t i = 0; i < s.nlocal(); ++i)
    EXPECT_NEAR(ns.scalar()[i],
                decay * std::sin(m.x[i]) * std::sin(m.y[i]), 2e-5);
}

// EXT convects the velocity components only, so a scalar would get BDF
// and diffusion but no advection: add_scalar refuses the combination.
TEST(NavierStokesDeathTest, AddScalarRequiresOifsConvection) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  NsOptions opt;
  opt.convection = NsOptions::Convection::Ext;
  Space s = periodic_box(2, 4);
  NavierStokes ns(s, 0u, opt);
  EXPECT_DEATH(ns.add_scalar(0u, 0.1), "Convection::Oifs");
}

TEST(NavierStokes, FilterKeepsSolutionAccurate) {
  // With a smooth solution the alpha = 0.2 filter must not destroy
  // accuracy (Table 1's message: slight degradation only).
  NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.05;
  opt.filter_alpha = 0.0;
  const double e0 = taylor_green_error(opt, 4, 8, 20);
  opt.filter_alpha = 0.2;
  const double ef = taylor_green_error(opt, 4, 8, 20);
  EXPECT_LT(ef, 20.0 * (e0 + 1e-8));
  EXPECT_LT(ef, 1e-3);
}

TEST(NavierStokes, DealiasedConvectionMatchesTaylorGreen) {
  // Over-integrated convection must reproduce the exact decay as well as
  // (or better than) the collocation form on a smooth solution.
  NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.05;
  opt.dealias = true;
  const double err = taylor_green_error(opt, 4, 8, 25);
  EXPECT_LT(err, 2e-4);
}

TEST(NavierStokes, DealiasedConservesEnergyBetterWhenMarginal) {
  // At marginal resolution, the aliasing error of collocation convection
  // spuriously injects energy; over-integration does not.  Compare the
  // inviscid-limit energy drift over a short horizon.
  auto run = [](bool dealias) {
    auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 4),
                                  tsem::linspace(0, 1, 4));
    spec.periodic_x = spec.periodic_y = true;
    Space s(build_mesh(spec, 5));  // deliberately under-resolved
    const auto& m = s.mesh();
    NsOptions opt;
    opt.dt = 0.002;
    opt.viscosity = 1e-6;  // nearly inviscid
    opt.dealias = dealias;
    opt.pres_tol = 1e-8;
    NavierStokes ns(s, 0u, opt);
    const double rho = 20.0;
    for (std::size_t i = 0; i < s.nlocal(); ++i) {
      const double y = m.y[i];
      ns.u(0)[i] = (y <= 0.5) ? std::tanh(rho * (y - 0.25))
                              : std::tanh(rho * (0.75 - y));
      ns.u(1)[i] = 0.05 * std::sin(2.0 * M_PI * m.x[i]);
    }
    const double e0 = ns.kinetic_energy();
    for (int n = 0; n < 40; ++n) ns.step();
    return std::fabs(ns.kinetic_energy() - e0) / e0;
  };
  const double drift_collocated = run(false);
  const double drift_dealiased = run(true);
  // Both should be small over this horizon; dealiasing must not be worse.
  EXPECT_LT(drift_dealiased, 0.05);
  EXPECT_LE(drift_dealiased, 2.0 * drift_collocated + 1e-4);
}

TEST(NavierStokes, ProjectionReducesPressureIterations) {
  NsOptions base;
  base.dt = 0.01;
  base.viscosity = 0.05;
  base.pres_tol = 1e-8;

  auto run = [&](int proj_len) {
    NsOptions opt = base;
    opt.proj_len = proj_len;
    Space s = periodic_box(4, 7);
    const auto& m = s.mesh();
    TaylorGreen tg{opt.viscosity};
    NavierStokes ns(s, 0u, opt);
    for (std::size_t i = 0; i < s.nlocal(); ++i) {
      ns.u(0)[i] = tg.u(m.x[i], m.y[i], 0.0);
      ns.u(1)[i] = tg.v(m.x[i], m.y[i], 0.0);
    }
    int total = 0;
    for (int n = 0; n < 12; ++n) total += ns.step().pressure_iters;
    return total;
  };
  const int without = run(0);
  const int with = run(10);
  EXPECT_LT(with, without);
}

}  // namespace
