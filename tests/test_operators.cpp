// Integration tests: Space, Helmholtz/stiffness operators, gradient,
// filter, and spectrally convergent Poisson solves with Jacobi PCG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/helmholtz.hpp"
#include "core/operators.hpp"
#include "core/space.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "poly/filter.hpp"
#include "solver/cg.hpp"

namespace {

using tsem::build_mesh;
using tsem::Space;
using tsem::TensorWork;

Space make_box_space_2d(int k, int order) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, k),
                                tsem::linspace(0, 1, k));
  return Space(build_mesh(spec, order));
}

TEST(Space, VolumeAndIntegration) {
  auto s = make_box_space_2d(3, 6);
  EXPECT_NEAR(s.volume(), 1.0, 1e-12);
  std::vector<double> u(s.nlocal());
  const auto& m = s.mesh();
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = m.x[i] * m.y[i];
  EXPECT_NEAR(s.integrate(u.data()), 0.25, 1e-12);
}

TEST(Space, MaskZeroOnTaggedBoundary) {
  auto s = make_box_space_2d(2, 5);
  const auto mask = s.make_mask(1u << tsem::kFaceXLo);
  const auto& m = s.mesh();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (std::fabs(m.x[i]) < 1e-12)
      EXPECT_EQ(mask[i], 0.0);
    else
      EXPECT_EQ(mask[i], 1.0);
  }
}

TEST(Stiffness, MatchesDirichletEnergy) {
  // u^T A u == integral |grad u|^2 for polynomial u (exact quadrature on
  // affine elements up to the basis degree).
  auto s = make_box_space_2d(2, 8);
  const auto& m = s.mesh();
  std::vector<double> u(s.nlocal()), au(s.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i)
    u[i] = m.x[i] * m.x[i] + 2.0 * m.x[i] * m.y[i];
  TensorWork work;
  tsem::apply_stiffness_local(m, u.data(), au.data(), work);
  double energy = 0.0;  // local bilinear form: sum u_L . (A_L u_L)
  for (std::size_t i = 0; i < u.size(); ++i) energy += u[i] * au[i];
  // grad u = (2x + 2y, 2x); integral over [0,1]^2 of (2x+2y)^2 + 4x^2
  // = integral 4x^2+8xy+4y^2+4x^2 = 8/3 + 2 + 4/3 = 6.
  EXPECT_NEAR(energy, 6.0, 1e-10);
}

TEST(Stiffness, AnnihilatesConstants) {
  auto spec = tsem::annulus_spec(0.7, 2.0, 2, 8, 1.3);
  Space s(build_mesh(spec, 6));
  std::vector<double> u(s.nlocal(), 1.0), au(s.nlocal());
  TensorWork work;
  tsem::apply_stiffness_local(s.mesh(), u.data(), au.data(), work);
  s.dssum(au.data());
  for (double v : au) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Stiffness, GlobalOperatorIsSymmetric) {
  auto spec = tsem::annulus_spec(0.8, 1.9, 2, 6, 1.2);
  Space s(build_mesh(spec, 5));
  auto mask = s.make_mask(0x3);
  tsem::HelmholtzOp H(s, 1.0, 0.7, mask);
  // Symmetry in the 1/mult-weighted dot: v.(Hu) == u.(Hv) for C0 fields.
  const auto& m = s.mesh();
  std::vector<double> u(s.nlocal()), v(s.nlocal()), hu(s.nlocal()),
      hv(s.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = std::sin(m.x[i]) * m.y[i];
    v[i] = std::cos(m.y[i]) + m.x[i] * m.x[i];
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] *= mask[i];
    v[i] *= mask[i];
  }
  H.apply(u.data(), hu.data());
  H.apply(v.data(), hv.data());
  EXPECT_NEAR(s.glsum_dot(v.data(), hu.data()),
              s.glsum_dot(u.data(), hv.data()), 1e-9);
}

TEST(StiffnessDiagonal, MatchesOperatorColumns) {
  // diag(A)_i = e_i . A e_i on the local (unassembled) operator.
  auto spec = tsem::annulus_spec(0.9, 1.8, 1, 6, 1.0);
  const auto m = build_mesh(spec, 4);
  const auto diag = tsem::stiffness_diagonal_local(m);
  TensorWork work;
  std::vector<double> e(m.nlocal(), 0.0), ae(m.nlocal());
  // Check a scattering of entries in the first element.
  for (int n : {0, 3, 7, 12, 24}) {
    std::fill(e.begin(), e.end(), 0.0);
    e[n] = 1.0;
    tsem::apply_stiffness_local(m, e.data(), ae.data(), work);
    EXPECT_NEAR(ae[n], diag[n], 1e-10 * (1.0 + std::fabs(diag[n])));
  }
}

TEST(StiffnessDiagonal3D, MatchesOperatorColumns) {
  auto spec = tsem::bump_channel_spec(tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 1, 1), 1.0, 1.0, 0.6,
                                      0.15);
  const auto m = build_mesh(spec, 4);
  const auto diag = tsem::stiffness_diagonal_local(m);
  TensorWork work;
  std::vector<double> e(m.nlocal(), 0.0), ae(m.nlocal());
  for (int n : {0, 11, 37, 62, 99}) {
    std::fill(e.begin(), e.end(), 0.0);
    e[n] = 1.0;
    tsem::apply_stiffness_local(m, e.data(), ae.data(), work);
    EXPECT_NEAR(ae[n], diag[n], 1e-10 * (1.0 + std::fabs(diag[n])));
  }
}

TEST(Gradient, ExactForPolynomials) {
  // Skewed bilinear elements: the mapping is polynomial, so a polynomial
  // field in (x, y) is exactly representable and its gradient exact.
  tsem::MeshSpec2D spec;
  spec.elems.push_back([](double r, double s) {
    return std::array<double, 2>{r + 0.1 * s + 0.05 * r * s, s - 0.2 * r};
  });
  spec.elems.push_back([](double r, double s) {
    return std::array<double, 2>{2.15 + r + 0.1 * s + 0.05 * (r + 2) * s,
                                 s - 0.2 * (r + 2)};
  });
  const auto m = build_mesh(spec, 7);
  std::vector<double> u(m.nlocal()), gx(m.nlocal()), gy(m.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i)
    u[i] = m.x[i] * m.x[i] * m.y[i] - 3.0 * m.y[i];
  double* grad[2] = {gx.data(), gy.data()};
  TensorWork work;
  tsem::gradient_local(m, u.data(), grad, work);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(gx[i], 2.0 * m.x[i] * m.y[i], 1e-10);
    EXPECT_NEAR(gy[i], m.x[i] * m.x[i] - 3.0, 1e-10);
  }
}

TEST(Gradient, SpectrallyAccurateOnCurvedMesh) {
  // On the trig-mapped annulus exactness is impossible; verify spectral
  // decay of the gradient error with N instead.
  auto err_at = [](int order) {
    auto spec = tsem::annulus_spec(1.0, 2.5, 2, 10, 1.1);
    const auto m = build_mesh(spec, order);
    std::vector<double> u(m.nlocal()), gx(m.nlocal()), gy(m.nlocal());
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = m.x[i] * m.x[i] * m.y[i] - 3.0 * m.y[i];
    double* grad[2] = {gx.data(), gy.data()};
    TensorWork work;
    tsem::gradient_local(m, u.data(), grad, work);
    double e = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i)
      e = std::max(e, std::fabs(gy[i] - (m.x[i] * m.x[i] - 3.0)));
    return e;
  };
  const double e5 = err_at(5), e9 = err_at(9), e13 = err_at(13);
  EXPECT_LT(e9, e5 * 1e-2);
  EXPECT_LT(e13, 1e-9);
}

TEST(Convection, MatchesAnalyticDirectional) {
  auto s = make_box_space_2d(3, 7);
  const auto& m = s.mesh();
  std::vector<double> vx(s.nlocal()), vy(s.nlocal()), u(s.nlocal()),
      c(s.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i) {
    vx[i] = 1.0 + m.y[i];
    vy[i] = m.x[i];
    u[i] = m.x[i] * m.y[i];
  }
  const double* vel[2] = {vx.data(), vy.data()};
  TensorWork work;
  tsem::convect_local(m, vel, u.data(), c.data(), work);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double exact = (1.0 + m.y[i]) * m.y[i] + m.x[i] * m.x[i];
    EXPECT_NEAR(c[i], exact, 1e-9);
  }
}

TEST(FilterLocal, PreservesLowOrderField) {
  auto s = make_box_space_2d(2, 8);
  const auto& m = s.mesh();
  std::vector<double> u(s.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i)
    u[i] = 1.0 + m.x[i] + m.y[i] * m.y[i];
  auto v = u;
  const auto f = tsem::filter_matrix(m.order, 0.5);
  TensorWork work;
  tsem::apply_filter_local(m, f, v.data(), work);
  for (std::size_t i = 0; i < u.size(); ++i) EXPECT_NEAR(v[i], u[i], 1e-9);
}

// ---- spectral convergence of the Poisson solve -----------------------------

double poisson_error(int order) {
  auto s = make_box_space_2d(2, order);
  const auto& m = s.mesh();
  auto mask = s.make_mask(0xF);  // Dirichlet on all four sides
  tsem::HelmholtzOp A(s, 1.0, 0.0, mask);

  // Exact: u = sin(pi x) sin(pi y), f = 2 pi^2 u.
  std::vector<double> uex(s.nlocal()), b(s.nlocal()), u(s.nlocal(), 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    uex[i] = std::sin(M_PI * m.x[i]) * std::sin(M_PI * m.y[i]);
    b[i] = 2.0 * M_PI * M_PI * uex[i] * m.bm[i];
  }
  s.dssum(b.data());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] *= mask[i];

  auto apply = [&](const double* x, double* y) { A.apply(x, y); };
  auto dot = [&](const double* x, const double* y) {
    return s.glsum_dot(x, y);
  };
  tsem::CgOptions opt;
  opt.tol = 1e-12;
  opt.max_iter = 5000;
  auto res = tsem::pcg(s.nlocal(), apply, tsem::jacobi_precond(A.diagonal()),
                       dot, b.data(), u.data(), opt);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i)
    err = std::max(err, std::fabs(u[i] - uex[i]));
  return err;
}

TEST(PoissonSolve, SpectralConvergence2D) {
  const double e4 = poisson_error(4);
  const double e8 = poisson_error(8);
  const double e12 = poisson_error(12);
  EXPECT_LT(e8, e4 * 1e-2);
  EXPECT_LT(e12, 1e-9);
}

TEST(PoissonSolve, DeformedMesh3D) {
  auto spec = tsem::bump_channel_spec(
      tsem::linspace(0, 2, 2), tsem::linspace(0, 2, 2),
      tsem::linspace(0, 1, 1), 1.0, 1.0, 0.7, 0.2);
  Space s(build_mesh(spec, 6));
  const auto& m = s.mesh();
  auto mask = s.make_mask(0x3F);
  tsem::HelmholtzOp A(s, 1.0, 2.0, mask);

  // Manufactured solution vanishing on all box faces is unavailable on
  // the deformed bottom; instead verify residual consistency: build b
  // from a random-ish C0 masked field u* and recover it.
  std::vector<double> ustar(s.nlocal()), b(s.nlocal()), u(s.nlocal(), 0.0);
  for (std::size_t i = 0; i < ustar.size(); ++i)
    ustar[i] = std::sin(m.x[i] + 0.5 * m.y[i]) * (1.0 + 0.3 * m.z[i]);
  s.daverage(ustar.data());
  for (std::size_t i = 0; i < ustar.size(); ++i) ustar[i] *= mask[i];
  A.apply(ustar.data(), b.data());

  auto apply = [&](const double* x, double* y) { A.apply(x, y); };
  auto dot = [&](const double* x, const double* y) {
    return s.glsum_dot(x, y);
  };
  tsem::CgOptions opt;
  opt.tol = 1e-11;
  opt.max_iter = 4000;
  auto res = tsem::pcg(s.nlocal(), apply, tsem::jacobi_precond(A.diagonal()),
                       dot, b.data(), u.data(), opt);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < u.size(); ++i)
    EXPECT_NEAR(u[i], ustar[i], 1e-7);
}

// -------------------------------------------------------------------------
// Multi-field operators: per-field results must be BITWISE equal to the
// single-field entries and, for the Helmholtz kernel, to the serial
// element-list (_elems) driver and the two-pass h1 * A u + h2 * B u.
// -------------------------------------------------------------------------

std::vector<double> wave_field(const tsem::Mesh& m, int which) {
  std::vector<double> u(m.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double z = m.dim == 3 ? m.z[i] : 0.0;
    u[i] = std::sin((1 + which) * m.x[i] + 0.3 * which) *
               std::cos(m.y[i] - 0.2 * which) +
           0.1 * which * z;
  }
  return u;
}

void check_multi_matches_single(const Space& s) {
  const auto& m = s.mesh();
  const std::size_t nl = s.nlocal();
  const int nf = 9;
  std::vector<std::vector<double>> u(nf);
  for (int f = 0; f < nf; ++f) u[f] = wave_field(m, f);
  std::vector<const double*> up(nf);
  for (int f = 0; f < nf; ++f) up[f] = u[f].data();
  const double* vel[3] = {u[0].data(), u[1].data(),
                          m.dim == 3 ? u[2].data() : nullptr};
  tsem::TensorWork w1, w2;

  // Stiffness.
  std::vector<std::vector<double>> ws(nf, std::vector<double>(nl)),
      wm(nf, std::vector<double>(nl));
  std::vector<double*> wp(nf);
  for (int f = 0; f < nf; ++f) wp[f] = wm[f].data();
  for (int f = 0; f < nf; ++f)
    tsem::apply_stiffness_local(m, u[f].data(), ws[f].data(), w1);

  // Element-list driver over all elements, odd elements first: any
  // disjoint split of the sweep must reproduce the full loop.
  std::vector<std::int32_t> elems;
  for (int pass = 1; pass >= 0; --pass)
    for (int e = 0; e < m.nelem; ++e)
      if (e % 2 == pass) elems.push_back(e);
  std::vector<double> we(nl);
  for (int f = 0; f < nf; ++f) {
    tsem::apply_stiffness_local_elems(m, elems.data(), nullptr, elems.size(),
                                      u[f].data(), we.data(), w1);
    for (std::size_t i = 0; i < nl; ++i)
      ASSERT_EQ(we[i], ws[f][i]) << "stiffness _elems field " << f;
  }

  // Helmholtz: the mass term is added inside the element kernel and must
  // match the two-pass form on top of the stiffness bitwise.
  const double h1 = 0.7, h2 = 1.3;
  std::vector<std::vector<double>> wref(nf, std::vector<double>(nl));
  for (int f = 0; f < nf; ++f)
    for (std::size_t i = 0; i < nl; ++i)
      wref[f][i] = h1 * ws[f][i] + h2 * m.bm[i] * u[f][i];
  for (int f = 0; f < nf; ++f)
    tsem::apply_helmholtz_local(m, h1, h2, u[f].data(), ws[f].data(), w1);
  tsem::apply_helmholtz_local_multi(m, h1, h2, up.data(), wp.data(), nf, w2);
  for (int f = 0; f < nf; ++f) {
    tsem::apply_helmholtz_local_elems(m, h1, h2, elems.data(), nullptr,
                                      elems.size(), u[f].data(), we.data(),
                                      w1);
    for (std::size_t i = 0; i < nl; ++i) {
      ASSERT_EQ(ws[f][i], wref[f][i]) << "helmholtz field " << f;
      ASSERT_EQ(wm[f][i], wref[f][i]) << "helmholtz _multi field " << f;
      ASSERT_EQ(we[i], wref[f][i]) << "helmholtz _elems field " << f;
    }
  }

  // Convection (shared advecting velocity).
  for (int f = 0; f < nf; ++f)
    tsem::convect_local(m, vel, u[f].data(), ws[f].data(), w1);
  tsem::convect_local_multi(m, vel, up.data(), wp.data(), nf, w2);
  for (int f = 0; f < nf; ++f)
    for (std::size_t i = 0; i < nl; ++i)
      ASSERT_EQ(wm[f][i], ws[f][i]) << "convect field " << f;

  // Filter (in place).
  const auto fmat = tsem::filter_matrix(m.order, 0.15);
  std::vector<std::vector<double>> fs = u, fm = u;
  std::vector<double*> fp(nf);
  for (int f = 0; f < nf; ++f) fp[f] = fm[f].data();
  for (int f = 0; f < nf; ++f)
    tsem::apply_filter_local(m, fmat, fs[f].data(), w1);
  tsem::apply_filter_local_multi(m, fmat, fp.data(), nf, w2);
  for (int f = 0; f < nf; ++f)
    for (std::size_t i = 0; i < nl; ++i)
      ASSERT_EQ(fm[f][i], fs[f][i]) << "filter field " << f;
}

TEST(MultiField, FusedOperatorsMatchSingleFieldBitwise2D) {
  check_multi_matches_single(make_box_space_2d(3, 7));
}

TEST(MultiField, FusedOperatorsMatchSingleFieldBitwise3D) {
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 1, 2),
                                tsem::linspace(0, 1, 2),
                                tsem::linspace(0, 1, 2));
  check_multi_matches_single(Space(build_mesh(spec, 6)));
}

// Reference for the lockstep solver: one direct pcg() with the same
// Dirichlet lift, HelmholtzOp::apply and the operator's Jacobi diagonal.
tsem::CgResult reference_solve(const tsem::HelmholtzOp& A,
                               const std::vector<double>& bc,
                               const std::vector<double>& rhs,
                               std::vector<double>& u,
                               const tsem::HelmholtzSolveOptions& opt) {
  const Space& s = A.space();
  const auto& mask = A.mask();
  const std::size_t nl = s.nlocal();
  std::vector<double> ub(nl), b = rhs, t(nl), x(nl);
  for (std::size_t i = 0; i < nl; ++i) ub[i] = (1.0 - mask[i]) * bc[i];
  s.gs().op(b.data());
  tsem::TensorWork work;
  tsem::apply_helmholtz_local(s.mesh(), A.h1(), A.h2(), ub.data(), t.data(),
                              work);
  s.gs().op(t.data());
  for (std::size_t i = 0; i < nl; ++i) {
    b[i] = (b[i] - t[i]) * mask[i];
    x[i] = opt.zero_guess ? 0.0 : (u[i] - ub[i]) * mask[i];
  }
  const auto& dg = A.diagonal();
  tsem::CgOptions copt;
  copt.tol = opt.tol;
  copt.relative = true;
  copt.max_iter = opt.max_iter;
  auto res = tsem::pcg(
      nl, [&](const double* p, double* ap) { A.apply(p, ap); },
      [&](const double* r, double* z) {
        for (std::size_t i = 0; i < nl; ++i) z[i] = r[i] / dg[i];
      },
      [&](const double* a, const double* c) { return s.glsum_dot(a, c); },
      b.data(), x.data(), copt);
  for (std::size_t i = 0; i < nl; ++i) u[i] = x[i] + ub[i];
  return res;
}

// The lockstep multi-rhs solver must reproduce one pcg() per field
// exactly: same iterates (bitwise), same iteration counts and statuses.
void check_lockstep_matches_pcg(int nf, bool zero_guess) {
  auto s = make_box_space_2d(3, 6);
  const auto& m = s.mesh();
  const std::size_t nl = s.nlocal();
  auto mask = s.make_mask(0xF);
  tsem::HelmholtzOp A(s, 0.01, 25.0, mask);

  std::vector<std::vector<double>> bc(nf, std::vector<double>(nl, 0.0));
  std::vector<std::vector<double>> rhs(nf, std::vector<double>(nl));
  std::vector<std::vector<double>> guess(nf, std::vector<double>(nl, 0.0));
  for (int f = 0; f < nf; ++f) {
    auto g = wave_field(m, f);
    for (std::size_t i = 0; i < nl; ++i) rhs[f][i] = m.bm[i] * g[i];
    // Inhomogeneous Dirichlet data for one field to cover the lift path.
    if (f == nf / 2)
      for (std::size_t i = 0; i < nl; ++i) bc[f][i] = 0.25 * m.x[i];
    if (!zero_guess) guess[f] = wave_field(m, f + 3);
  }

  tsem::HelmholtzSolveOptions opt;
  opt.tol = 1e-10;
  opt.zero_guess = zero_guess;

  std::vector<std::vector<double>> uref = guess;
  std::vector<tsem::CgResult> rref(nf);
  for (int f = 0; f < nf; ++f)
    rref[f] = reference_solve(A, bc[f], rhs[f], uref[f], opt);

  std::vector<std::vector<double>> umul = guess;
  std::vector<const std::vector<double>*> bcp(nf), rp(nf);
  std::vector<std::vector<double>*> up(nf);
  for (int f = 0; f < nf; ++f) {
    bcp[f] = &bc[f];
    rp[f] = &rhs[f];
    up[f] = &umul[f];
  }
  std::vector<tsem::CgResult> rmul(nf);
  tsem::TensorWork work;
  const int nfail = tsem::helmholtz_solve_multi(
      A, bcp.data(), rp.data(), up.data(), nf, opt, work, nullptr,
      rmul.data());
  EXPECT_EQ(nfail, nf);
  for (int f = 0; f < nf; ++f) {
    EXPECT_EQ(rref[f].status, tsem::SolveStatus::Converged) << "field " << f;
    EXPECT_EQ(rmul[f].iterations, rref[f].iterations) << "field " << f;
    EXPECT_EQ(rmul[f].status, rref[f].status) << "field " << f;
    EXPECT_EQ(rmul[f].converged, rref[f].converged);
    EXPECT_EQ(rmul[f].initial_residual, rref[f].initial_residual);
    EXPECT_EQ(rmul[f].final_residual, rref[f].final_residual);
    for (std::size_t i = 0; i < nl; ++i)
      ASSERT_EQ(umul[f][i], uref[f][i]) << "field " << f << " entry " << i;
  }
}

TEST(MultiField, LockstepHelmholtzSolveMatchesPcgOneField) {
  check_lockstep_matches_pcg(1, true);
  check_lockstep_matches_pcg(1, false);
}

TEST(MultiField, LockstepHelmholtzSolveMatchesPcgThreeFields) {
  check_lockstep_matches_pcg(3, true);
  check_lockstep_matches_pcg(3, false);
}

// Inputs for the commit-contract cases: three fields of one operator, each
// with a warm start that differs from its solution.
struct LockstepCase {
  Space s = make_box_space_2d(3, 6);
  tsem::HelmholtzOp A{s, 0.01, 25.0, s.make_mask(0xF)};
  std::vector<std::vector<double>> bc, rhs, guess;

  LockstepCase() {
    const auto& m = s.mesh();
    for (int f = 0; f < 3; ++f) {
      bc.emplace_back(s.nlocal(), 0.0);
      rhs.push_back(wave_field(m, f));
      for (std::size_t i = 0; i < s.nlocal(); ++i) rhs[f][i] *= m.bm[i];
      guess.push_back(wave_field(m, f + 3));
    }
  }

  /// helmholtz_solve_multi over all three fields, starting from `guess`.
  int solve(std::vector<std::vector<double>>& u, tsem::CgResult* res,
            const tsem::HelmholtzSolveOptions& opt, bool maxiter_is_failure) {
    u = guess;
    const std::vector<double>* bcp[3];
    const std::vector<double>* rp[3];
    std::vector<double>* up[3];
    for (int f = 0; f < 3; ++f) {
      bcp[f] = &bc[f];
      rp[f] = &rhs[f];
      up[f] = &u[f];
    }
    tsem::TensorWork work;
    return tsem::helmholtz_solve_multi(A, bcp, rp, up, 3, opt, work, nullptr,
                                       res, maxiter_is_failure);
  }
};

// A poisoned field stops the commit: the fields before it are committed
// exactly as one pcg() each would leave them, the poisoned field keeps the
// caller's data, and the fields after it are not touched.
TEST(MultiField, LockstepSolveStopsCommitAtNonFiniteField) {
  LockstepCase c;
  c.rhs[1][c.s.nlocal() / 2] = std::nan("");
  tsem::HelmholtzSolveOptions opt;
  opt.tol = 1e-10;

  std::vector<double> uref = c.guess[0];
  const auto rref = reference_solve(c.A, c.bc[0], c.rhs[0], uref, opt);
  std::vector<std::vector<double>> u;
  tsem::CgResult res[3];
  EXPECT_EQ(c.solve(u, res, opt, false), 1);

  EXPECT_EQ(res[0].status, tsem::SolveStatus::Converged);
  EXPECT_EQ(res[0].iterations, rref.iterations);
  EXPECT_EQ(res[0].final_residual, rref.final_residual);
  EXPECT_EQ(res[1].status, tsem::SolveStatus::NonFinite);
  EXPECT_EQ(res[1].iterations, 0);
  for (std::size_t i = 0; i < c.s.nlocal(); ++i) {
    ASSERT_EQ(u[0][i], uref[i]) << "entry " << i;
    ASSERT_EQ(u[1][i], c.guess[1][i]) << "entry " << i;
    ASSERT_EQ(u[2][i], c.guess[2][i]) << "entry " << i;
  }
}

// With maxiter_is_failure a field that runs out of iterations is the first
// failure: it is committed (its iterate is the best available), like every
// field before it, and the fields after it are not touched.
TEST(MultiField, LockstepSolveStopsCommitAtMaxIterField) {
  LockstepCase c;
  // Field 0 starts at its exact solution (zero rhs, zero guess), so it
  // converges in setup; field 1 needs far more than max_iter iterations.
  std::fill(c.rhs[0].begin(), c.rhs[0].end(), 0.0);
  std::fill(c.guess[0].begin(), c.guess[0].end(), 0.0);
  tsem::HelmholtzSolveOptions opt;
  opt.tol = 1e-10;
  opt.max_iter = 3;

  std::vector<double> uref0 = c.guess[0], uref1 = c.guess[1];
  const auto rref0 = reference_solve(c.A, c.bc[0], c.rhs[0], uref0, opt);
  const auto rref1 = reference_solve(c.A, c.bc[1], c.rhs[1], uref1, opt);
  ASSERT_EQ(rref0.status, tsem::SolveStatus::Converged);
  ASSERT_EQ(rref1.status, tsem::SolveStatus::MaxIter);
  std::vector<std::vector<double>> u;
  tsem::CgResult res[3];
  EXPECT_EQ(c.solve(u, res, opt, true), 1);

  EXPECT_EQ(res[0].status, tsem::SolveStatus::Converged);
  EXPECT_EQ(res[0].iterations, 0);
  EXPECT_EQ(res[1].status, tsem::SolveStatus::MaxIter);
  EXPECT_EQ(res[1].iterations, opt.max_iter);
  EXPECT_EQ(res[1].final_residual, rref1.final_residual);
  for (std::size_t i = 0; i < c.s.nlocal(); ++i) {
    ASSERT_EQ(u[0][i], uref0[i]) << "entry " << i;
    ASSERT_EQ(u[1][i], uref1[i]) << "entry " << i;
    ASSERT_EQ(u[2][i], c.guess[2][i]) << "entry " << i;
  }
  // Without the flag MaxIter is not a failure: every field is committed.
  EXPECT_EQ(c.solve(u, res, opt, false), 3);
  EXPECT_NE(u[2], c.guess[2]);
}

}  // namespace
