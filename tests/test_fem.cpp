// Tests for the low-order FEM substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fem/fem.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "tensor/linalg.hpp"

namespace {

TEST(Fem1D, UniformGridMatchesClassicStencil) {
  // Uniform spacing h: stiffness tridiag (-1, 2, -1)/h, lumped mass h.
  const double h = 0.25;
  std::vector<double> pts = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<double> a, b;
  tsem::fem1d_operators(pts, a, b);
  const int m = 3;
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(a[i * m + i], 2.0 / h, 1e-13);
    if (i + 1 < m) {
      EXPECT_NEAR(a[i * m + i + 1], -1.0 / h, 1e-13);
    }
    EXPECT_NEAR(b[i], h, 1e-13);
  }
}

TEST(Fem1D, EnergyExactForLinearFunctions) {
  std::vector<double> pts = {0.0, 0.1, 0.35, 0.6, 1.0};
  std::vector<double> a, b;
  tsem::fem1d_operators(pts, a, b);
  // u = x restricted to the interior (Dirichlet values dropped):
  // full energy of u=x on (0,1) is 1; interior-only quadratic form equals
  // the energy of the hat-interpolant minus boundary couplings, so just
  // verify symmetry and positive-definiteness here.
  const int m = 3;
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j) EXPECT_NEAR(a[i * m + j], a[j * m + i], 1e-14);
  auto chol = a;
  EXPECT_TRUE(tsem::cholesky_factor(chol.data(), m));
}

TEST(P1Laplacian2D, UniformGridIsFivePointStencil) {
  // On a uniform right-triangulated grid the P1 Laplacian reduces to the
  // standard 5-point stencil (4, -1, -1, -1, -1) (scaled by 1).
  const auto xs = tsem::linspace(0, 1, 4);  // 5 points, 3 interior
  const auto a = tsem::p1_laplacian_2d(xs, xs);
  const int m = 3, n = m * m;
  // Center point (1,1) -> index 4.
  EXPECT_NEAR(a[4 * n + 4], 4.0, 1e-12);
  EXPECT_NEAR(a[4 * n + 3], -1.0, 1e-12);
  EXPECT_NEAR(a[4 * n + 5], -1.0, 1e-12);
  EXPECT_NEAR(a[4 * n + 1], -1.0, 1e-12);
  EXPECT_NEAR(a[4 * n + 7], -1.0, 1e-12);
  // Diagonal neighbors vanish for this triangulation.
  EXPECT_NEAR(a[4 * n + 0], 0.0, 1e-12);
  EXPECT_NEAR(a[4 * n + 8], 0.0, 1e-12);
}

TEST(P1Laplacian2D, SpdOnGradedGrid) {
  std::vector<double> xs = {0.0, 0.05, 0.15, 0.4, 0.8, 1.0};
  std::vector<double> ys = {0.0, 0.3, 0.5, 0.9, 1.0};
  auto a = tsem::p1_laplacian_2d(xs, ys);
  const int n = static_cast<int>((xs.size() - 2) * (ys.size() - 2));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(a[i * n + j], a[j * n + i], 1e-12);
  EXPECT_TRUE(tsem::cholesky_factor(a.data(), n));
}

TEST(P1Laplacian3D, MatchesSevenPointOnUniformGrid) {
  const auto xs = tsem::linspace(0, 1, 4);
  const auto a = tsem::p1_laplacian_3d(xs, xs, xs);
  const int m = 3, n = m * m * m;
  const int c = (1 * m + 1) * m + 1;  // center
  const double h = 1.0 / 4.0;
  // 7-point stencil scaled by h: 6h, -h on the 6 face neighbors.
  EXPECT_NEAR(a[c * n + c], 6.0 * h, 1e-12);
  EXPECT_NEAR(a[c * n + c - 1], -h, 1e-12);
  EXPECT_NEAR(a[c * n + c + m], -h, 1e-12);
  EXPECT_NEAR(a[c * n + c + m * m], -h, 1e-12);
}

TEST(Q1VertexLaplacian, NullspaceAndPartitionOfEnergy) {
  auto spec = tsem::annulus_spec(0.8, 2.0, 2, 8, 1.2);
  const auto m = tsem::build_mesh(spec, 4);
  const auto a0 = tsem::q1_vertex_laplacian(m);
  EXPECT_EQ(a0.n(), static_cast<int>(m.nvert));
  // Pure Neumann Laplacian: A0 * 1 = 0.
  std::vector<double> ones(m.nvert, 1.0), y(m.nvert);
  a0.matvec(ones.data(), y.data());
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-10);
  // Energy of a linear function x: integral |grad x|^2 = area.
  std::vector<double> vx, vy, vz;
  tsem::vertex_coords(m, vx, vy, vz);
  a0.matvec(vx.data(), y.data());
  double e = 0.0;
  for (std::size_t i = 0; i < vx.size(); ++i) e += vx[i] * y[i];
  // Q1 cells have straight edges, so the coarse energy equals the area of
  // the polygonal approximation of the annulus — about 10% low at kt = 8
  // — and must converge toward the exact area under refinement.
  const double exact = M_PI * (4.0 - 0.64);
  EXPECT_NEAR(e, exact, 0.12 * exact);
  const auto mf = tsem::build_mesh(tsem::quad_refine(spec), 4);
  const auto a0f = tsem::q1_vertex_laplacian(mf);
  std::vector<double> fx, fy, fz, yf(mf.nvert);
  tsem::vertex_coords(mf, fx, fy, fz);
  a0f.matvec(fx.data(), yf.data());
  double ef = 0.0;
  for (std::size_t i = 0; i < fx.size(); ++i) ef += fx[i] * yf[i];
  EXPECT_LT(std::fabs(ef - exact), std::fabs(e - exact));
}

TEST(Poisson5, MatchesLaplacianEigenvalue) {
  // Smallest eigenvalue of the nx x nx Dirichlet 5-point Laplacian is
  // 4 sin^2(pi/(2(nx+1))) * 2; verify via the Rayleigh quotient of the
  // exact eigenvector sin(pi i h) sin(pi j h).
  const int nx = 15;
  const auto a = tsem::poisson5(nx, nx);
  std::vector<double> v(nx * nx), y(nx * nx);
  for (int j = 0; j < nx; ++j)
    for (int i = 0; i < nx; ++i)
      v[j * nx + i] = std::sin(M_PI * (i + 1) / (nx + 1)) *
                      std::sin(M_PI * (j + 1) / (nx + 1));
  a.matvec(v.data(), y.data());
  double num = 0.0, den = 0.0;
  for (int i = 0; i < nx * nx; ++i) {
    num += v[i] * y[i];
    den += v[i] * v[i];
  }
  const double s = std::sin(M_PI / (2.0 * (nx + 1)));
  EXPECT_NEAR(num / den, 8.0 * s * s, 1e-10);
}

TEST(Csr, DuplicateTripletsAreSummed) {
  std::vector<tsem::Triplet> t = {{0, 0, 1.0}, {0, 0, 2.0}, {1, 0, -1.0},
                                  {0, 1, 0.5}, {1, 1, 4.0}};
  tsem::CsrMatrix a(2, t);
  EXPECT_EQ(a.nnz(), 4u);
  std::vector<double> x = {1.0, 2.0}, y(2);
  a.matvec(x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 + 8.0);
}

}  // namespace
