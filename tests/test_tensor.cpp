// Unit tests for the mxm kernel family and tensor-product application.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/kernels_fixed.hpp"
#include "tensor/kernels_simd.hpp"
#include "tensor/mxm.hpp"
#include "tensor/tensor_apply.hpp"

namespace {

using tsem::mxm_at;
using tsem::mxm_blocked;
using tsem::mxm_bt;
using tsem::mxm_f2;
using tsem::mxm_f3;
using tsem::mxm_generic;

std::vector<double> random_matrix(int rows, int cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = dist(rng);
  return m;
}

std::vector<double> reference_mxm(const std::vector<double>& a, int m,
                                  const std::vector<double>& b, int k, int n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (int i = 0; i < m; ++i)
    for (int l = 0; l < k; ++l)
      for (int j = 0; j < n; ++j)
        c[i * n + j] += a[i * k + l] * b[l * n + j];
  return c;
}

struct MxmShape {
  int m, k, n;
};

using Kernel = void (*)(const double*, int, const double*, int, double*,
                        int);

struct NamedKernel {
  const char* name;
  Kernel fn;
};

// Every kernel mxm() can dispatch to on this machine, plus the four
// Table 3 reference kernels.
std::vector<NamedKernel> mxm_kernels() {
  std::vector<NamedKernel> k = {{"fixed", tsem::mxm_fixed_dispatch},
                                {"generic", mxm_generic},
                                {"blocked", mxm_blocked},
                                {"f2", mxm_f2},
                                {"f3", mxm_f3}};
  if (tsem::simd_available())
    k.push_back({"avx2_b4x8", tsem::mxm_avx2_b4x8});
  return k;
}

std::vector<NamedKernel> mxm_bt_kernels() {
  std::vector<NamedKernel> k = {{"bt_scalar", tsem::mxm_bt_scalar}};
  if (tsem::simd_available()) k.push_back({"bt_avx2", tsem::mxm_bt_avx2});
  return k;
}

class MxmKernels : public ::testing::TestWithParam<MxmShape> {};

TEST_P(MxmKernels, AllVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  const auto a = random_matrix(m, k, 17);
  const auto b = random_matrix(k, n, 31);
  const auto ref = reference_mxm(a, m, b, k, n);

  for (const auto& v : mxm_kernels()) {
    std::vector<double> c(static_cast<std::size_t>(m) * n, -999.0);
    v.fn(a.data(), m, b.data(), k, c.data(), n);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(c[i], ref[i], 1e-12 * (1.0 + std::fabs(ref[i]))) << v.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MxmKernels,
    ::testing::Values(MxmShape{1, 1, 1}, MxmShape{2, 14, 2},
                      MxmShape{14, 2, 14}, MxmShape{16, 14, 16},
                      MxmShape{16, 14, 196}, MxmShape{256, 14, 16},
                      MxmShape{14, 16, 14}, MxmShape{16, 16, 256},
                      MxmShape{196, 16, 14}, MxmShape{7, 33, 5},
                      MxmShape{40, 40, 40}));

// The static dispatch rule, restated independently of mxm.cpp: the fixed
// tier on covered cubes, the AVX2 kernel on any other shape wide enough
// to vectorize, the fixed tier (f2/f3 off its table) otherwise.
NamedKernel expected_mxm(int m, int k, int n) {
  if (m == k && k == n && m >= 2 && m <= 16)
    return {"fixed", tsem::mxm_fixed_dispatch};
  if (tsem::simd_available() && n >= 4)
    return {"avx2_b4x8", tsem::mxm_avx2_b4x8};
  return {"fixed", tsem::mxm_fixed_dispatch};
}

NamedKernel expected_mxm_bt() {
  if (tsem::simd_available()) return {"bt_avx2", tsem::mxm_bt_avx2};
  return {"bt_scalar", tsem::mxm_bt_scalar};
}

// mxm()/mxm_bt() must agree BITWISE with a direct call to the kernel the
// rule names, for every shape the discretization produces (m, k, n in
// 2..16) and a few beyond it (dealiasing grids, collapsed planes) — the
// guarantee behind run-to-run, cross-process and thread-count
// reproducibility.
TEST(Mxm, ShapeDispatchMatchesSelectedVariant) {
  std::vector<MxmShape> shapes;
  for (int m = 2; m <= 16; ++m)
    for (int k = 2; k <= 16; ++k)
      for (int n = 2; n <= 16; ++n) shapes.push_back({m, k, n});
  for (const MxmShape s : {MxmShape{1, 1, 1}, MxmShape{8, 8, 64},
                           MxmShape{16, 16, 256}, MxmShape{17, 17, 17},
                           MxmShape{24, 24, 24}, MxmShape{100, 7, 3},
                           MxmShape{3, 7, 100}, MxmShape{40, 30, 12}})
    shapes.push_back(s);
  const NamedKernel bt = expected_mxm_bt();
  for (const auto& s : shapes) {
    const auto a = random_matrix(s.m, s.k, 101 + s.m);
    const auto b = random_matrix(s.k, s.n, 103 + s.n);
    const std::size_t sz = static_cast<std::size_t>(s.m) * s.n;
    const NamedKernel want = expected_mxm(s.m, s.k, s.n);
    ASSERT_STREQ(tsem::mxm_selected_name(s.m, s.k, s.n), want.name)
        << "shape " << s.m << "x" << s.k << "x" << s.n;
    std::vector<double> c_dispatch(sz, -1.0), c_kernel(sz, -2.0);
    tsem::mxm(a.data(), s.m, b.data(), s.k, c_dispatch.data(), s.n);
    want.fn(a.data(), s.m, b.data(), s.k, c_kernel.data(), s.n);
    ASSERT_EQ(std::memcmp(c_dispatch.data(), c_kernel.data(),
                          sz * sizeof(double)),
              0)
        << "mxm shape " << s.m << "x" << s.k << "x" << s.n << " kernel "
        << want.name;

    // mxm_bt reads b as B^T stored (n x k): same storage, other role.
    const auto bt_op = random_matrix(s.n, s.k, 107 + s.k);
    ASSERT_STREQ(tsem::mxm_bt_selected_name(), bt.name);
    tsem::mxm_bt(a.data(), s.m, bt_op.data(), s.k, c_dispatch.data(), s.n);
    bt.fn(a.data(), s.m, bt_op.data(), s.k, c_kernel.data(), s.n);
    ASSERT_EQ(std::memcmp(c_dispatch.data(), c_kernel.data(),
                          sz * sizeof(double)),
              0)
        << "mxm_bt shape " << s.m << "x" << s.k << "x" << s.n << " kernel "
        << bt.name;
  }
}

// Exhaustive correctness sweep: EVERY kept kernel (scalar and SIMD)
// against the naive reference over every shape the discretization can
// produce, m, k, n in {2..16}.  SIMD kernels reassociate the contraction
// with FMA, so the bound is relative, not bitwise — this is the
// documented accuracy contract for the whole kernel family.
TEST(MxmSweep, AllKernelsSweepAllSmallShapes) {
  const auto kernels = mxm_kernels();
  for (int m = 2; m <= 16; ++m)
    for (int k = 2; k <= 16; ++k)
      for (int n = 2; n <= 16; ++n) {
        const auto a = random_matrix(m, k, 1000 + m);
        const auto b =
            random_matrix(k, n, 2000 + 16 * k + n);
        const auto ref = reference_mxm(a, m, b, k, n);
        std::vector<double> c(static_cast<std::size_t>(m) * n);
        for (const auto& v : kernels) {
          std::fill(c.begin(), c.end(), -999.0);
          v.fn(a.data(), m, b.data(), k, c.data(), n);
          for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-12 * (1.0 + std::fabs(ref[i])))
                << v.name << " " << m << "x" << k << "x" << n << " entry "
                << i;
        }
      }
}

// Same sweep for the B-transposed kernels feeding mxm_bt.
TEST(MxmSweep, AllBtKernelsSweepAllSmallShapes) {
  const auto kernels = mxm_bt_kernels();
  for (int m = 2; m <= 16; ++m)
    for (int k = 2; k <= 16; ++k)
      for (int n = 2; n <= 16; ++n) {
        const auto a = random_matrix(m, k, 3000 + m);
        const auto b = random_matrix(k, n, 4000 + 16 * k + n);
        const auto ref = reference_mxm(a, m, b, k, n);
        std::vector<double> bt(static_cast<std::size_t>(n) * k);
        for (int i = 0; i < k; ++i)
          for (int j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
        std::vector<double> c(static_cast<std::size_t>(m) * n);
        for (const auto& v : kernels) {
          std::fill(c.begin(), c.end(), -999.0);
          v.fn(a.data(), m, bt.data(), k, c.data(), n);
          for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-12 * (1.0 + std::fabs(ref[i])))
                << v.name << " " << m << "x" << k << "x" << n << " entry "
                << i;
        }
      }
}

// The mxm_dispatch event names the choice for every order 2..16 — cube,
// long plane and bt — and agrees with the dispatch itself.
TEST(MxmDispatch, EventListsEveryOrder) {
  const auto sel = tsem::mxm_autotune_selections();
  ASSERT_EQ(sel.size(), 3u * 15u);
  for (const auto& [shape, name] : sel) {
    int m = 0, k = 0, n = 0;
    if (std::sscanf(shape.c_str(), "small/%dx%dx%d", &m, &k, &n) == 3 ||
        std::sscanf(shape.c_str(), "long/%dx%dx%d", &m, &k, &n) == 3)
      EXPECT_EQ(name, expected_mxm(m, k, n).name) << shape;
    else if (std::sscanf(shape.c_str(), "bt/k=%d", &k) == 1)
      EXPECT_EQ(name, expected_mxm_bt().name) << shape;
    else
      ADD_FAILURE() << "unexpected label " << shape;
  }
  EXPECT_EQ(sel.front().first, "small/2x2x2");
  EXPECT_EQ(sel.front().second, "fixed");

  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = tsem::obs::MetricsRegistry::instance();
  reg.reset();
  tsem::mxm_emit_dispatch_event();
  const tsem::obs::Json snap = reg.snapshot();
  int found = 0;
  for (const auto& e : snap.find("events")->items()) {
    const auto* type = e.find("type");
    if (!type || type->as_string() != "mxm_dispatch") continue;
    ++found;
    const auto* selections = e.find("selections");
    ASSERT_NE(selections, nullptr);
    for (const auto& [shape, name] : sel) {
      const auto* got = selections->find(shape);
      ASSERT_NE(got, nullptr) << shape;
      EXPECT_EQ(got->as_string(), name) << shape;
    }
  }
  EXPECT_EQ(found, 1);
  reg.reset();
}

// Fixed-(m,k,n) tier: covered shapes route to compile-time-extent
// instantiations.  The loop form is the same ascending-l row update as
// mxm_generic, but the restrict-qualified constant-extent loops vectorize
// differently (that is the tier's entire purpose), so the guarantee is
// the kernel family's relative accuracy contract, not bitwise.
TEST(MxmFixed, CoveredShapesMatchGenericToFamilyBound) {
  for (int d = 2; d <= 16; ++d) {
    EXPECT_TRUE(tsem::mxm_fixed_covers(d, d, d));
    EXPECT_TRUE(tsem::mxm_fixed_covers(d, d, d * d));
    for (int n : {d, d * d}) {
      const auto a = random_matrix(d, d, 500 + d);
      const auto b = random_matrix(d, n, 600 + d);
      const std::size_t sz = static_cast<std::size_t>(d) * n;
      std::vector<double> c_fixed(sz, -1.0), c_gen(sz, -2.0);
      tsem::mxm_fixed_dispatch(a.data(), d, b.data(), d, c_fixed.data(), n);
      mxm_generic(a.data(), d, b.data(), d, c_gen.data(), n);
      for (std::size_t i = 0; i < sz; ++i)
        ASSERT_NEAR(c_fixed[i], c_gen[i],
                    1e-12 * (1.0 + std::fabs(c_gen[i])))
            << "shape " << d << "x" << d << "x" << n << " entry " << i;
    }
  }
  EXPECT_FALSE(tsem::mxm_fixed_covers(17, 17, 17));  // above the tier
  EXPECT_FALSE(tsem::mxm_fixed_covers(8, 9, 8));     // non-cube k
  EXPECT_FALSE(tsem::mxm_fixed_covers(8, 8, 24));    // n != d, d^2
}

TEST(MxmFixed, FallbackShapesMatchGenericToFamilyBound) {
  struct Shape { int m, k, n; };
  // Outside coverage: tall, wide, non-square-k — exercise both f2 (m > n)
  // and f3 (m <= n) fallback arms.  The fallback carries the registry's
  // relative accuracy contract, not bitwise: the dot-product (f2/f3) and
  // row-update (generic) loop forms contract into FMA differently at
  // vector tails under -march=native.
  const Shape shapes[] = {{17, 17, 17}, {40, 8, 5}, {5, 8, 40},
                          {8, 9, 8},    {8, 8, 24}};
  for (const auto& s : shapes) {
    ASSERT_FALSE(tsem::mxm_fixed_covers(s.m, s.k, s.n));
    const auto a = random_matrix(s.m, s.k, 700 + s.m);
    const auto b = random_matrix(s.k, s.n, 800 + s.n);
    const std::size_t sz = static_cast<std::size_t>(s.m) * s.n;
    std::vector<double> c_fixed(sz, -1.0), c_gen(sz, -2.0);
    tsem::mxm_fixed_dispatch(a.data(), s.m, b.data(), s.k, c_fixed.data(),
                             s.n);
    mxm_generic(a.data(), s.m, b.data(), s.k, c_gen.data(), s.n);
    for (std::size_t i = 0; i < sz; ++i)
      ASSERT_NEAR(c_fixed[i], c_gen[i],
                  1e-12 * (1.0 + std::fabs(c_gen[i])))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " entry " << i;
  }
}

TEST(Mxm, TransposedVariants) {
  const int m = 6, k = 9, n = 7;
  const auto a = random_matrix(m, k, 3);
  const auto b = random_matrix(k, n, 5);
  const auto ref = reference_mxm(a, m, b, k, n);

  // mxm_bt: pass B^T stored (n x k).
  std::vector<double> bt(static_cast<std::size_t>(n) * k);
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  mxm_bt(a.data(), m, bt.data(), k, c.data(), n);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-13);

  // mxm_at: pass A^T stored (k x m).
  std::vector<double> at(static_cast<std::size_t>(k) * m);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < k; ++j) at[j * m + i] = a[i * k + j];
  mxm_at(at.data(), m, b.data(), k, c.data(), n);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-13);
}

TEST(Mxm, FixedSizeKernel) {
  const auto a = random_matrix(8, 5, 11);
  const auto b = random_matrix(5, 12, 13);
  const auto ref = reference_mxm(a, 8, b, 5, 12);
  std::vector<double> c(8 * 12);
  tsem::mxm_fixed<8, 5, 12>(a.data(), b.data(), c.data());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-13);
}

// Kronecker-product reference for tensor_apply checks.
std::vector<double> kron(const std::vector<double>& a, int ma, int na,
                         const std::vector<double>& b, int mb, int nb) {
  std::vector<double> k(static_cast<std::size_t>(ma * mb) * (na * nb));
  for (int ia = 0; ia < ma; ++ia)
    for (int ja = 0; ja < na; ++ja)
      for (int ib = 0; ib < mb; ++ib)
        for (int jb = 0; jb < nb; ++jb)
          k[(ia * mb + ib) * (na * nb) + (ja * nb + jb)] =
              a[ia * na + ja] * b[ib * nb + jb];
  return k;
}

TEST(TensorApply, TwoDMatchesKronecker) {
  const int mx = 4, nx = 5, my = 3, ny = 6;
  const auto ax = random_matrix(mx, nx, 1);
  const auto ay = random_matrix(my, ny, 2);
  const auto u = random_matrix(ny, nx, 3);  // u[i + nx*j]

  // Reference: (Ay kron Ax) acting on u ordered with x fastest.
  const auto op = kron(ay, my, ny, ax, mx, nx);
  std::vector<double> ref(static_cast<std::size_t>(mx) * my, 0.0);
  for (int r = 0; r < mx * my; ++r)
    for (int c = 0; c < nx * ny; ++c) ref[r] += op[r * (nx * ny) + c] * u[c];

  std::vector<double> out(static_cast<std::size_t>(mx) * my);
  std::vector<double> work(static_cast<std::size_t>(ny) * mx);
  tsem::tensor2_apply(ax.data(), mx, nx, ay.data(), my, ny, u.data(),
                      out.data(), work.data());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(out[i], ref[i], 1e-12);
}

TEST(TensorApply, ThreeDMatchesKronecker) {
  const int mx = 3, nx = 4, my = 2, ny = 3, mz = 4, nz = 2;
  const auto ax = random_matrix(mx, nx, 4);
  const auto ay = random_matrix(my, ny, 5);
  const auto az = random_matrix(mz, nz, 6);
  const auto u = random_matrix(nz * ny, nx, 7);

  const auto zy = kron(az, mz, nz, ay, my, ny);
  const auto op = kron(zy, mz * my, nz * ny, ax, mx, nx);
  const int nin = nx * ny * nz, nout = mx * my * mz;
  std::vector<double> ref(nout, 0.0);
  for (int r = 0; r < nout; ++r)
    for (int c = 0; c < nin; ++c) ref[r] += op[r * nin + c] * u[c];

  std::vector<double> out(nout);
  std::vector<double> work(static_cast<std::size_t>(nz) * ny * mx +
                           static_cast<std::size_t>(nz) * my * mx);
  tsem::tensor3_apply(ax.data(), mx, nx, ay.data(), my, ny, az.data(), mz, nz,
                      u.data(), out.data(), work.data());
  for (int i = 0; i < nout; ++i) EXPECT_NEAR(out[i], ref[i], 1e-12);
}

TEST(TensorApply, SingleDirectionConsistent3D) {
  const int n = 5;
  const auto a = random_matrix(n, n, 8);
  const auto u = random_matrix(n * n, n, 9);
  std::vector<double> eye(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) eye[i * n + i] = 1.0;

  std::vector<double> full(u.size()), partial(u.size());
  std::vector<double> work(2 * u.size());

  tsem::tensor3_apply(a.data(), n, n, eye.data(), n, n, eye.data(), n, n,
                      u.data(), full.data(), work.data());
  tsem::tensor3_apply_x(a.data(), n, n, n, u.data(), partial.data());
  for (std::size_t i = 0; i < u.size(); ++i)
    EXPECT_NEAR(full[i], partial[i], 1e-12);

  tsem::tensor3_apply(eye.data(), n, n, a.data(), n, n, eye.data(), n, n,
                      u.data(), full.data(), work.data());
  tsem::tensor3_apply_y(a.data(), n, n, n, u.data(), partial.data());
  for (std::size_t i = 0; i < u.size(); ++i)
    EXPECT_NEAR(full[i], partial[i], 1e-12);

  tsem::tensor3_apply(eye.data(), n, n, eye.data(), n, n, a.data(), n, n,
                      u.data(), full.data(), work.data());
  tsem::tensor3_apply_z(a.data(), n, n, n, u.data(), partial.data());
  for (std::size_t i = 0; i < u.size(); ++i)
    EXPECT_NEAR(full[i], partial[i], 1e-12);
}

}  // namespace
