// Tests for the additive overlapping Schwarz preconditioner on the
// consistent Poisson operator E.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
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
#include "solver/overlap.hpp"
#include "solver/schwarz.hpp"

namespace {

using tsem::build_mesh;
using tsem::PressureSystem;
using tsem::SchwarzOptions;
using tsem::SchwarzPrecond;
using tsem::Space;

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(GhostExchange, MirrorsNeighborValues2D) {
  // Two elements side by side: ghosts across the shared face must be the
  // neighbor's first-layer values; ghosts at physical boundaries are 0.
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 2, 2),
                                tsem::linspace(0, 1, 1));
  Space s(build_mesh(spec, 5));  // ng1 = 4
  PressureSystem p(s, s.make_mask(0xF));
  tsem::GhostExchange gx(p, 2);
  const std::size_t n = p.nloc();
  std::vector<double> pv(n);
  for (std::size_t i = 0; i < n; ++i) pv[i] = static_cast<double>(i);
  std::vector<double> ghost(2 * gx.nslots());
  gx.exchange(pv.data(), ghost.data());

  const int ng = p.ng1();
  // Element 0, face x-hi (f=1), layer l, tangential t corresponds to
  // element 1's dof at (i=l, j=t).
  for (int l = 0; l < 2; ++l) {
    for (int t = 0; t < ng; ++t) {
      const std::size_t slot = (0 * 4 + 1) * static_cast<std::size_t>(ng) + t;
      const double got = ghost[l * gx.nslots() + slot];
      const double expect = pv[static_cast<std::size_t>(ng) * ng +  // elem 1
                               t * ng + l];
      EXPECT_DOUBLE_EQ(got, expect);
    }
  }
  // Element 0, face x-lo: physical boundary -> zero ghosts.
  for (int l = 0; l < 2; ++l)
    for (int t = 0; t < ng; ++t) {
      const std::size_t slot = (0 * 4 + 0) * static_cast<std::size_t>(ng) + t;
      EXPECT_DOUBLE_EQ(ghost[l * gx.nslots() + slot], 0.0);
    }
}

// <exchange(p), v> == <p, scatter_add(v)> over every ghost layer: the
// exchange pair is adjoint, which additive Schwarz symmetry relies on.
void expect_exchange_adjoint(const PressureSystem& p, int nlayers,
                             unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "nlayers " << nlayers);
  tsem::GhostExchange gx(p, nlayers);
  const std::size_t n = p.nloc();
  const std::size_t nv = static_cast<std::size_t>(nlayers) * gx.nslots();
  const auto pv = random_vec(n, seed);
  const auto vv = random_vec(nv, seed + 2);
  std::vector<double> ghost(nv);
  gx.exchange(pv.data(), ghost.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < nv; ++i) lhs += ghost[i] * vv[i];
  std::vector<double> back(n, 0.0);
  gx.scatter_add(vv.data(), back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < n; ++i) rhs += back[i] * pv[i];
  EXPECT_NEAR(lhs, rhs, 1e-11 * (1.0 + std::fabs(lhs)));
}

TEST(GhostExchange, ScatterAddIsTransposeOfExchange) {
  auto spec = tsem::annulus_spec(0.9, 2.1, 2, 6, 1.2);
  Space s(build_mesh(spec, 6));
  PressureSystem p(s, s.make_mask(0x3));
  for (int nlayers : {1, 2}) expect_exchange_adjoint(p, nlayers, 3);
}

TEST(Schwarz, PreconditionerIsSymmetric) {
  auto spec = tsem::annulus_spec(0.8, 2.0, 2, 8, 1.2);
  Space s(build_mesh(spec, 7));
  PressureSystem p(s, s.make_mask(0x3));
  SchwarzPrecond prec(p, SchwarzOptions{});
  const std::size_t n = p.nloc();
  const auto a = random_vec(n, 7);
  const auto b = random_vec(n, 9);
  std::vector<double> ma(n), mb(n);
  prec.apply(a.data(), ma.data());
  prec.apply(b.data(), mb.data());
  double ab = 0.0, ba = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ab += b[i] * ma[i];
    ba += a[i] * mb[i];
  }
  EXPECT_NEAR(ab, ba, 1e-9 * (1.0 + std::fabs(ab)));
}

int solve_iterations(PressureSystem& p, const SchwarzOptions* opt,
                     double tol = 1e-5) {
  const std::size_t n = p.nloc();
  auto pstar = random_vec(n, 41);
  p.remove_mean(pstar.data());
  std::vector<double> g(n), sol(n, 0.0);
  p.apply_E(pstar.data(), g.data());

  std::unique_ptr<SchwarzPrecond> prec;
  if (opt) prec = std::make_unique<SchwarzPrecond>(p, *opt);
  auto apply = [&](const double* x, double* y) { p.apply_E(x, y); };
  auto pdot = [n](const double* x, const double* y) {
    double s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) s2 += x[i] * y[i];
    return s2;
  };
  auto precond = [&](const double* r, double* z) {
    if (prec) {
      prec->apply(r, z);
      p.remove_mean(z);
    } else {
      std::copy(r, r + n, z);
    }
  };
  tsem::CgOptions copt;
  copt.tol = tol;
  copt.max_iter = 4000;
  auto res = tsem::pcg(n, apply, precond, pdot, g.data(), sol.data(), copt);
  EXPECT_TRUE(res.converged);
  return res.iterations;
}

TEST(Schwarz, AcceleratesPressureSolve) {
  auto spec = tsem::annulus_spec(0.6, 2.4, 3, 10, 1.4);
  Space s(build_mesh(spec, 7));
  PressureSystem p(s, s.make_mask(0x3));
  const int plain = solve_iterations(p, nullptr);
  SchwarzOptions opt;  // FDM + coarse
  const int schwarz = solve_iterations(p, &opt);
  EXPECT_LT(schwarz, plain / 2);
}

TEST(Schwarz, CoarseGridMatters) {
  auto spec = tsem::annulus_spec(0.6, 2.4, 3, 10, 1.4);
  Space s(build_mesh(spec, 7));
  PressureSystem p(s, s.make_mask(0x3));
  SchwarzOptions with;
  SchwarzOptions without;
  without.use_coarse = false;
  const int iw = solve_iterations(p, &with);
  const int iwo = solve_iterations(p, &without);
  EXPECT_LT(iw, iwo);
}

TEST(Schwarz, FemOverlapOrdering) {
  auto spec = tsem::annulus_spec(0.7, 2.2, 2, 8, 1.3);
  Space s(build_mesh(spec, 7));
  PressureSystem p(s, s.make_mask(0x3));
  SchwarzOptions fem0, fem1, fem3;
  fem0.local = fem1.local = fem3.local = SchwarzOptions::Local::FemP1;
  fem0.overlap = 0;
  fem1.overlap = 1;
  fem3.overlap = 3;
  const int i0 = solve_iterations(p, &fem0);
  const int i1 = solve_iterations(p, &fem1);
  const int i3 = solve_iterations(p, &fem3);
  // Overlap helps (paper Table 2): N_o = 1 beats N_o = 0; N_o = 3 is at
  // least comparable to N_o = 1.
  EXPECT_LT(i1, i0);
  EXPECT_LE(i3, i1 + 2);
}

TEST(GhostExchange, MirrorsNeighborValues3D) {
  // Two elements stacked in z; check the ghost across the shared z-face.
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 1, 1),
                                tsem::linspace(0, 1, 1),
                                tsem::linspace(0, 2, 2));
  Space s(build_mesh(spec, 5));  // ng1 = 4
  PressureSystem p(s, s.make_mask(0x3F));
  tsem::GhostExchange gx(p, 1);
  const std::size_t n = p.nloc();
  std::vector<double> pv(n);
  for (std::size_t i = 0; i < n; ++i) pv[i] = static_cast<double>(i) + 1.0;
  std::vector<double> ghost(gx.nslots());
  gx.exchange(pv.data(), ghost.data());

  const int ng = p.ng1();
  const int nt = ng * ng;
  // Element 0, face z-hi (f = 5), tangential t = (i, j): neighbor dof is
  // element 1's node (i, j, k=0).
  for (int t = 0; t < nt; ++t) {
    const std::size_t slot = (0 * 6 + 5) * static_cast<std::size_t>(nt) + t;
    const int i = t % ng, j = t / ng;
    const double expect =
        pv[static_cast<std::size_t>(ng) * ng * ng +  // element 1
           (0 * ng + j) * ng + i];
    EXPECT_DOUBLE_EQ(ghost[slot], expect);
  }
  // Element 0, face z-lo: physical boundary, zero ghosts.
  for (int t = 0; t < nt; ++t) {
    const std::size_t slot = (0 * 6 + 4) * static_cast<std::size_t>(nt) + t;
    EXPECT_DOUBLE_EQ(ghost[slot], 0.0);
  }
}

TEST(GhostExchange, AdjointIn3D) {
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 2, 2),
                                tsem::linspace(0, 1, 1),
                                tsem::linspace(0, 2, 2));
  Space s(build_mesh(spec, 4));  // ng1 = 3 >= nlayers
  PressureSystem p(s, s.make_mask(0x3F));
  for (int nlayers : {1, 2}) expect_exchange_adjoint(p, nlayers, 21);
}

TEST(Schwarz, LocalSolverSweepMatchesPrecondBitwise) {
  // SchwarzLocalSolver (the mp executed tier's fork-safe element-list
  // entry point) driven over all elements with the production ghost
  // volumes, plus one scatter_add, must reproduce SchwarzPrecond::apply
  // bitwise (FP64 Fdm local, no coarse term).
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 2, 2),
                                tsem::linspace(0, 1, 1),
                                tsem::linspace(0, 1.3, 1));
  Space s(build_mesh(spec, 4));  // ng1 = 3 > overlap
  PressureSystem p(s, s.make_mask(0x3F));
  SchwarzOptions opt;
  opt.use_coarse = false;
  opt.overlap = 1;
  const SchwarzPrecond pre(p, opt);
  const tsem::GhostExchange& gx = *pre.ghost_exchange();

  const auto r = random_vec(p.nloc(), 29);
  std::vector<double> z(p.nloc());
  pre.apply(r.data(), z.data());

  const tsem::SchwarzLocalSolver sl(s.mesh(), p.ng1(), opt.overlap);
  std::vector<double> ghost(static_cast<std::size_t>(gx.nlayers()) *
                            gx.nslots());
  gx.exchange(r.data(), ghost.data());
  std::vector<double> z2(p.nloc(), 0.0);
  std::vector<double> vout(ghost.size());
  std::vector<double> work(sl.work_doubles());
  std::vector<std::int32_t> all(static_cast<std::size_t>(s.mesh().nelem));
  for (std::size_t e = 0; e < all.size(); ++e)
    all[e] = static_cast<std::int32_t>(e);
  sl.solve_elems(all.data(), nullptr, all.size(), r.data(), ghost.data(),
                 gx.nslots(), z2.data(), vout.data(), work.data());
  gx.scatter_add(vout.data(), z2.data());

  ASSERT_EQ(0, std::memcmp(z.data(), z2.data(), z.size() * sizeof(double)));
}

TEST(Schwarz, Works3D) {
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 1, 2),
                                tsem::linspace(0, 1, 2),
                                tsem::linspace(0, 1, 2));
  Space s(build_mesh(spec, 5));
  PressureSystem p(s, s.make_mask(0x3F));
  const int plain = solve_iterations(p, nullptr, 1e-6);
  SchwarzOptions opt;
  const int schwarz = solve_iterations(p, &opt, 1e-6);
  EXPECT_LT(schwarz, plain);
}

// ---------------------------------------------------------------------
// Serial reference: the ghost exchange, local-solve staging and coarse
// loops as they stood before they went element-parallel — per-slot donor
// and ghost-point index math, one shared own/buf staging pair, and the
// serial restriction/prolongation sweeps.  The library's threaded,
// slot-map-driven loops must reproduce them bit for bit.
// ---------------------------------------------------------------------

std::size_t ref_donor_node(const tsem::GhostExchange& gx, std::size_t slot,
                           int layer) {
  const int nt = gx.tang_slots(), dim = gx.dim(), ng1 = gx.ng1();
  const int t = static_cast<int>(slot % nt);
  const int f = static_cast<int>((slot / nt) % (2 * dim));
  const std::size_t e = slot / (static_cast<std::size_t>(nt) * 2 * dim);
  const int axis = f / 2;
  const int side = f % 2;
  int idx[3] = {0, 0, 0};
  idx[axis] = side == 0 ? layer : ng1 - 1 - layer;
  if (dim == 2) {
    idx[1 - axis] = t;
    return (e * ng1 + idx[1]) * ng1 + idx[0];
  }
  int taxes[2], ti = 0;
  for (int d = 0; d < 3; ++d)
    if (d != axis) taxes[ti++] = d;
  idx[taxes[0]] = t % ng1;
  idx[taxes[1]] = t / ng1;
  return ((e * ng1 + idx[2]) * ng1 + idx[1]) * ng1 + idx[0];
}

void ref_exchange(const tsem::GhostExchange& gx, const double* p,
                  double* ghost) {
  const std::size_t ns = gx.nslots();
  std::vector<double> own(ns), buf(ns);
  for (int l = 0; l < gx.nlayers(); ++l) {
    for (std::size_t s = 0; s < ns; ++s) {
      own[s] = p[ref_donor_node(gx, s, l)];
      buf[s] = own[s];
    }
    gx.gather_scatter().op(buf.data());
    double* g = ghost + static_cast<std::size_t>(l) * ns;
    for (std::size_t s = 0; s < ns; ++s) g[s] = buf[s] - own[s];
  }
}

void ref_scatter_add(const tsem::GhostExchange& gx, const double* v,
                     double* p) {
  const std::size_t ns = gx.nslots();
  std::vector<double> own(ns), buf(ns);
  for (int l = 0; l < gx.nlayers(); ++l) {
    const double* g = v + static_cast<std::size_t>(l) * ns;
    for (std::size_t s = 0; s < ns; ++s) {
      own[s] = g[s];
      buf[s] = g[s];
    }
    gx.gather_scatter().op(buf.data());
    for (std::size_t s = 0; s < ns; ++s)
      p[ref_donor_node(gx, s, l)] += buf[s] - own[s];
  }
}

// Extended-grid offset of ghost slot (f, l, t) of an element.
int ref_ghost_point(int dim, int ng1, int ov, int f, int l, int t) {
  const int m1 = ng1 + 2 * ov;
  const int axis = f / 2, side = f % 2;
  int idx[3] = {0, 0, 0};
  idx[axis] = (side == 0) ? (ov - 1 - l) : (ov + ng1 + l);
  if (dim == 2) {
    idx[1 - axis] = ov + t;
    return idx[1] * m1 + idx[0];
  }
  int taxes[2], ti = 0;
  for (int d = 0; d < 3; ++d)
    if (d != axis) taxes[ti++] = d;
  idx[taxes[0]] = ov + t % ng1;
  idx[taxes[1]] = ov + t / ng1;
  return (idx[2] * m1 + idx[1]) * m1 + idx[0];
}

/// z = M^{-1} r of a default FDM SchwarzPrecond (overlap 1, coarse on),
/// serially.  The batch layout is the library's: elements grouped by
/// factorization in first-appearance order, chunks of <= 16.
std::vector<double> ref_apply(const PressureSystem& ps,
                              const SchwarzPrecond& pre, const double* r) {
  const tsem::Mesh& m = ps.vspace().mesh();
  const tsem::GhostExchange& gx = *pre.ghost_exchange();
  const int dim = m.dim, ng1 = ps.ng1(), npe = ps.npe(), ov = 1;
  const int m1 = ng1 + 2 * ov, nt = gx.tang_slots();
  std::size_t nle = 1;
  for (int d = 0; d < dim; ++d) nle *= static_cast<std::size_t>(m1);
  const std::size_t ns = gx.nslots();

  std::vector<double> z(ps.nloc(), 0.0);
  std::vector<double> ghost(ns), vout(ns);
  ref_exchange(gx, r, ghost.data());

  std::vector<int> fdm_of;
  const auto fdm = tsem::build_schwarz_fdm(m, ng1, ov, &fdm_of);
  std::vector<std::vector<int>> groups(fdm.size());
  for (int e = 0; e < m.nelem; ++e) groups[fdm_of[e]].push_back(e);
  constexpr int kBatch = 16;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::size_t i0 = 0; i0 < groups[gi].size(); i0 += kBatch) {
      const int count =
          static_cast<int>(std::min<std::size_t>(kBatch, groups[gi].size() - i0));
      std::vector<double> br(count * nle, 0.0), bz(count * nle),
          work(3 * count * nle);
      for (int b = 0; b < count; ++b) {
        const int e = groups[gi][i0 + b];
        double* rloc = br.data() + b * nle;
        const std::size_t poff = static_cast<std::size_t>(e) * npe;
        for (int q = 0; q < npe; ++q) {
          int i = q % ng1, j = (q / ng1) % ng1, k = q / (ng1 * ng1);
          const int o = dim == 2 ? (j + ov) * m1 + (i + ov)
                                 : ((k + ov) * m1 + (j + ov)) * m1 + (i + ov);
          rloc[o] = r[poff + q];
        }
        for (int f = 0; f < 2 * dim; ++f)
          for (int l = 0; l < ov; ++l)
            for (int t = 0; t < nt; ++t) {
              const std::size_t slot =
                  (static_cast<std::size_t>(e) * 2 * dim + f) * nt + t;
              rloc[ref_ghost_point(dim, ng1, ov, f, l, t)] =
                  ghost[static_cast<std::size_t>(l) * ns + slot];
            }
      }
      fdm[gi].solve_batch(br.data(), bz.data(), count, work.data());
      for (int b = 0; b < count; ++b) {
        const int e = groups[gi][i0 + b];
        const double* zloc = bz.data() + b * nle;
        const std::size_t poff = static_cast<std::size_t>(e) * npe;
        for (int q = 0; q < npe; ++q) {
          int i = q % ng1, j = (q / ng1) % ng1, k = q / (ng1 * ng1);
          const int o = dim == 2 ? (j + ov) * m1 + (i + ov)
                                 : ((k + ov) * m1 + (j + ov)) * m1 + (i + ov);
          z[poff + q] += zloc[o];
        }
        for (int f = 0; f < 2 * dim; ++f)
          for (int l = 0; l < ov; ++l)
            for (int t = 0; t < nt; ++t) {
              const std::size_t slot =
                  (static_cast<std::size_t>(e) * 2 * dim + f) * nt + t;
              vout[static_cast<std::size_t>(l) * ns + slot] =
                  zloc[ref_ghost_point(dim, ng1, ov, f, l, t)];
            }
      }
    }
  }
  ref_scatter_add(gx, vout.data(), z.data());

  // Coarse term: bilinear corner weights at the Gauss points, serial
  // restriction onto the vertices, XXT solve, serial prolongation.
  const auto& g = tsem::gauss_nodes(ng1);
  const int ncorner = 1 << dim;
  std::vector<double> r0w(static_cast<std::size_t>(ncorner) * npe);
  for (int c = 0; c < ncorner; ++c)
    for (int q = 0; q < npe; ++q) {
      double w = 1.0;
      int rem = q;
      for (int d = 0; d < dim; ++d) {
        const double gd = g[rem % ng1];
        rem /= ng1;
        w *= ((c >> d) & 1) ? 0.5 * (1.0 + gd) : 0.5 * (1.0 - gd);
      }
      r0w[static_cast<std::size_t>(c) * npe + q] = w;
    }
  std::vector<double> cb(m.nvert, 0.0), cx(m.nvert);
  for (int e = 0; e < m.nelem; ++e) {
    const std::size_t poff = static_cast<std::size_t>(e) * npe;
    const std::int64_t* v = &m.vert_id[static_cast<std::size_t>(e) * ncorner];
    for (int c = 0; c < ncorner; ++c) {
      const double* w = r0w.data() + static_cast<std::size_t>(c) * npe;
      double s = 0.0;
      for (int q = 0; q < npe; ++q) s += w[q] * r[poff + q];
      cb[v[c]] += s;
    }
  }
  cb[0] = 0.0;
  pre.coarse()->solve(cb.data(), cx.data());
  for (int e = 0; e < m.nelem; ++e) {
    const std::size_t poff = static_cast<std::size_t>(e) * npe;
    const std::int64_t* v = &m.vert_id[static_cast<std::size_t>(e) * ncorner];
    for (int c = 0; c < ncorner; ++c) {
      const double* w = r0w.data() + static_cast<std::size_t>(c) * npe;
      const double xc = cx[v[c]];
      for (int q = 0; q < npe; ++q) z[poff + q] += w[q] * xc;
    }
  }
  return z;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Run f at `nthreads` OpenMP threads, restoring the calling team after.
template <typename F>
void at_threads(int nthreads, F&& f) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(nthreads);
#endif
  f();
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

int team_size() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void expect_ghost_bitwise(const tsem::GhostExchange& gx, std::size_t np,
                          int nthreads) {
  const std::size_t nv = static_cast<std::size_t>(gx.nlayers()) * gx.nslots();
  const auto pv = random_vec(np, 61);
  const auto v = random_vec(nv, 67);
  const auto base = random_vec(np, 71);  // scatter_add accumulates onto it

  std::vector<double> gref(nv), ggot(nv, 1.0);
  std::vector<double> pref = base, pgot = base;
  ref_exchange(gx, pv.data(), gref.data());
  ref_scatter_add(gx, v.data(), pref.data());
  at_threads(nthreads, [&] {
    gx.exchange(pv.data(), ggot.data());
    gx.scatter_add(v.data(), pgot.data());
  });
  EXPECT_TRUE(bitwise_equal(gref, ggot))
      << "exchange, nlayers " << gx.nlayers() << ", " << nthreads << "t";
  EXPECT_TRUE(bitwise_equal(pref, pgot))
      << "scatter_add, nlayers " << gx.nlayers() << ", " << nthreads << "t";
}

void expect_schwarz_bitwise(const PressureSystem& ps) {
  // Large enough that the threaded loops really run threaded.
  ASSERT_GT(ps.nloc(), tsem::kParallelMinItems);
  for (int nlayers : {1, 2}) {
    const tsem::GhostExchange gx(ps, nlayers);
    ASSERT_GT(gx.nslots(), tsem::kParallelMinItems);
    for (int nt : {1, team_size()})
      expect_ghost_bitwise(gx, ps.nloc(), nt);
  }
  const SchwarzPrecond pre(ps, SchwarzOptions{});
  const auto r = random_vec(ps.nloc(), 73);
  const auto zref = ref_apply(ps, pre, r.data());
  for (int nt : {1, team_size()}) {
    std::vector<double> z(ps.nloc(), 1.0);  // stale data apply overwrites
    at_threads(nt, [&] { pre.apply(r.data(), z.data()); });
    EXPECT_TRUE(bitwise_equal(zref, z)) << "apply, " << nt << "t";
  }
}

TEST(SchwarzThreading, Deformed2DMatchesSerialReferenceBitwise) {
  // Curved, graded annulus, 2 x 71 = 142 elements: the static schedule
  // splits them unevenly at 3 and at 4 threads.
  auto spec = tsem::annulus_spec(0.8, 2.0, 2, 71, 1.3);
  Space s(build_mesh(spec, 9));
  PressureSystem ps(s, s.make_mask(0x3));
  expect_schwarz_bitwise(ps);
}

TEST(SchwarzThreading, Deformed3DMatchesSerialReferenceBitwise) {
  // Bump channel, 11 x 2 x 1 = 22 elements: the static schedule splits
  // them unevenly at 3 and at 4 threads.
  auto spec = tsem::bump_channel_spec(tsem::linspace(0, 4, 11),
                                      tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 1, 1), 2.0, 1.0, 0.6,
                                      0.2);
  Space s(build_mesh(spec, 7));
  PressureSystem ps(s, s.make_mask(0x3F));
  expect_schwarz_bitwise(ps);
}

// The three phases of an apply (ghost exchange, local solves incl. the
// reverse exchange, coarse solve) carry their own timers, and together
// they account for nearly all of schwarz/apply.
TEST(SchwarzTiming, PhaseTimersCoverApply) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto spec = tsem::bump_channel_spec(tsem::linspace(0, 2, 4),
                                      tsem::linspace(0, 2, 2),
                                      tsem::linspace(0, 1, 2), 1.0, 1.0, 0.6,
                                      0.2);
  Space s(build_mesh(spec, 8));
  PressureSystem p(s, s.make_mask(0x3F));
  SchwarzOptions opt;
  const SchwarzPrecond prec(p, opt);
  const std::size_t n = p.nloc();
  auto pstar = random_vec(n, 79);
  p.remove_mean_plain(pstar.data());
  std::vector<double> g(n), dp(n);
  p.apply_E(pstar.data(), g.data());
  tsem::PressureSolveOptions sopt;
  sopt.tol = 1e-8;

  auto& reg = tsem::obs::MetricsRegistry::instance();
  reg.reset();
  const auto res = tsem::solve_pressure(
      p, [&](const double* r, double* z) { prec.apply(r, z); }, nullptr,
      g.data(), dp.data(), sopt);
  ASSERT_TRUE(res.cg.converged);
  const std::string apply = "time/pressure/solve/schwarz/apply";
  const auto& total = reg.histogram(apply);
  ASSERT_EQ(total.count(), res.precond_count);
  double children = 0.0;
  for (const char* child : {"exchange", "local", "coarse"}) {
    const auto& h = reg.histogram(apply + "/" + child);
    EXPECT_EQ(h.count(), res.precond_count) << child;
    children += h.sum();
  }
  EXPECT_GE(children, 0.9 * total.sum())
      << "children " << children << " s of " << total.sum() << " s";
}

}  // namespace
