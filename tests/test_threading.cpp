// Thread-count invariance and steady-state allocation tests for the
// OpenMP-parallel element-loop hot paths.
//
// Every parallel element loop in the library uses schedule(static) and
// writes only its own element's [e*npe, (e+1)*npe) block (or a private
// arena slab), so results must be BITWISE identical at any thread count
// — verified here with memcmp between 1-thread and 4-thread runs.  The
// fused convection kernel is additionally checked against an unfused
// gradient + dot-product reference (EXPECT_NEAR: FMA contraction makes
// that comparison tolerance-based, not bitwise).
//
// The same NS case is also run in freshly exec'd processes at 1 and 4
// threads and must land on one state_digest: nothing that picks kernels
// or roundings may differ between processes of the same build.
//
// The file also overrides global operator new/delete with a counting
// allocator to prove NavierStokes::step performs zero heap allocations
// for field-length temporaries once the persistent scratch is warm.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/dealias.hpp"
#include "core/operators.hpp"
#include "core/pressure.hpp"
#include "core/space.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"
#include "poly/filter.hpp"
#include "solver/schwarz.hpp"
#include "tensor/workspace.hpp"

// ---------------------------------------------------------------------
// Counting allocator: when g_track is set, every global allocation of at
// least g_threshold bytes bumps g_hits.  Malloc-backed so the overrides
// stay trivially correct; the sized/array delete forms forward to the
// unsized one, which stays out of line: inlined, gcc would pair the free
// with the operator new call it can see and warn of a mismatch.
// ---------------------------------------------------------------------
static std::atomic<bool> g_track{false};
static std::atomic<long> g_hits{0};
static std::atomic<std::size_t> g_threshold{0};

void* operator new(std::size_t n) {
  if (g_track.load(std::memory_order_relaxed) &&
      n >= g_threshold.load(std::memory_order_relaxed))
    g_hits.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using tsem::build_mesh;
using tsem::Space;
using tsem::TensorWork;

Space box3d(int k, int order) {
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 1, k),
                                tsem::linspace(0, 1, k),
                                tsem::linspace(0, 1, k));
  return Space(build_mesh(spec, order));
}

std::vector<double> smooth_field(const tsem::Mesh& m, int which) {
  std::vector<double> u(m.nlocal());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double x = m.x[i], y = m.y[i];
    const double z = m.dim == 3 ? m.z[i] : 0.0;
    switch (which) {
      case 0: u[i] = std::sin(3 * x) * std::cos(2 * y) + 0.3 * z; break;
      case 1: u[i] = std::cos(x + 2 * y) * (1.0 + 0.5 * z * z); break;
      default: u[i] = x * y + std::sin(z + x); break;
    }
  }
  return u;
}

/// Run `body` with the OpenMP thread count forced to `nt`, restoring the
/// previous setting afterwards.  Without OpenMP this is a plain call.
template <class F>
void with_threads(int nt, F&& body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(nt);
  body();
  omp_set_num_threads(saved);
#else
  (void)nt;
  body();
#endif
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------
// Workspace arena unit behavior.
// ---------------------------------------------------------------------

TEST(Workspace, GrowsMonotonicallyAndKeepsPointerOnReuse) {
  tsem::Workspace ws;
  double* p1 = ws.get(64);
  double* p2 = ws.get(32);  // smaller request reuses the same slab
  EXPECT_EQ(p1, p2);
  for (int i = 0; i < 64; ++i) p1[i] = i;
  (void)ws.get(64);
  EXPECT_EQ(p1[63], 63.0);  // non-growing get preserves contents
}

// Every slab the arena hands out is cache-line / AVX-512 aligned so the
// SIMD mxm kernels can assume at least 64-byte alignment for their
// staging buffers (workspace.hpp kAlign).
TEST(Workspace, SlabsAre64ByteAligned) {
  static_assert(tsem::Workspace::kAlign == 64);
  tsem::Workspace ws;
  // Odd sizes force re-allocations; alignment must hold through growth.
  for (std::size_t n : {1u, 7u, 63u, 64u, 65u, 1000u, 4097u}) {
    double* p = ws.get(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % tsem::Workspace::kAlign,
              0u)
        << "slab of " << n << " doubles misaligned";
  }
}

TEST(Workspace, ThreadsReceiveDistinctSlabs) {
#ifdef _OPENMP
  tsem::Workspace ws;
  constexpr int kThreads = 4;
  double* ptrs[kThreads] = {nullptr, nullptr, nullptr, nullptr};
  with_threads(kThreads, [&] {
#pragma omp parallel num_threads(kThreads)
    {
      const int tid = omp_get_thread_num();
      double* p = ws.get(128);
      p[0] = tid;  // touch: a shared slab would race/overwrite
      ptrs[tid] = p;
    }
  });
  std::set<double*> uniq;
  for (double* p : ptrs)
    if (p) uniq.insert(p);
  // However many threads the runtime actually provided, every slab
  // handed out must be distinct.
  int provided = 0;
  for (double* p : ptrs)
    if (p) ++provided;
  EXPECT_EQ(static_cast<int>(uniq.size()), provided);
  EXPECT_GE(ws.slabs_in_use(), 1);
#else
  GTEST_SKIP() << "compiled without OpenMP";
#endif
}

// ---------------------------------------------------------------------
// Bitwise thread-count invariance of every parallelized element loop.
// ---------------------------------------------------------------------

TEST(ThreadInvariance, StiffnessGradientConvectFilter3D) {
  Space s = box3d(2, 6);
  const auto& m = s.mesh();
  const std::size_t nl = s.nlocal();
  const auto u = smooth_field(m, 0);
  const auto v0 = smooth_field(m, 0);
  const auto v1 = smooth_field(m, 1);
  const auto v2 = smooth_field(m, 2);
  const double* vel[3] = {v0.data(), v1.data(), v2.data()};
  const auto fmat = tsem::filter_matrix(m.order, 0.1);

  struct Result {
    std::vector<double> stiff, gx, gy, gz, conv, filt;
  };
  auto run = [&]() {
    Result r;
    TensorWork work;  // fresh arena per run: slab layout can't leak over
    r.stiff.assign(nl, 0.0);
    tsem::apply_stiffness_local(m, u.data(), r.stiff.data(), work);
    r.gx.assign(nl, 0.0);
    r.gy.assign(nl, 0.0);
    r.gz.assign(nl, 0.0);
    double* grad[3] = {r.gx.data(), r.gy.data(), r.gz.data()};
    tsem::gradient_local(m, u.data(), grad, work);
    r.conv.assign(nl, 0.0);
    tsem::convect_local(m, vel, u.data(), r.conv.data(), work);
    r.filt = u;
    tsem::apply_filter_local(m, fmat, r.filt.data(), work);
    return r;
  };

  Result serial, threaded;
  with_threads(1, [&] { serial = run(); });
  with_threads(4, [&] { threaded = run(); });
  EXPECT_TRUE(bitwise_equal(serial.stiff, threaded.stiff));
  EXPECT_TRUE(bitwise_equal(serial.gx, threaded.gx));
  EXPECT_TRUE(bitwise_equal(serial.gy, threaded.gy));
  EXPECT_TRUE(bitwise_equal(serial.gz, threaded.gz));
  EXPECT_TRUE(bitwise_equal(serial.conv, threaded.conv));
  EXPECT_TRUE(bitwise_equal(serial.filt, threaded.filt));
}

TEST(ThreadInvariance, StiffnessDiagonal3D) {
  Space s = box3d(2, 5);
  std::vector<double> serial, threaded;
  with_threads(1, [&] { serial = tsem::stiffness_diagonal_local(s.mesh()); });
  with_threads(4,
               [&] { threaded = tsem::stiffness_diagonal_local(s.mesh()); });
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

TEST(ThreadInvariance, DealiasedConvection3D) {
  Space s = box3d(2, 5);
  const auto& m = s.mesh();
  const std::size_t nl = s.nlocal();
  const auto u = smooth_field(m, 0);
  const auto v0 = smooth_field(m, 1);
  const auto v1 = smooth_field(m, 2);
  const auto v2 = smooth_field(m, 0);
  const double* vel[3] = {v0.data(), v1.data(), v2.data()};
  tsem::DealiasedConvection dc(m);

  auto run = [&](std::vector<double>& out) {
    TensorWork work;
    out.assign(nl, 0.0);
    dc.apply(vel, u.data(), out.data(), work);
  };
  std::vector<double> serial, threaded;
  with_threads(1, [&] { run(serial); });
  with_threads(4, [&] { run(threaded); });
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

TEST(ThreadInvariance, SchwarzApply) {
  // 2D pressure system: exercises the FDM local-solve loop with ghost
  // exchange and the serial coarse correction.
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 3),
                                tsem::linspace(0, 1, 3));
  Space s(build_mesh(spec, 6));
  tsem::PressureSystem psys(s, s.make_mask(0xF));
  tsem::SchwarzOptions sopt;
  tsem::SchwarzPrecond sp(psys, sopt);

  const std::size_t np = psys.nloc();
  std::vector<double> r(np);
  for (std::size_t i = 0; i < np; ++i)
    r[i] = std::sin(0.37 * static_cast<double>(i) + 0.2);

  std::vector<double> serial(np), threaded(np);
  with_threads(1, [&] { sp.apply(r.data(), serial.data()); });
  with_threads(4, [&] { sp.apply(r.data(), threaded.data()); });
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

// ---------------------------------------------------------------------
// Fused convection kernel vs the unfused gradient + dot reference.
// ---------------------------------------------------------------------

TEST(Convection, FusedMatchesGradientDotReference) {
  Space s = box3d(2, 6);
  const auto& m = s.mesh();
  const std::size_t nl = s.nlocal();
  const auto u = smooth_field(m, 0);
  const auto v0 = smooth_field(m, 1);
  const auto v1 = smooth_field(m, 2);
  const auto v2 = smooth_field(m, 0);
  const double* vel[3] = {v0.data(), v1.data(), v2.data()};

  TensorWork work;
  std::vector<double> conv(nl);
  tsem::convect_local(m, vel, u.data(), conv.data(), work);

  // Unfused reference: materialize the three gradient fields, then dot.
  std::vector<double> gx(nl), gy(nl), gz(nl);
  double* grad[3] = {gx.data(), gy.data(), gz.data()};
  tsem::gradient_local(m, u.data(), grad, work);
  for (std::size_t i = 0; i < nl; ++i) {
    const double ref = v0[i] * gx[i] + v1[i] * gy[i] + v2[i] * gz[i];
    // FMA contraction in the fused kernel makes this tolerance-based.
    EXPECT_NEAR(conv[i], ref, 1e-12 * (1.0 + std::fabs(ref)));
  }
}

// ---------------------------------------------------------------------
// Full time-stepper thread invariance and zero-allocation steady state.
// ---------------------------------------------------------------------

tsem::NsOptions ns_options() {
  tsem::NsOptions opt;
  opt.dt = 2e-3;
  opt.viscosity = 1e-2;
  opt.torder = 2;
  opt.proj_len = 4;
  opt.filter_alpha = 0.05;
  return opt;
}

void set_initial(tsem::NavierStokes& ns, const tsem::Mesh& m) {
  for (std::size_t i = 0; i < m.nlocal(); ++i) {
    const double x = m.x[i], y = m.y[i], z = m.z[i];
    const double bub = x * (1 - x) * y * (1 - y) * z * (1 - z);
    ns.u(0)[i] = 16.0 * bub * std::sin(3 * y);
    ns.u(1)[i] = 16.0 * bub * std::cos(2 * x + z);
    ns.u(2)[i] = 8.0 * bub;
  }
}

constexpr std::uint32_t kAllFaces = 0x3Fu;

/// The small 3D NS case: order 5 on a 2x2x2 box, 5 steps.
template <class F>
void run_small_ns(F&& done) {
  Space s = box3d(2, 5);
  tsem::NavierStokes ns(s, kAllFaces, ns_options());
  set_initial(ns, s.mesh());
  for (int n = 0; n < 5; ++n) ns.step();
  done(ns);
}

TEST(ThreadInvariance, NavierStokesStep) {
  auto run = [&](int nthreads, std::vector<double>* out) {
    with_threads(nthreads, [&] {
      run_small_ns([&](tsem::NavierStokes& ns) {
        out[0] = ns.u(0);
        out[1] = ns.u(1);
        out[2] = ns.u(2);
        out[3] = ns.pressure();
      });
    });
  };
  std::vector<double> serial[4], threaded[4];
  run(1, serial);
  run(4, threaded);
  for (int c = 0; c < 4; ++c)
    EXPECT_TRUE(bitwise_equal(serial[c], threaded[c])) << "field " << c;
}

// Child half of CrossProcess.NavierStokesDigestIsBitwiseReproducible:
// the parent re-executes this binary with only this test selected.
TEST(CrossProcess, DISABLED_PrintNavierStokesDigest) {
  run_small_ns([](const tsem::NavierStokes& ns) {
    std::printf("state_digest=%08x\n", ns.state_digest());
  });
}

/// A re-executed copy of this test binary running only the child test
/// above; its stdout comes back through `out`.
struct DigestChild {
  pid_t pid = -1;
  int out = -1;
};

/// Start the child as a fresh image (nothing inherited from this
/// process's state) with the environment stripped of every TSEM_* and
/// OMP_* variable, then OMP_NUM_THREADS=nthreads.
DigestChild start_digest_child(int nthreads) {
  const std::string filter =
      "--gtest_filter=CrossProcess.DISABLED_PrintNavierStokesDigest";
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("TSEM_", 0) != 0 && kv.rfind("OMP_", 0) != 0)
      env.push_back(kv);
  }
  env.push_back("OMP_NUM_THREADS=" + std::to_string(nthreads));
  // Everything exec needs is built before fork: the child only dup2s and
  // execs.
  char exe[] = "/proc/self/exe";
  char also[] = "--gtest_also_run_disabled_tests";
  std::vector<char*> argv = {exe, const_cast<char*>(filter.c_str()), also,
                             nullptr};
  std::vector<char*> envp;
  for (auto& kv : env) envp.push_back(kv.data());
  envp.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execve(exe, argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  return {pid, fds[0]};
}

/// Collect the child's "state_digest=xxxxxxxx" line, or "" when it did
/// not start, failed, or printed none.
std::string finish_digest_child(const DigestChild& c) {
  if (c.pid < 0) return "";
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::read(c.out, buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(c.out);
  int status = 0;
  while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return "";
  const auto at = out.find("state_digest=");
  return at == std::string::npos ? "" : out.substr(at, 21);
}

// Default-build reproducibility across processes and thread counts: four
// fresh processes (1 and 4 threads, twice each, no other TSEM_* or OMP_*
// variables) must produce one state_digest.  exec, not a bare fork: a forked child would
// inherit whatever this process already decided (kernel choices above
// all) and hide a per-process difference.
TEST(CrossProcess, NavierStokesDigestIsBitwiseReproducible) {
  // The four children run concurrently, the way ctest -j runs suites.
  const int threads[] = {1, 4, 1, 4};
  std::vector<DigestChild> children;
  for (int nt : threads) children.push_back(start_digest_child(nt));
  std::vector<std::string> digests;
  for (const auto& c : children) digests.push_back(finish_digest_child(c));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    ASSERT_FALSE(digests[i].empty())
        << "child at " << threads[i] << " threads printed no digest";
    EXPECT_EQ(digests[i], digests.front())
        << "child at " << threads[i] << " threads";
  }
}

TEST(Allocation, SteadyStateStepIsAllocationFree) {
  Space s = box3d(2, 6);  // nl = 8 * 343 = 2744, np = 8 * 125 = 1000
  tsem::NavierStokes ns(s, kAllFaces, ns_options());
  set_initial(ns, s.mesh());

  // Warm up: BDF ramp, operator caches, projection window fill AND one
  // basis restart (proj_len = 4), solver scratch high-water marks.
  for (int n = 0; n < 12; ++n) {
    auto st = ns.step();
    ASSERT_FALSE(st.failed);
  }

  // Count every allocation that could hold a field-length temporary:
  // min(nl, np) * sizeof(double) = 1000 * 8 = 8000 bytes.  Smaller
  // allocations (metrics nodes, the per-step JSON trace event at ~4.4 KB)
  // are outside the claim.
  g_threshold.store(8000);
  g_hits.store(0);
  g_track.store(true);
  for (int n = 0; n < 3; ++n) ns.step();
  g_track.store(false);
  EXPECT_EQ(g_hits.load(), 0)
      << "steady-state step allocated field-length temporaries";
}

}  // namespace
