// Fig 6: coarse-grid solve time versus processor count on the simulated
// ASCI-Red for the 63x63 (n = 3969) and 127x127 (n = 16129) five-point
// Poisson problems.
//
// Methods (all numerically real; see solver/coarse.hpp):
//   XXT              — sparse A0-conjugate factorization; solve = local
//                      sparse mat-vecs + measured fan-in/fan-out tree.
//   redundant LU     — allgather b, every rank back-solves a banded
//                      Cholesky redundantly.
//   distributed Ainv — rows of A^{-1} distributed; allgather b + local
//                      dense row-block product.
//   latency*2logP    — the paper's lower-bound curve.
//
// Two tiers in the BENCH JSON (DESIGN.md measured vs modeled):
//   "measured"     — P <= pmax (default 256): the XXT factorization is
//                    actually computed at every P, its solve verified
//                    against banded LU, and the per-level fan-in words
//                    and per-rank nonzero loads taken from the factor's
//                    real column supports.  Only the clock (alpha, beta,
//                    flop rate) is modeled.
//   "extrapolated" — P > pmax up to 2048: the XXT schedule follows the
//                    analytic 2D separator bound (3 n^(1/2) words per
//                    level; bench/hairpin_model.hpp).  The LU and A^{-1}
//                    baselines are analytic at every P.
//   "executed"     — P = 2..pexec REAL forked rank processes (mp/): the
//                    same per-P factor's fan-in/fan-out tree walk runs
//                    over shared-memory channels, its result checked
//                    BITWISE against the single-process reference walk
//                    and within tolerance of banded LU, with the
//                    measured coarse-phase wall time in the JSON.
//
// Expected shape, as in the paper: XXT keeps improving to P ~ 16
// (n = 3969) / P ~ 256 (n = 16129) and then tracks the latency curve,
// while both baselines flatten much earlier at a far higher time.
//
// usage: bench_fig6_coarse [--pmax P] [--pexec P] [--sizes nx1,nx2,...]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/hairpin_model.hpp"
#include "common/timer.hpp"
#include "fem/fem.hpp"
#include "mp/dist_xxt.hpp"
#include "mp/runtime.hpp"
#include "obs/bench_report.hpp"
#include "sim/machine.hpp"
#include "solver/coarse.hpp"
#include "solver/xxt.hpp"

namespace {

using tsem::MachineParams;

tsem::obs::BenchReport g_report("fig6_coarse");

int log2i(int p) {
  int l = 0;
  while ((1 << l) < p) ++l;
  return l;
}

// Executed-tier XXT at P real forked ranks: run the distributed tree
// walk `reps` times over shm channels, verify it bitwise against the
// single-process reference walk and against the banded-LU solution, and
// record the measured coarse-phase wall time.
void run_executed_xxt(const tsem::XxtSolver& xxt, int n, int p,
                      const std::vector<double>& b,
                      const std::vector<double>& lu_ref,
                      tsem::obs::Json& c) {
  using tsem::mp::Phase;
  tsem::mp::DistXxtPlan plan = tsem::mp::build_dist_xxt(xxt, p);
  std::vector<double> ref(static_cast<std::size_t>(n));
  tsem::mp::dist_xxt_reference(plan, b.data(), ref.data());

  tsem::mp::MpOptions mopt;
  mopt.nranks = p;
  tsem::mp::MpSession session(mopt);
  plan.attach_channels(session);
  double* b_sh = session.shared_doubles(static_cast<std::size_t>(n));
  double* out_sh = session.shared_doubles(static_cast<std::size_t>(n));
  std::memcpy(b_sh, b.data(), b.size() * sizeof(double));

  const int reps = 5;
  std::string err;
  const bool ok = session.run(
      [&](tsem::mp::MpRank& ctx) {
        tsem::mp::XxtScratch scratch;
        for (int it = 0; it < reps; ++it) {
          tsem::Timer t;
          if (!tsem::mp::dist_xxt_solve(plan, ctx.rank(), ctx, b_sh, out_sh,
                                        scratch))
            return 1;
          ctx.phase_add(Phase::Coarse, t.seconds());
          if (!ctx.barrier()) return 1;  // keep reps in lockstep
        }
        return 0;
      },
      &err);
  if (!ok) std::printf("# WARNING: executed xxt P=%d failed: %s\n", p,
                       err.c_str());
  const bool bitwise =
      ok && std::memcmp(ref.data(), out_sh,
                        static_cast<std::size_t>(n) * sizeof(double)) == 0;
  double lu_err = 0.0;
  if (ok)
    for (int i = 0; i < n; ++i)
      lu_err = std::max(lu_err, std::fabs(lu_ref[static_cast<std::size_t>(i)] -
                                          out_sh[i]));
  const double sec = session.phase_max_seconds(Phase::Coarse) / reps;
  std::printf("# executed P=%d: coarse solve %.3es/solve, bitwise=%d, "
              "max |exec - bandedLU| = %.2e\n", p, sec, bitwise ? 1 : 0,
              lu_err);
  c["tier"] = "executed";
  c["n"] = n;
  c["nodes"] = p;
  c["reps"] = reps;
  c["exec_seconds_coarse"] = sec;
  c["bitwise_vs_reference"] = bitwise;
  c["xxt_err_vs_lu"] = lu_err;
  tsem::obs::Json words = tsem::obs::Json::array();
  for (auto w : plan.level_max_words) words.push_back(w);
  c["xxt_level_words_executed"] = words;
}

void run_size(int nx, const MachineParams& mach, bool verify_inverse,
              int pmax, int pexec) {
  const int n = nx * nx;
  const auto a = tsem::poisson5(nx, nx);
  std::vector<double> x(n), y(n), z;
  for (int j = 0; j < nx; ++j)
    for (int i = 0; i < nx; ++i) {
      x[j * nx + i] = i;
      y[j * nx + i] = j;
    }

  // ---- numeric cross-validation of the three backends ----
  tsem::RedundantLuCoarse lu(a);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> b(n), s1(n), s2(n);
  for (auto& v : b) v = dist(rng);
  lu.solve(b.data(), s1.data());
  {
    const auto nd = tsem::nested_dissection(a, x, y, z, 4);
    tsem::XxtSolver xxt(a, nd);
    xxt.solve(b.data(), s2.data());
    double err = 0.0;
    for (int i = 0; i < n; ++i) err = std::max(err, std::fabs(s1[i] - s2[i]));
    std::printf("# n=%d: max |xxt - bandedLU| = %.2e\n", n, err);
  }
  if (verify_inverse) {
    tsem::DistributedInvCoarse inv(a);
    inv.solve(b.data(), s2.data());
    double err = 0.0;
    for (int i = 0; i < n; ++i) err = std::max(err, std::fabs(s1[i] - s2[i]));
    std::printf("# n=%d: max |Ainv - bandedLU| = %.2e\n", n, err);
  } else {
    std::printf("# n=%d: distributed-A^{-1} numerics verified at n=3969; "
                "timing modeled here (O(n^2) rows)\n", n);
  }

  std::printf("#\n# n = %d coarse-grid solve time (s) on %s "
              "(measured to P=%d, extrapolated beyond)\n", n, mach.name,
              pmax);
  std::printf("%6s %12s %12s %12s %12s\n", "P", "XXT", "redundantLU",
              "distribAinv", "latency2logP");

  const double lu_flops = lu.solve_flops();
  for (int p = 1; p <= 2048; p *= 2) {
    const bool measured = p <= pmax;
    const int lev = log2i(p);
    double t_xxt = 0.0;
    double err = 0.0;
    std::unique_ptr<tsem::XxtSolver> xxt;
    if (measured) {
      // XXT at this processor count: 2^log2(P) leaf subdomains, really
      // factored; correctness checked at every P.
      const auto nd = tsem::nested_dissection(a, x, y, z, lev);
      xxt = std::make_unique<tsem::XxtSolver>(a, nd);
      xxt->solve(b.data(), s2.data());
      for (int i = 0; i < n; ++i)
        err = std::max(err, std::fabs(s1[i] - s2[i]));
      if (err > 1e-6)
        std::printf("# WARNING: xxt mismatch %g at P=%d\n", err, p);
      t_xxt =
          mach.compute_time(4.0 * static_cast<double>(xxt->max_leaf_nnz())) +
          tsem::tree_fan_time(mach, xxt->level_msg_words().data(),
                              xxt->nlevels());
    } else {
      t_xxt = tsem::hairpin::analytic_coarse_time(n, 2, mach, p);
    }
    const double t_lu =
        tsem::allgather_time(mach, p, n) + mach.compute_time(lu_flops);
    const double t_inv = tsem::allgather_time(mach, p, n) +
                         mach.compute_time(2.0 * n * (static_cast<double>(n) / p));
    const double t_lat = tsem::latency_bound(mach, p);
    std::printf("%6d %12.3e %12.3e %12.3e %12.3e\n", p, t_xxt, t_lu, t_inv,
                t_lat);
    char label[48];
    std::snprintf(label, sizeof(label), "n%d/P%d", n, p);
    tsem::obs::Json& c = g_report.add_case(label);
    c["tier"] = measured ? "measured" : "extrapolated";
    c["n"] = n;
    c["nodes"] = p;
    c["sim_seconds_xxt"] = t_xxt;
    c["sim_seconds_redundant_lu"] = t_lu;
    c["sim_seconds_distrib_ainv"] = t_inv;
    c["sim_seconds_latency_bound"] = t_lat;
    if (measured) {
      c["xxt_nnz"] = xxt->nnz();
      c["xxt_msg_words"] = xxt->total_msg_words();
      c["xxt_max_leaf_nnz"] = xxt->max_leaf_nnz();
      c["xxt_err_vs_lu"] = err;
      tsem::obs::Json words = tsem::obs::Json::array();
      for (auto w : xxt->level_msg_words()) words.push_back(w);
      c["xxt_level_words"] = words;
    }
    if (measured && p >= 2 && p <= pexec) {
      std::snprintf(label, sizeof(label), "n%d/P%d/executed", n, p);
      tsem::obs::Json& ec = g_report.add_case(label);
      run_executed_xxt(*xxt, n, p, b, s1, ec);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  int pmax = 256;
  int pexec = 4;
  std::vector<int> sizes = {63, 127};
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--pmax")) {
      pmax = std::atoi(next("--pmax"));
    } else if (!std::strcmp(argv[i], "--pexec")) {
      pexec = std::atoi(next("--pexec"));
    } else if (!std::strcmp(argv[i], "--sizes")) {
      sizes.clear();
      for (char* tok = std::strtok(const_cast<char*>(next("--sizes")), ",");
           tok; tok = std::strtok(nullptr, ","))
        sizes.push_back(std::atoi(tok));
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      std::exit(2);
    }
  }

  const auto mach = MachineParams::asci_red(false, false);
  std::printf("# Fig 6 reproduction: coarse-grid solvers on simulated "
              "ASCI-Red (alpha=%.0fus, %g MB/s, %g MF/s)\n",
              mach.alpha * 1e6, 8.0 / mach.beta / 1e6, mach.flop_rate / 1e6);
  g_report.meta()["figure"] = "Fig 6";
  g_report.meta()["machine"] = mach.name;
  g_report.meta()["pmax_measured"] = pmax;
  if (pexec > pmax) pexec = pmax;
  g_report.meta()["pexec"] = pexec;
  tsem::Timer t;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    run_size(sizes[i], mach, i == 0, pmax, pexec);
  const double wall = t.seconds();
  std::printf("# total bench wall time: %.1fs\n", wall);
  g_report.meta()["wall_seconds"] = wall;
  g_report.write();
  return 0;
}
