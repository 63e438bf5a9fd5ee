// Operator throughput sweep: per-kernel GF/s of every OpenMP-parallel
// element-loop hot path (stiffness, gradient, fused convection, filter,
// dealiased convection, Schwarz apply) across thread counts.
//
// This is the scaling companion to bench_table3_mxm: where Table 3
// measures the serial mxm kernels underneath, this bench measures the
// element loops above them, and the t4/t1 speedup column is the direct
// check on the workspace-arena parallelization (ISSUE PR 3).
//
// Output: BENCH_operator_throughput.json (terasem-bench-1), one case per
// kernel x thread count named "<kernel>/t<threads>" with wall_seconds,
// reps, gflops and speedup_vs_1t.
//
// Usage: bench_operator_throughput [--nx N] [--order P] [--reps R]
//                                  [--threads 1,2,4]
// Default: 8x8x8 box (512 elements), order 7, reps 5, threads 1,2,4.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/timer.hpp"
#include "core/dealias.hpp"
#include "core/flops.hpp"
#include "core/operators.hpp"
#include "core/pressure.hpp"
#include "core/space.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "obs/bench_report.hpp"
#include "poly/filter.hpp"
#include "solver/schwarz.hpp"
#include "tensor/kernels_simd.hpp"
#include "tensor/mxm.hpp"

namespace {

using tsem::Space;
using tsem::TensorWork;

struct Config {
  int nx = 8;
  int order = 7;
  int reps = 5;
  std::vector<int> threads = {1, 2, 4};
};

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--nx")) {
      cfg.nx = std::atoi(next("--nx"));
    } else if (!std::strcmp(argv[i], "--order")) {
      cfg.order = std::atoi(next("--order"));
    } else if (!std::strcmp(argv[i], "--reps")) {
      cfg.reps = std::atoi(next("--reps"));
    } else if (!std::strcmp(argv[i], "--threads")) {
      cfg.threads.clear();
      for (const char* tok = std::strtok(next("--threads"), ","); tok;
           tok = std::strtok(nullptr, ","))
        cfg.threads.push_back(std::atoi(tok));
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (cfg.nx < 1 || cfg.order < 3 || cfg.reps < 1 || cfg.threads.empty()) {
    std::fprintf(stderr, "bad configuration\n");
    std::exit(2);
  }
  return cfg;
}

void set_threads(int nt) {
#ifdef _OPENMP
  omp_set_num_threads(nt);
#else
  (void)nt;
#endif
}

struct Kernel {
  const char* name;
  double flops_per_rep;  // modeled, for the GF/s column
  std::function<void()> run;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);

  auto spec = tsem::box_spec_3d(tsem::linspace(0, 1, cfg.nx),
                                tsem::linspace(0, 1, cfg.nx),
                                tsem::linspace(0, 1, cfg.nx));
  Space s(tsem::build_mesh(spec, cfg.order));
  const auto& m = s.mesh();
  const std::size_t nl = s.nlocal();
  const int n1 = m.n1d();

  std::vector<double> u(nl), v0(nl), v1(nl), v2(nl);
  for (std::size_t i = 0; i < nl; ++i) {
    u[i] = 0.3 * m.x[i] + m.y[i] * m.z[i];
    v0[i] = 1.0 + 0.1 * m.x[i];
    v1[i] = 0.5 - 0.2 * m.y[i];
    v2[i] = 0.25 * m.z[i];
  }
  const double* vel[3] = {v0.data(), v1.data(), v2.data()};
  std::vector<double> out(nl), gx(nl), gy(nl), gz(nl), filt(nl);
  double* grad[3] = {gx.data(), gy.data(), gz.data()};
  const auto fmat = tsem::filter_matrix(m.order, 0.1);

  tsem::DealiasedConvection dc(m);
  tsem::PressureSystem psys(s, s.make_mask(0x3Fu));
  tsem::SchwarzPrecond schwarz(psys, tsem::SchwarzOptions{});
  const std::size_t np = psys.nloc();
  std::vector<double> pr(np), pz(np);
  for (std::size_t i = 0; i < np; ++i)
    pr[i] = 0.1 + 0.9 * static_cast<double>(i % 17) / 17.0;

  TensorWork work;
  const double ta = tsem::tensor_apply_flops(n1, n1, m.dim) * m.nelem;
  const double pointwise = static_cast<double>(nl);
  const Kernel kernels[] = {
      {"stiffness", tsem::stiffness_flops(m),
       [&] { tsem::apply_stiffness_local(m, u.data(), out.data(), work); }},
      {"gradient", 3 * ta + 2.0 * m.dim * m.dim * pointwise,
       [&] { tsem::gradient_local(m, u.data(), grad, work); }},
      {"convect", tsem::convection_flops(m),
       [&] { tsem::convect_local(m, vel, u.data(), out.data(), work); }},
      {"filter", 3 * ta,
       [&] {
         std::copy(u.begin(), u.end(), filt.begin());
         tsem::apply_filter_local(m, fmat, filt.data(), work);
       }},
      {"dealias", tsem::convection_flops(m),  // collocation-grid proxy
       [&] { dc.apply(vel, u.data(), out.data(), work); }},
      {"schwarz", schwarz.local_flops_per_apply(),
       [&] { schwarz.apply(pr.data(), pz.data()); }},
  };

  tsem::obs::BenchReport report("operator_throughput");
  report.meta()["nelem"] = m.nelem;
  report.meta()["order"] = cfg.order;
  report.meta()["dim"] = m.dim;
  report.meta()["nl"] = static_cast<std::int64_t>(nl);
  report.meta()["reps"] = cfg.reps;
#ifdef _OPENMP
  report.meta()["omp"] = true;
  report.meta()["omp_max_threads"] = omp_get_max_threads();
#else
  report.meta()["omp"] = false;
  report.meta()["omp_max_threads"] = 1;
#endif
  // SIMD/dispatch provenance: the element loops here all bottom out in
  // the dispatched mxm kernels, so record which kernels mxm()/mxm_bt()
  // run at this order (every order's choice is in the mxm_dispatch
  // event).
  report.meta()["simd_compiled"] = tsem::simd_compiled();
  report.meta()["simd_available"] = tsem::simd_available();
  report.meta()["isa"] = tsem::simd_isa_name();
  report.meta()["isa_runtime"] = tsem::mxm_isa_runtime_name();
  report.meta()["mxm_small"] = tsem::mxm_selected_name(n1, n1, n1);
  report.meta()["mxm_long"] = tsem::mxm_selected_name(n1, n1, n1 * n1);
  report.meta()["mxm_bt"] = tsem::mxm_bt_selected_name();
  tsem::mxm_emit_dispatch_event();
  {
    tsem::obs::Json tj = tsem::obs::Json::array();
    for (int t : cfg.threads) tj.push_back(t);
    report.meta()["threads"] = std::move(tj);
  }

  std::printf("# operator throughput: %d elements, order %d, nl = %zu\n",
              m.nelem, cfg.order, nl);
  std::printf("%-10s %8s %12s %10s %12s\n", "kernel", "threads",
              "wall_s/rep", "GF/s", "speedup_t1");

  std::map<std::string, double> t1_wall;
  for (const Kernel& k : kernels) {
    for (int nt : cfg.threads) {
      set_threads(nt);
      k.run();  // warm: populate per-thread arena slabs, touch caches
      tsem::Timer timer;
      for (int r = 0; r < cfg.reps; ++r) k.run();
      const double wall = timer.seconds() / cfg.reps;
      if (nt == cfg.threads.front()) t1_wall[k.name] = wall;
      const double speedup = t1_wall[k.name] / wall;
      const double gflops = k.flops_per_rep / wall / 1e9;

      tsem::obs::Json& c =
          report.add_case(std::string(k.name) + "/t" + std::to_string(nt));
      c["kernel"] = k.name;
      c["threads"] = nt;
      c["wall_seconds"] = wall;
      c["reps"] = cfg.reps;
      c["gflops"] = gflops;
      c["speedup_vs_1t"] = speedup;
      std::printf("%-10s %8d %12.3e %10.2f %12.2f\n", k.name, nt, wall,
                  gflops, speedup);
    }
  }
  set_threads(cfg.threads.front());
  report.write();
  return 0;
}
