// hairpin3d: Fig 8's impulsively started 3D flow over a bump (the problem
// and NsOptions of bench_fig8_hairpin), stepped 26 steps per repetition
// with the default OpenMP team.  Repetitions run back to back, each from a
// fresh mesh, Space and NavierStokes, until the run's seconds are spent.
// run.py starts one process per untraced repetition, so every repetition
// pays (and samples) the run-dependent mxm tuner choice a user gets.
//
// Traced runs add spans around every step and, on the state left by the
// last repetition, replay each layer's public entry points at 1 thread and
// at the default team to price one call of each.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "replay.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"
#include "obs/metrics.hpp"
#include "solver/coarse.hpp"
#include "solver/schwarz.hpp"
#include "tensor/mxm.hpp"

namespace terabench {
namespace {

constexpr int kSteps = 26;
constexpr int kOrder = 7;
constexpr double kReynolds = 1600.0;
constexpr double kDt = 0.015;

/// ||D u||_2 after every step must stay below this.  The solve tolerance
/// is relative (pres_tol 1e-5 of the rhs norm); observed values sit near
/// 1e-5 after the first steps.
constexpr double kDivergenceBound = 1e-3;
/// Kinetic energy after 26 steps (Release build, x86-64 with AVX-512).
/// Seeds 1-5 give 19.369822-19.369827: the seeded perturbation moves it
/// by ~3e-7 relative and the run-dependent mxm rounding by far less.
constexpr double kReferenceEnergy = 19.369825;
constexpr double kEnergyRelTol = 1e-4;

struct Problem {
  tsem::NsOptions opt;
  std::uint32_t dirichlet = 0;
  tsem::MeshSpec3D spec;
};

Problem make_problem() {
  Problem p;
  p.spec = tsem::bump_channel_spec(tsem::linspace(0, 8, 6),
                                   tsem::linspace(0, 4, 3),
                                   {0.0, 0.4, 1.0, 2.0}, 2.5, 2.0, 0.8, 0.3);
  p.spec.periodic_y = true;
  p.opt.dt = kDt;
  p.opt.viscosity = 1.0 / kReynolds;
  p.opt.filter_alpha = 0.1;
  p.opt.pres_tol = 1e-5;
  p.opt.proj_len = 20;
  p.opt.pressure_mean_free = false;
  p.dirichlet = (1u << tsem::kFaceXLo) | (1u << tsem::kFaceZLo) |
                (1u << tsem::kFaceZHi);
  return p;
}

/// Boundary-layer profile plus the seeded perturbation
/// eps * sin(pi x / 8) sin(pi z / 2) cos(pi y / 2 + phase), which vanishes
/// at the inflow, outflow and lid.
void set_initial(tsem::NavierStokes& ns, const tsem::Mesh& m, double eps,
                 double phase) {
  constexpr double kPi = 3.14159265358979323846;
  const double delta = 1.2 * 0.8;
  for (std::size_t i = 0; i < ns.space().nlocal(); ++i)
    ns.u(0)[i] = std::tanh(1.2 * m.z[i] / delta) +
                 eps * std::sin(kPi * m.x[i] / 8.0) *
                     std::sin(kPi * m.z[i] / 2.0) *
                     std::cos(kPi * m.y[i] / 2.0 + phase);
}

bool step_clean(const tsem::StepStats& st) {
  if (st.pressure_status != tsem::SolveStatus::Converged) return false;
  for (const auto s : st.helmholtz_status)
    if (s != tsem::SolveStatus::Converged) return false;
  return st.attempts == 1 && st.dt_halvings == 0 && !st.cfl_rejected &&
         !st.projection_flushed && !st.precond_fallback &&
         !st.nonfinite_field && !st.recovered && !st.failed;
}

std::int64_t counter(const char* name) {
  return tsem::obs::MetricsRegistry::instance().counter(name).value();
}

/// Replay every layer's entry point on the state `ns` was left in, at 1
/// thread and at the default team, and record the unit costs and the
/// shares of the traced step wall they explain.
void replay_layers(tsem::NavierStokes& ns, const tsem::Space& space,
                   const Problem& prob, Tracer& tr, Result& r,
                   double step_wall_total, double e_applies,
                   double schwarz_applies, double helm_applies,
                   std::int64_t gs_ops, std::int64_t gs_words, int nsteps) {
  const ScopedSpan replay(tr, "replay");
  const tsem::PressureSystem& ps = ns.pressure_system();
  const int nt = default_threads();
  const std::size_t nl = space.nlocal();
  const std::size_t np = ps.nloc();

  std::vector<double> p(ns.pressure()), ep(np), dp(np), z(np);
  std::array<std::vector<double>, 3> w;
  for (auto& wc : w) wc.assign(nl, 0.0);
  const double* u[3] = {ns.u(0).data(), ns.u(1).data(), ns.u(2).data()};
  double* wp[3] = {w[0].data(), w[1].data(), w[2].data()};

  const double t0 = now();
  const tsem::SchwarzPrecond schwarz(ps, prob.opt.schwarz);
  r.layer("solver.schwarz_setup_s", now() - t0);

  // BDF2 Helmholtz coefficients of the settled steps.
  const VelocityCosts vc = replay_velocity_ops(
      space, prob.opt.viscosity, 1.5 / prob.opt.dt,
      space.make_mask(prob.dirichlet), {u[0], u[1], u[2]}, tr, r);

  double e_ms[2] = {0, 0}, s_ms[2] = {0, 0};
  const int teams[2] = {1, nt};
  const char* tag[2] = {"1t", "nt"};
  for (int k = 0; k < 2; ++k) {
    set_threads(teams[k]);
    const ScopedSpan s(tr, std::string("replay.pressure.") + tag[k]);
    e_ms[k] = 1e3 * unit_cost([&] { ps.apply_E(p.data(), ep.data()); });
    r.layer(std::string("core.apply_E_ms_") + tag[k], e_ms[k]);
    r.layer(std::string("core.divergence_ms_") + tag[k],
            1e3 * unit_cost([&] { ps.divergence(u, dp.data()); }));
    r.layer(std::string("core.gradient_t_ms_") + tag[k],
            1e3 * unit_cost([&] { ps.gradient_t(p.data(), wp); }));
    s_ms[k] = 1e3 * unit_cost([&] { schwarz.apply(ep.data(), z.data()); });
    r.layer(std::string("solver.schwarz_apply_ms_") + tag[k], s_ms[k]);
  }
  set_threads(nt);
  r.layer("core.apply_E_speedup", e_ms[0] / e_ms[1]);
  r.layer("solver.schwarz_speedup", s_ms[0] / s_ms[1]);

  if (const tsem::CoarseSolver* cs = schwarz.coarse()) {
    std::vector<double> b(static_cast<std::size_t>(cs->n())), x(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.1 * i);
    r.layer("solver.xxt_solve_ms",
            1e3 * unit_cost([&] { cs->solve(b.data(), x.data()); }));
  }

  std::vector<double> g(ns.u(0));
  const double gs_ms = 1e3 * unit_cost([&] { space.gs().op(g.data()); });
  r.layer("gs.op_ms", gs_ms);
  r.layer("gs.ops_per_step", static_cast<double>(gs_ops) / nsteps);
  r.layer("gs.words_per_step", static_cast<double>(gs_words) / nsteps);
  // Computed bytes: every gathered word is read and written once per op.
  const double words_per_op =
      gs_ops > 0 ? static_cast<double>(gs_words) / gs_ops : 0.0;
  r.layer("gs.computed_gbps", 16.0 * words_per_op / (gs_ms * 1e-3) / 1e9);

  replay_mxm(kOrder, r);

  // Share of the traced step wall that count x unit cost explains, at the
  // default team.  Convection (OIFS sub-steps are not exposed), projection
  // and vector updates are not priced, so the remainder is theirs.
  const double explained = 1e-3 * (e_applies * e_ms[1] +
                                   schwarz_applies * s_ms[1] +
                                   helm_applies * vc.helmholtz_ms[1]);
  const double pressure = 1e-3 * (e_applies * e_ms[1] +
                                  schwarz_applies * s_ms[1]);
  r.layer("ns.coverage", explained / step_wall_total);
  r.layer("solver.pressure_share", pressure / step_wall_total);
}

}  // namespace

Result run_hairpin(const Args& a, Tracer& tr) {
  Result r;
  std::mt19937 rng(a.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const double eps = 5e-4 + 5e-4 * uni(rng);
  const double phase = 2.0 * 3.14159265358979323846 * uni(rng);
  r.inputs["seed"] = static_cast<std::int64_t>(a.seed);
  r.inputs["perturbation_amplitude"] = eps;
  r.inputs["perturbation_phase"] = phase;
  r.inputs["steps_per_repetition"] = kSteps;
  r.inputs["order"] = kOrder;
  r.inputs["reynolds"] = kReynolds;
  r.inputs["threads"] = default_threads();

  const Problem prob = make_problem();
  const double t_start = now();
  int rep = 0;
  double step_wall_total = 0.0, e_applies = 0.0, helm_applies = 0.0;
  std::int64_t schwarz0 = 0, gs_ops0 = 0, gs_words0 = 0;
  int traced_steps = 0;
  for (bool more = true; more; ++rep) {
    tr.set_run(rep);
    const ScopedSpan run_span(tr, "hairpin.run");
    const double t0 = now();
    std::unique_ptr<tsem::Space> space;
    std::unique_ptr<tsem::NavierStokes> ns;
    {
      const ScopedSpan s(tr, "setup");
      // The mxm tuner runs once per process, on first use; calling it here
      // keeps that cost in setup rather than in whichever call is first.
      const double ta = now();
      tsem::mxm_autotune_init();
      if (rep == 0) r.layer("tensor.autotune_s", now() - ta);
      space = std::make_unique<tsem::Space>(tsem::build_mesh(prob.spec, kOrder));
      ns = std::make_unique<tsem::NavierStokes>(*space, prob.dirichlet,
                                                prob.opt);
      set_initial(*ns, space->mesh(), eps, phase);
    }
    const double t1 = now();
    if (tr.enabled()) {
      schwarz0 = counter("schwarz/applies");
      gs_ops0 = counter("gs/ops");
      gs_words0 = counter("gs/words");
      step_wall_total = e_applies = helm_applies = 0.0;
      traced_steps = 0;
    }
    int pits = 0, hits = 0;
    double div_max = 0.0;
    for (int n = 1; n <= kSteps; ++n) {
      const double s0 = now();
      tsem::StepStats st;
      {
        const ScopedSpan s(tr, "ns.step");
        st = ns->step();
      }
      const double dt_step = now() - s0;
      ++r.attempted;
      const bool clean = step_clean(st);
      const bool div_ok = st.divergence < kDivergenceBound;
      if (!clean || !div_ok) ++r.failed;
      r.check(clean, "step " + std::to_string(n) + " took a resilience rung "
                         "or did not converge");
      r.check(div_ok, "step " + std::to_string(n) + " ||Du|| " +
                          std::to_string(st.divergence) + " over bound");
      pits += st.pressure_iters;
      div_max = std::max(div_max, st.divergence);
      const int hmax = std::max({st.helmholtz_iters[0], st.helmholtz_iters[1],
                                 st.helmholtz_iters[2]});
      hits += st.helmholtz_iters[0] + st.helmholtz_iters[1] +
              st.helmholtz_iters[2];
      r.sample("ns.step_ms", 1e3 * dt_step);
      if (tr.enabled()) {
        step_wall_total += dt_step;
        // pcg: one E apply for the initial residual, one per iteration,
        // one more to fold the solution into the projection basis.
        e_applies += st.pressure_iters + 2;
        helm_applies += hmax + 1;  // fused apply_multi per iteration + r0
        ++traced_steps;
      }
    }
    const double t2 = now();
    const double ke = ns->kinetic_energy();
    r.sample("setup_s", t1 - t0);
    r.sample("solve_s", t2 - t1);
    r.sample("makespan_s", t2 - t0);
    r.sample("exec_step_s", (t2 - t1) / kSteps);
    r.sample("exec_step_overlapped_s", (t2 - t1) / kSteps);
    r.sample("ns.pressure_iters", pits);
    r.sample("ns.helmholtz_iters", hits);
    r.sample("kinetic_energy", ke);
    r.sample("divergence_max", div_max);
    r.check(std::fabs(ke - kReferenceEnergy) <=
                kEnergyRelTol * kReferenceEnergy,
            "kinetic energy " + std::to_string(ke) + " off reference");

    // A traced run keeps going until it has 100+ steps, so the step-time
    // tail is a p90 with ten steps beyond it.
    more = now() - t_start < a.seconds ||
           (tr.enabled() && (rep + 1) * kSteps < 100);
    if (tr.enabled() && !more) {
      replay_layers(*ns, *space, prob, tr, r, step_wall_total, e_applies,
                    static_cast<double>(counter("schwarz/applies") - schwarz0),
                    helm_applies, counter("gs/ops") - gs_ops0,
                    counter("gs/words") - gs_words0, traced_steps);
    }
  }
  r.sample("peak_rss_mb", peak_rss_mb(false));
  return r;
}

}  // namespace terabench
