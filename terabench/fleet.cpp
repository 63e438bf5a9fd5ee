// fleet_sweep: a 2D Taylor-Green Reynolds sweep through fleet::run_fleet,
// crossed with two orders (two setup-cache keys), dealiased, cache on, SJF
// scheduling, checkpoints on, concurrency = online cores, and the OpenMP
// environment exactly as the user left it.  Whole sweeps repeat back to
// back until the run's seconds are spent.
//
// This process must not enter an OpenMP region before run_fleet (workers
// fork from it), so every replay happens after the last sweep.
#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pressure.hpp"
#include "core/space.hpp"
#include "fleet/spec.hpp"
#include "fleet/supervisor.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "replay.hpp"
#include "solver/schwarz.hpp"
#include "tensor/mxm.hpp"

namespace terabench {
namespace {

constexpr int kOrderHi = 6;
constexpr int kOrderLo = 4;
constexpr int kMeshK = 4;
constexpr int kSteps = 2;
constexpr double kDt = 0.01;

/// Taylor-Green decays as KE(t) = pi^2 exp(-4 t / Re) on [0, 2 pi]^2;
/// the discrete energy at these orders and dt matches within this.
constexpr double kEnergyRelTol = 1e-3;
constexpr double kDivergenceBound = 1e-6;

}  // namespace

Result run_fleet_sweep(const Args& a, Tracer& tr) {
  Result r;
  const int conc = ncores();

  // Seeded inputs: one Reynolds number per core in [10, 60), in seeded
  // queue order (expansion keeps the axis order, so this IS the order).
  std::mt19937 rng(a.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  tsem::fleet::SweepSpec spec;
  spec.name = "terabench";
  for (int i = 0; i < conc; ++i)
    spec.reynolds.push_back(10.0 + 50.0 * (i + uni(rng)) / conc);
  std::shuffle(spec.reynolds.begin(), spec.reynolds.end(), rng);
  spec.order = {kOrderHi, kOrderLo};
  spec.base.mesh_k = kMeshK;
  spec.base.order = kOrderHi;
  spec.base.dt = kDt;
  spec.base.steps = kSteps;
  spec.base.checkpoint_every = 1;
  spec.base.dealias = true;
  spec.fleet.concurrency = conc;
  spec.fleet.cache = true;
  spec.fleet.scheduler = tsem::fleet::FleetOptions::Scheduler::Sjf;
  spec.fleet.workdir = a.outdir + "/fleet_work";

  tsem::obs::Json re = tsem::obs::Json::array();
  for (double v : spec.reynolds) re.push_back(v);
  r.inputs["seed"] = static_cast<std::int64_t>(a.seed);
  r.inputs["reynolds_queue_order"] = std::move(re);
  r.inputs["orders"] = tsem::obs::Json::array();
  r.inputs["orders"].push_back(kOrderHi);
  r.inputs["orders"].push_back(kOrderLo);
  r.inputs["mesh_k"] = kMeshK;
  r.inputs["steps"] = kSteps;
  r.inputs["concurrency"] = conc;

  std::int64_t completed = 0, quarantined = 0, retries = 0, hang_kills = 0;
  const double t_start = now();
  int rep = 0;
  for (bool more = true; more; ++rep) {
    tr.set_run(rep);
    tsem::fleet::FleetReport rpt;
    std::string err;
    double t0 = 0.0, t1 = 0.0;
    bool ok = false;
    {
      const ScopedSpan s(tr, "fleet.run");
      t0 = now();
      ok = tsem::fleet::run_fleet(spec, &rpt, &err);
      t1 = now();
      // Per-job occupancy intervals from the supervisor's event log.
      std::map<int, double> launched;
      for (const auto& ev : rpt.events) {
        if (ev.type == "launch") {
          launched[ev.job] = ev.t;
        } else if (launched.count(ev.job) &&
                   (ev.type == "complete" || ev.type == "crash" ||
                    ev.type == "hang_kill" || ev.type == "preempt" ||
                    ev.type == "torn_result")) {
          tr.add("fleet.job." + ev.type, t0 + launched[ev.job], t0 + ev.t);
          launched.erase(ev.job);
        }
      }
    }
    const std::int64_t njobs = static_cast<std::int64_t>(
        tsem::fleet::expand_sweep(spec).size());
    r.attempted += njobs;
    r.check(ok, "run_fleet failed: " + err);
    if (!ok) {
      r.failed += njobs;
      more = now() - t_start < a.seconds;
      continue;
    }

    double job_steps = 0.0, occupancy = 0.0;
    for (const auto& job : rpt.jobs) {
      occupancy += job.wall_seconds;
      if (!job.completed) {
        ++r.failed;
        r.check(false, "job " + job.spec.name + " not completed: " +
                           job.failure.substr(0, 200));
        continue;
      }
      const auto& res = job.result;
      const double t = res.steps_done * job.spec.dt;
      const double ke_exact =
          M_PI * M_PI * std::exp(-4.0 * t / job.spec.reynolds);
      const bool ke_ok =
          std::fabs(res.kinetic_energy - ke_exact) <= kEnergyRelTol * ke_exact;
      const bool div_ok = res.divergence < kDivergenceBound;
      if (!ke_ok || !div_ok) ++r.failed;
      r.check(ke_ok, "job " + job.spec.name + " kinetic energy " +
                         std::to_string(res.kinetic_energy) + " vs exact " +
                         std::to_string(ke_exact));
      r.check(div_ok, "job " + job.spec.name + " ||Du|| " +
                          std::to_string(res.divergence) + " over bound");
      job_steps += res.steps_done;
      if (res.steps_done > 0)
        r.sample("fleet.step_ms_per_step",
                 1e3 * res.step_seconds / res.steps_done);
      if (res.cache == "hit") r.sample("fleet.setup_s_hit", res.setup_seconds);
      if (res.cache == "miss") r.sample("fleet.setup_s_miss", res.setup_seconds);
    }
    std::map<int, double> first_launch;
    for (const auto& ev : rpt.events)
      if (ev.type == "launch" && !first_launch.count(ev.job))
        first_launch[ev.job] = ev.t;
    for (const auto& [job, t] : first_launch) r.sample("fleet.queue_wait_s", t);

    completed += rpt.completed;
    quarantined += rpt.quarantined;
    retries += rpt.retries;
    hang_kills += rpt.hang_kills;
    const double makespan = t1 - t0;
    r.sample("makespan_s", makespan);
    r.sample("setup_s", rpt.setup_seconds_total);
    r.sample("solve_s", rpt.step_seconds_total);
    if (job_steps > 0) {
      r.sample("exec_step_s", rpt.step_seconds_total / job_steps);
      r.sample("exec_step_overlapped_s", makespan / job_steps);
    }
    r.sample("fleet.utilization", occupancy / (conc * makespan));
    const long lookups = rpt.cache_hits + rpt.cache_misses;
    if (lookups > 0)
      r.sample("fleet.cache_hit_ratio",
               static_cast<double>(rpt.cache_hits) / lookups);
    more = now() - t_start < a.seconds;
  }
  r.layer("fleet.jobs_completed", static_cast<double>(completed));
  r.layer("fleet.jobs_quarantined", static_cast<double>(quarantined));
  r.layer("fleet.retries", static_cast<double>(retries));
  r.layer("fleet.hang_kills", static_cast<double>(hang_kills));
  r.sample("peak_rss_mb", peak_rss_mb(true));

  if (tr.enabled()) {
    // The supervisor never ran solver code, so the tuner is still cold.
    double t0 = now();
    tsem::mxm_autotune_init();
    r.layer("tensor.autotune_s", now() - t0);
    replay_mxm(kOrderHi, r);

    // One job's discretization (the high order), built the way a worker
    // builds it, with the Taylor-Green initial field.
    const ScopedSpan s(tr, "replay");
    auto box = tsem::box_spec_2d(tsem::linspace(0.0, 2.0 * M_PI, kMeshK),
                                 tsem::linspace(0.0, 2.0 * M_PI, kMeshK));
    box.periodic_x = box.periodic_y = true;
    const tsem::Space space(tsem::build_mesh(box, kOrderHi));
    const auto& m = space.mesh();
    const std::vector<double> ones(space.nlocal(), 1.0);  // no Dirichlet
    std::vector<double> u(space.nlocal()), v(space.nlocal());
    for (std::size_t i = 0; i < space.nlocal(); ++i) {
      u[i] = std::sin(m.x[i]) * std::cos(m.y[i]);
      v[i] = -std::cos(m.x[i]) * std::sin(m.y[i]);
    }
    const tsem::PressureSystem ps(space, ones);
    t0 = now();
    const tsem::SchwarzPrecond schwarz(ps, tsem::SchwarzOptions{});
    r.layer("solver.schwarz_setup_s", now() - t0);
    const double reynolds = spec.reynolds.front();
    replay_velocity_ops(space, 1.0 / reynolds, 1.5 / kDt, ones,
                        {u.data(), v.data()}, tr, r);
  }
  return r;
}

}  // namespace terabench
