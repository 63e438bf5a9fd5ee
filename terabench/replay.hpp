// Unit-cost replays shared by the traced workloads: one call of a layer's
// public entry point, timed in isolation on a workload's own state, at 1
// thread and at the default OpenMP team.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/space.hpp"

namespace terabench {

/// Default OpenMP team size (1 without OpenMP).
int default_threads();
/// Set the team size for later parallel regions (no-op without OpenMP).
void set_threads(int n);

/// Median seconds of one call of f over at least 10 calls and ~0.15 s,
/// after two warm-up calls.
template <class F>
double unit_cost(F&& f) {
  f();
  f();
  std::vector<double> t;
  const double t_end = now() + 0.15;
  while (t.size() < 10 || (now() < t_end && t.size() < 2000)) {
    const double t0 = now();
    f();
    t.push_back(now() - t0);
  }
  return median(t);
}

/// core.helmholtz_ms_{1t,nt} (HelmholtzOp::apply_multi over `fields`) and
/// core.convect_ms_{1t,nt} (convect_local_multi of `fields` by
/// themselves).  Returns the Helmholtz unit cost in ms at {1, nt} threads.
struct VelocityCosts {
  double helmholtz_ms[2] = {0, 0};
};
VelocityCosts replay_velocity_ops(const tsem::Space& space, double h1,
                                  double h2, const std::vector<double>& mask,
                                  const std::vector<const double*>& fields,
                                  Tracer& tr, Result& r);

/// tensor.mxm_cube_gflops and tensor.mxm_plane_gflops through mxm() on
/// the order-N shapes: (n1 x n1)(n1 x n1^2) and (n1 x n1)(n1 x n1).
void replay_mxm(int order, Result& r);

}  // namespace terabench
