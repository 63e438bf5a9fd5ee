#include "replay.hpp"

#include <array>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/helmholtz.hpp"
#include "core/operators.hpp"
#include "tensor/mxm.hpp"

namespace terabench {

int default_threads() {
#ifdef _OPENMP
  static const int n = omp_get_max_threads();
  return n;
#else
  return 1;
#endif
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

VelocityCosts replay_velocity_ops(const tsem::Space& space, double h1,
                                  double h2, const std::vector<double>& mask,
                                  const std::vector<const double*>& fields,
                                  Tracer& tr, Result& r) {
  const int nf = static_cast<int>(fields.size());
  const std::size_t nl = space.nlocal();
  std::vector<std::vector<double>> w(fields.size(), std::vector<double>(nl));
  std::vector<std::vector<double>> c(fields.size(), std::vector<double>(nl));
  std::vector<double*> wp, cp;
  for (int f = 0; f < nf; ++f) {
    wp.push_back(w[static_cast<std::size_t>(f)].data());
    cp.push_back(c[static_cast<std::size_t>(f)].data());
  }
  // The advecting velocity is the first dim fields.
  std::array<const double*, 3> vel{nullptr, nullptr, nullptr};
  for (int d = 0; d < space.mesh().dim && d < nf; ++d)
    vel[static_cast<std::size_t>(d)] = fields[static_cast<std::size_t>(d)];

  const tsem::HelmholtzOp hop(space, h1, h2, mask);
  tsem::TensorWork work;
  VelocityCosts out;
  const int nt = default_threads();
  const int teams[2] = {1, nt};
  const char* tag[2] = {"1t", "nt"};
  for (int k = 0; k < 2; ++k) {
    set_threads(teams[k]);
    const ScopedSpan s(tr, std::string("replay.velocity.") + tag[k]);
    out.helmholtz_ms[k] =
        1e3 * unit_cost([&] { hop.apply_multi(fields.data(), wp.data(), nf); });
    r.layer(std::string("core.helmholtz_ms_") + tag[k], out.helmholtz_ms[k]);
    r.layer(std::string("core.convect_ms_") + tag[k],
            1e3 * unit_cost([&] {
              tsem::convect_local_multi(space.mesh(), vel.data(),
                                        fields.data(), cp.data(), nf, work);
            }));
  }
  set_threads(nt);
  return out;
}

void replay_mxm(int order, Result& r) {
  const int n1 = order + 1;
  std::vector<double> a(static_cast<std::size_t>(n1 * n1));
  std::vector<double> b(static_cast<std::size_t>(n1 * n1 * n1));
  std::vector<double> c(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::cos(0.3 * i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.7 * i);
  constexpr int kBatch = 200;  // a single call is below clock resolution
  const double cube = unit_cost([&] {
    for (int i = 0; i < kBatch; ++i)
      tsem::mxm(a.data(), n1, b.data(), n1, c.data(), n1 * n1);
  });
  const double plane = unit_cost([&] {
    for (int i = 0; i < kBatch; ++i)
      tsem::mxm(a.data(), n1, b.data(), n1, c.data(), n1);
  });
  const double nn = n1;
  r.layer("tensor.mxm_cube_gflops", 2.0 * nn * nn * nn * nn * kBatch / cube / 1e9);
  r.layer("tensor.mxm_plane_gflops", 2.0 * nn * nn * nn * kBatch / plane / 1e9);
}

}  // namespace terabench
