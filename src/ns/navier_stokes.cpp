#include "ns/navier_stokes.hpp"

#include <cmath>

#include "common/check.hpp"
#include "core/flops.hpp"
#include "io/binfile.hpp"
#include "core/operators.hpp"
#include "obs/metrics.hpp"
#include "poly/basis1d.hpp"
#include "poly/filter.hpp"
#include "solver/setup_bundle.hpp"

namespace tsem {
namespace {

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// Structured per-step trace record: the full StepStats, recovery-ladder
// rungs included, as one event in the MetricsRegistry ring buffer.
void emit_step_event(const StepStats& s) {
  if constexpr (!obs::kEnabled) {
    (void)s;
    return;
  }
  obs::Json e = obs::Json::object();
  e["event"] = "ns/step";
  e["step"] = s.step;
  e["time"] = s.time;
  e["dt"] = s.dt;
  e["pressure_iters"] = s.pressure_iters;
  obs::Json hi = obs::Json::array();
  obs::Json hs = obs::Json::array();
  for (int c = 0; c < 3; ++c) {
    hi.push_back(s.helmholtz_iters[c]);
    hs.push_back(to_string(s.helmholtz_status[c]));
  }
  e["helmholtz_iters"] = std::move(hi);
  e["helmholtz_status"] = std::move(hs);
  e["pressure_res0"] = s.pressure_res0;
  e["divergence"] = s.divergence;
  e["cfl"] = s.cfl;
  e["flops"] = s.flops;
  e["pressure_status"] = to_string(s.pressure_status);
  e["scalar_status"] = to_string(s.scalar_status);
  e["attempts"] = s.attempts;
  e["dt_halvings"] = s.dt_halvings;
  e["cfl_rejected"] = s.cfl_rejected;
  e["projection_flushed"] = s.projection_flushed;
  e["precond_fallback"] = s.precond_fallback;
  e["nonfinite_field"] = s.nonfinite_field;
  e["recovered"] = s.recovered;
  e["failed"] = s.failed;
  obs::emit_event(std::move(e));

  obs::count("ns/steps");
  obs::record("ns/pressure_iters", s.pressure_iters);
  obs::record("ns/divergence", s.divergence);
  obs::record("ns/cfl", s.cfl);
  if (s.attempts > 1) obs::count("ns/retries", s.attempts - 1);
  if (s.recovered) obs::count("ns/recovered_steps");
  if (s.failed) obs::count("ns/failed_steps");
}

}  // namespace

struct NavierStokes::ScalarData {
  double diffusivity = 0.0;
  std::vector<double> mask;
  std::vector<double> th;
  std::vector<double> thbc;
  std::array<std::vector<double>, 3> hist;
  std::unique_ptr<HelmholtzOp> hop;
  double hop_h2 = -1.0;
};

/// Rollback image for one step attempt: everything attempt_step mutates
/// before the accept point.  ubc_/bc_frozen_ are excluded on purpose — the
/// freeze is computed from the entering fields, so a retry reproduces it
/// bit-exactly.
struct NavierStokes::Snapshot {
  std::array<std::vector<double>, 3> u;
  std::array<std::array<std::vector<double>, 3>, 3> uh, ch;
  std::vector<double> p;
  std::vector<std::vector<double>> th;
  std::vector<std::array<std::vector<double>, 3>> th_hist;
  // Projection basis image.  The outer arrays only ever grow (the live
  // basis cycles 0 -> lmax -> restart); proj_size says how many leading
  // entries are valid, so the save path is pure copy-assign into retained
  // buffers — no allocator traffic as the basis shrinks and regrows.
  std::vector<std::vector<double>> proj_q, proj_w;
  std::size_t proj_size = 0;
};

/// Everything a step attempt needs that is sized by the discretization:
/// the entering-state copies, rhs accumulators, OIFS/RK4 stage buffers,
/// weak-form and pressure temporaries, and the per-solver scratch
/// (Helmholtz lift + CG, pressure projection + CG).  One instance lives
/// for the integrator's lifetime; ensure_scratch sizes it once.
struct NavierStokes::StepScratch {
  std::array<std::vector<double>, 3> un1, gp, gd, f;
  std::vector<std::vector<double>> thn1, rhs, adv;
  std::vector<std::vector<double>*> fptr;
  std::vector<const double*> fmask;
  std::vector<double> weak, g, dp;
  // Per-component weak rhs for the lockstep velocity Helmholtz solve.
  std::array<std::vector<double>, 3> weak3;
  // Pointer tables for the multi-field operator calls.
  std::vector<const double*> min;
  std::vector<double*> mout;
  // oifs_advect: interpolated advecting velocity and RK4 stages.
  std::array<std::vector<double>, 3> vbuf;
  std::vector<std::vector<double>> k1, k2, k3, k4, wtmp;
  HelmholtzSolveScratch helm;
  PressureSolveScratch pres;
};

NavierStokes::NavierStokes(const Space& space, std::uint32_t dirichlet_tags,
                           NsOptions opt)
    : space_(&space), opt_(opt) {
  const Mesh& m = space.mesh();
  dim_ = m.dim;
  nl_ = space.nlocal();
  TSEM_REQUIRE(opt_.torder >= 1 && opt_.torder <= 3);
  mask_ = space.make_mask(dirichlet_tags);
  for (int c = 0; c < dim_; ++c) {
    u_[c].assign(nl_, 0.0);
    ubc_[c].assign(nl_, 0.0);
    for (auto& h : uh_) h[c].assign(nl_, 0.0);
    for (auto& h : ch_) h[c].assign(nl_, 0.0);
  }
  psys_ = std::make_unique<PressureSystem>(space, mask_);
  p_.assign(psys_->nloc(), 0.0);
  if (opt_.use_schwarz) {
    opt_.schwarz.setup_import = opt_.setup_import;
    opt_.schwarz.setup_record = opt_.setup_record;
    schwarz_ = std::make_unique<SchwarzPrecond>(*psys_, opt_.schwarz);
    opt_.schwarz.setup_import = nullptr;  // don't dangle past the ctor
    opt_.schwarz.setup_record = nullptr;
  }
  if (opt_.proj_len > 0)
    proj_ = std::make_unique<SolutionProjection>(psys_->nloc(),
                                                 opt_.proj_len);
  if (opt_.filter_alpha > 0.0)
    fmat_ = filter_matrix(m.order, opt_.filter_alpha);
  if (opt_.dealias) {
    TSEM_REQUIRE(opt_.convection == NsOptions::Convection::Oifs);
    if (opt_.setup_import != nullptr && !opt_.setup_import->dealias.empty()) {
      ByteReader r(opt_.setup_import->dealias);
      dealias_ = DealiasedConvection::deserialize(r, m);
      if (dealias_ != nullptr && !r.exhausted()) dealias_.reset();
    }
    if (dealias_ == nullptr)
      dealias_ = std::make_unique<DealiasedConvection>(m);
    if (opt_.setup_record != nullptr) {
      ByteWriter w;
      dealias_->serialize(w);
      opt_.setup_record->dealias = w.take();
    }
  }
}

NavierStokes::~NavierStokes() = default;

int NavierStokes::add_scalar(std::uint32_t dirichlet_tags,
                             double diffusivity) {
  TSEM_REQUIRE(nsteps_ == 0);  // add species before the first step
  auto sc = std::make_unique<ScalarData>();
  sc->diffusivity = diffusivity;
  sc->mask = space_->make_mask(dirichlet_tags);
  sc->th.assign(nl_, 0.0);
  sc->thbc.assign(nl_, 0.0);
  for (auto& h : sc->hist) h.assign(nl_, 0.0);
  scalars_.push_back(std::move(sc));
  return static_cast<int>(scalars_.size()) - 1;
}

std::vector<double>& NavierStokes::scalar(int which) {
  TSEM_REQUIRE(which >= 0 && which < nscalars());
  return scalars_[which]->th;
}

const std::vector<double>& NavierStokes::scalar(int which) const {
  TSEM_REQUIRE(which >= 0 && which < nscalars());
  return scalars_[which]->th;
}

void NavierStokes::compute_bdf_coeffs(int order, double* beta0,
                                      double* c) const {
  c[0] = c[1] = c[2] = 0.0;
  switch (order) {
    case 1:
      *beta0 = 1.0;
      c[0] = 1.0;
      break;
    case 2:
      *beta0 = 1.5;
      c[0] = 2.0;
      c[1] = -0.5;
      break;
    default:
      *beta0 = 11.0 / 6.0;
      c[0] = 3.0;
      c[1] = -1.5;
      c[2] = 1.0 / 3.0;
      break;
  }
}

double NavierStokes::cfl_rate() const {
  const Mesh& m = space_->mesh();
  const auto& b = Basis1D::get(m.order);
  const int n1 = m.n1d();
  // Minimum reference-space gap adjacent to each 1D node.
  std::vector<double> gap(n1);
  for (int i = 0; i < n1; ++i) {
    double g = 1e300;
    if (i > 0) g = std::min(g, b.z[i] - b.z[i - 1]);
    if (i < n1 - 1) g = std::min(g, b.z[i + 1] - b.z[i]);
    gap[i] = g;
  }
  double rate = 0.0;
  const std::size_t nl = nl_;
  for (int e = 0; e < m.nelem; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * m.npe;
    for (int n = 0; n < m.npe; ++n) {
      int idx[3] = {0, 0, 0};
      int rem = n;
      for (int d = 0; d < dim_; ++d) {
        idx[d] = rem % n1;
        rem /= n1;
      }
      double s = 0.0;
      for (int d = 0; d < dim_; ++d) {
        double ur = 0.0;
        for (int c = 0; c < dim_; ++c)
          ur += u_[c][off + n] * m.drdx[(static_cast<std::size_t>(d) * dim_ +
                                         c) * nl + off + n];
        s += std::fabs(ur) / gap[idx[d]];
      }
      rate = std::max(rate, s);
    }
  }
  return rate;
}

double NavierStokes::current_cfl() const { return cfl_rate() * opt_.dt; }

double NavierStokes::divergence_norm() const {
  if (divscr_.size() < psys_->nloc()) divscr_.resize(psys_->nloc());
  const double* uu[3] = {u_[0].data(), u_[1].data(),
                         dim_ == 3 ? u_[2].data() : nullptr};
  psys_->divergence(uu, divscr_.data());
  double s = 0.0;
  for (std::size_t i = 0; i < psys_->nloc(); ++i) s += divscr_[i] * divscr_[i];
  return std::sqrt(s);
}

double NavierStokes::kinetic_energy(
    const std::array<const double*, 3>& uref) const {
  const Mesh& m = space_->mesh();
  double e = 0.0;
  for (std::size_t i = 0; i < nl_; ++i) {
    double s = 0.0;
    for (int c = 0; c < dim_; ++c) {
      const double d = u_[c][i] - (uref[c] ? uref[c][i] : 0.0);
      s += d * d;
    }
    e += 0.5 * m.bm[i] * s;
  }
  return e;
}

void NavierStokes::oifs_advect(
    double dt, int q, int order, int substeps,
    const std::vector<std::vector<double>*>& fields,
    const std::vector<const double*>& field_masks) {
  const Mesh& m = space_->mesh();
  const auto& bmi = space_->bm_inv();
  const int nsub = substeps * q;
  const double h = (q * dt) / nsub;
  const double t_n1 = 0.0;   // time of u^{n-1} relative to itself
  const double t_n2 = -dt;

  // Advecting velocity at relative time s (s = 0 at t^{n-1}, the newest
  // known level; the integration runs from -(q-1)*dt ... wait, the field
  // being advected starts at t^{n-q} = -(q-1)*dt relative to t^{n-1} and
  // ends at t^n = +dt.
  std::array<std::vector<double>, 3>& vbuf = scr_->vbuf;
  auto velocity_at = [&](double s) {
    for (int c = 0; c < dim_; ++c) {
      if (order >= 3 && nsteps_ >= 2) {
        // Quadratic Lagrange through (0, -dt, -2dt): needed so the
        // advecting field does not cap the BDF3 scheme at 2nd order.
        const double w1 = (s + dt) * (s + 2 * dt) / (2 * dt * dt);
        const double w2 = -s * (s + 2 * dt) / (dt * dt);
        const double w3 = s * (s + dt) / (2 * dt * dt);
        for (std::size_t i = 0; i < nl_; ++i)
          vbuf[c][i] =
              w1 * u_[c][i] + w2 * uh_[0][c][i] + w3 * uh_[1][c][i];
      } else if (order >= 2 && nsteps_ >= 1) {
        const double w1 = (s - t_n2) / (t_n1 - t_n2);
        const double w2 = 1.0 - w1;
        for (std::size_t i = 0; i < nl_; ++i)
          vbuf[c][i] = w1 * u_[c][i] + w2 * uh_[0][c][i];
      } else {
        std::copy(u_[c].begin(), u_[c].end(), vbuf[c].begin());
      }
    }
  };

  const int nf = static_cast<int>(fields.size());
  // RK4 stage buffers from the persistent scratch (sized by
  // ensure_scratch before any attempt reaches this point).
  std::vector<std::vector<double>>& k1 = scr_->k1;
  std::vector<std::vector<double>>& k2 = scr_->k2;
  std::vector<std::vector<double>>& k3 = scr_->k3;
  std::vector<std::vector<double>>& k4 = scr_->k4;
  std::vector<std::vector<double>>& wtmp = scr_->wtmp;
  TSEM_ASSERT(static_cast<int>(k1.size()) >= nf);

  const double* vel[3] = {vbuf[0].data(), vbuf[1].data(),
                          dim_ == 3 ? vbuf[2].data() : nullptr};
  // One rate evaluation for all advected fields: the collocation path is
  // one element loop over every field (convect_local_multi); the
  // dealiased path keeps per-field applies (its fine-grid interpolants are
  // per-field anyway).
  std::vector<const double*>& win = scr_->min;
  std::vector<double*>& kout = scr_->mout;
  auto rate_all = [&](std::vector<std::vector<double>>& k) {
    for (int f = 0; f < nf; ++f) kout[f] = k[f].data();
    if (dealias_) {
      // Weak form directly from the fine-grid quadrature.
      for (int f = 0; f < nf; ++f) {
        dealias_->apply(vel, win[f], kout[f], work_);
        double* kf = kout[f];
        for (std::size_t i = 0; i < nl_; ++i) kf[i] = -kf[i];
      }
    } else {
      convect_local_multi(m, vel, win.data(), kout.data(), nf, work_);
      for (int f = 0; f < nf; ++f) {
        double* kf = kout[f];
        for (std::size_t i = 0; i < nl_; ++i) kf[i] *= -m.bm[i];
      }
    }
    for (int f = 0; f < nf; ++f) {
      double* kf = kout[f];
      const double* fmask = field_masks[f];
      space_->gs().op(kf);
      for (std::size_t i = 0; i < nl_; ++i) kf[i] *= bmi[i] * fmask[i];
    }
  };

  double s = -(q - 1) * dt;  // start time relative to t^{n-1}
  for (int step = 0; step < nsub; ++step) {
    // RK4 stages at s, s+h/2, s+h.
    velocity_at(s);
    for (int f = 0; f < nf; ++f) win[f] = fields[f]->data();
    rate_all(k1);
    velocity_at(s + 0.5 * h);
    for (int f = 0; f < nf; ++f) {
      for (std::size_t i = 0; i < nl_; ++i)
        wtmp[f][i] = (*fields[f])[i] + 0.5 * h * k1[f][i];
      win[f] = wtmp[f].data();
    }
    rate_all(k2);
    for (int f = 0; f < nf; ++f)
      for (std::size_t i = 0; i < nl_; ++i)
        wtmp[f][i] = (*fields[f])[i] + 0.5 * h * k2[f][i];
    rate_all(k3);
    velocity_at(s + h);
    for (int f = 0; f < nf; ++f)
      for (std::size_t i = 0; i < nl_; ++i)
        wtmp[f][i] = (*fields[f])[i] + h * k3[f][i];
    rate_all(k4);
    for (int f = 0; f < nf; ++f)
      for (std::size_t i = 0; i < nl_; ++i)
        (*fields[f])[i] += h / 6.0 *
                           (k1[f][i] + 2.0 * k2[f][i] + 2.0 * k3[f][i] +
                            k4[f][i]);
    s += h;
    flops_total_ += 4.0 * nf * (convection_flops(m) + 6.0 * nl_);
  }
}

void NavierStokes::apply_velocity_filter() {
  if (fmat_.empty()) return;
  const Mesh& m = space_->mesh();
  ensure_scratch();
  // One element loop filters every component and scalar; the dssum/mask
  // blend stays per field.
  std::vector<double*>& fu = scr_->mout;
  for (int c = 0; c < dim_; ++c) fu[c] = u_[c].data();
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc)
    fu[dim_ + sc] = scalars_[sc]->th.data();
  const int nfall = dim_ + static_cast<int>(scalars_.size());
  apply_filter_local_multi(m, fmat_, fu.data(), nfall, work_);
  for (int c = 0; c < dim_; ++c) {
    space_->daverage(u_[c].data());
    for (std::size_t i = 0; i < nl_; ++i)
      u_[c][i] = mask_[i] * u_[c][i] + (1.0 - mask_[i]) * ubc_[c][i];
  }
  for (auto& sc : scalars_) {
    space_->daverage(sc->th.data());
    for (std::size_t i = 0; i < nl_; ++i)
      sc->th[i] =
          sc->mask[i] * sc->th[i] + (1.0 - sc->mask[i]) * sc->thbc[i];
  }
  flops_total_ += dim_ * 2.0 * tensor_apply_flops(m.n1d(), m.n1d(), m.dim) *
                  m.nelem;
}

void NavierStokes::ensure_scratch() {
  if (!scr_) scr_ = std::make_unique<StepScratch>();
  StepScratch& s = *scr_;
  const std::size_t nsc = scalars_.size();
  const int nf = dim_ + static_cast<int>(nsc);
  const std::size_t np = psys_->nloc();
  for (int c = 0; c < dim_; ++c) {
    s.un1[c].resize(nl_);
    s.gp[c].resize(nl_);
    s.gd[c].resize(nl_);
    s.f[c].resize(nl_);
    s.vbuf[c].resize(nl_);
  }
  s.thn1.resize(nsc);
  for (auto& v : s.thn1) v.resize(nl_);
  s.rhs.resize(nf);
  s.adv.resize(nf);
  s.k1.resize(nf);
  s.k2.resize(nf);
  s.k3.resize(nf);
  s.k4.resize(nf);
  s.wtmp.resize(nf);
  for (int f = 0; f < nf; ++f) {
    s.rhs[f].resize(nl_);
    s.adv[f].resize(nl_);
    s.k1[f].resize(nl_);
    s.k2[f].resize(nl_);
    s.k3[f].resize(nl_);
    s.k4[f].resize(nl_);
    s.wtmp[f].resize(nl_);
  }
  s.fptr.resize(nf);
  s.fmask.resize(nf);
  s.min.resize(nf);
  s.mout.resize(nf);
  for (int c = 0; c < dim_; ++c) s.weak3[c].resize(nl_);
  s.weak.resize(nl_);
  s.g.resize(np);
  s.dp.resize(np);
}

bool NavierStokes::solve_failed(SolveStatus s) const {
  return is_hard_failure(s) ||
         (opt_.resilience.maxiter_is_failure && s == SolveStatus::MaxIter);
}

void NavierStokes::save_snapshot(Snapshot& s) const {
  s.u = u_;
  s.uh = uh_;
  s.ch = ch_;
  s.p = p_;
  s.th.resize(scalars_.size());
  s.th_hist.resize(scalars_.size());
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
    s.th[sc] = scalars_[sc]->th;
    s.th_hist[sc] = scalars_[sc]->hist;
  }
  if (proj_) {
    const auto& bq = proj_->basis_q();
    const auto& bw = proj_->basis_w();
    s.proj_size = bq.size();
    if (s.proj_q.size() < bq.size()) {
      s.proj_q.resize(bq.size());
      s.proj_w.resize(bq.size());
    }
    for (std::size_t i = 0; i < bq.size(); ++i) {
      s.proj_q[i] = bq[i];
      s.proj_w[i] = bw[i];
    }
  }
}

void NavierStokes::restore_snapshot(const Snapshot& s) {
  u_ = s.u;
  uh_ = s.uh;
  ch_ = s.ch;
  p_ = s.p;
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
    scalars_[sc]->th = s.th[sc];
    scalars_[sc]->hist = s.th_hist[sc];
  }
  if (proj_) {
    // Only the leading proj_size entries are live (the outer arrays are
    // retained at high-water size); restore_basis wants exact-size
    // parallel arrays.  This copies — fine, rollback is the rare path.
    std::vector<std::vector<double>> q(s.proj_q.begin(),
                                       s.proj_q.begin() + s.proj_size);
    std::vector<std::vector<double>> w(s.proj_w.begin(),
                                       s.proj_w.begin() + s.proj_size);
    proj_->restore_basis(std::move(q), std::move(w));
  }
}

bool NavierStokes::attempt_step(double dt, int order,
                                const AttemptPolicy& pol, int attempt,
                                StepStats& stats) {
  const Mesh& m = space_->mesh();
  const int this_step = nsteps_ + 1;
  double beta0, cq[3];
  compute_bdf_coeffs(order, &beta0, cq);
  ensure_scratch();
  StepScratch& scr = *scr_;

  if (!bc_frozen_) {
    for (int c = 0; c < dim_; ++c) {
      space_->daverage(u_[c].data());
      ubc_[c] = u_[c];
    }
    for (auto& sc : scalars_) {
      space_->daverage(sc->th.data());
      sc->thbc = sc->th;
    }
    bc_frozen_ = true;
  }

  stats.cfl = cfl_rate() * dt;
  const int base_sub =
      opt_.oifs_substeps > 0
          ? opt_.oifs_substeps
          : std::max(1, static_cast<int>(std::ceil(stats.cfl / 0.5)));

  // Snapshot of the entering state (u^{n-1} etc.).  All field-length
  // temporaries below are copy-assigns into the persistent StepScratch
  // buffers, which reuse their capacity — the attempt allocates nothing
  // once the scratch is at full size.
  std::array<std::vector<double>, 3>& un1 = scr.un1;
  std::vector<std::vector<double>>& thn1 = scr.thn1;
  for (int c = 0; c < dim_; ++c) un1[c] = u_[c];
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc)
    thn1[sc] = scalars_[sc]->th;

  // ---- convective contribution -> weak rhs accumulators ----
  const int nf = dim_ + static_cast<int>(scalars_.size());
  std::vector<std::vector<double>>& rhs = scr.rhs;
  for (int f = 0; f < nf; ++f) rhs[f].assign(nl_, 0.0);

  {
    const obs::ScopedTimer timer("convection");
    if (opt_.convection == NsOptions::Convection::Oifs) {
      for (int q = 1; q <= order; ++q) {
        // Fields at t^{n-q}: copies that get advected to t^n.
        std::vector<std::vector<double>>& adv = scr.adv;
        std::vector<std::vector<double>*>& fptr = scr.fptr;
        std::vector<const double*>& fmask = scr.fmask;
        for (int c = 0; c < dim_; ++c) {
          adv[c] = (q == 1) ? un1[c] : uh_[q - 2][c];
          fptr[c] = &adv[c];
          fmask[c] = mask_.data();
        }
        for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
          const int f = dim_ + static_cast<int>(sc);
          adv[f] = (q == 1) ? thn1[sc] : scalars_[sc]->hist[q - 2];
          fptr[f] = &adv[f];
          fmask[f] = scalars_[sc]->mask.data();
        }
        oifs_advect(dt, q, order, base_sub, fptr, fmask);
        const double coef = cq[q - 1] / dt;
        for (int f = 0; f < nf; ++f)
          for (std::size_t i = 0; i < nl_; ++i) rhs[f][i] += coef * adv[f][i];
      }
    } else {
      // EXTk: BDF terms on the raw history + extrapolated convection.
      double gam[3] = {1.0, 0.0, 0.0};
      if (order == 2) {
        gam[0] = 2.0;
        gam[1] = -1.0;
      } else if (order == 3) {
        gam[0] = 3.0;
        gam[1] = -3.0;
        gam[2] = 1.0;
      }
      // Convection of the newest level into history slot 0 (rotated below).
      // One element loop advects every component and scalar with the shared
      // velocity.
      const double* vel[3] = {un1[0].data(), un1[1].data(),
                              dim_ == 3 ? un1[2].data() : nullptr};
      for (int c = 0; c < dim_; ++c) {
        scr.min[c] = un1[c].data();
        scr.mout[c] = ch_[0][c].data();
      }
      for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
        scr.min[dim_ + sc] = thn1[sc].data();
        scr.mout[dim_ + sc] = scalars_[sc]->hist[2].data();
      }
      convect_local_multi(m, vel, scr.min.data(), scr.mout.data(), nf, work_);
      flops_total_ += nf * convection_flops(m);
      for (int q = 1; q <= order; ++q) {
        const double coef = cq[q - 1] / dt;
        for (int c = 0; c < dim_; ++c) {
          const auto& uq = (q == 1) ? un1[c] : uh_[q - 2][c];
          for (std::size_t i = 0; i < nl_; ++i) rhs[c][i] += coef * uq[i];
        }
        for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
          const auto& tq = (q == 1) ? thn1[sc] : scalars_[sc]->hist[q - 2];
          for (std::size_t i = 0; i < nl_; ++i)
            rhs[dim_ + sc][i] += coef * tq[i];
        }
      }
      for (int q = 1; q <= order; ++q) {
        if (gam[q - 1] == 0.0) continue;
        for (int c = 0; c < dim_; ++c) {
          const auto& cc = (q == 1) ? ch_[0][c] : ch_[q - 1][c];
          for (std::size_t i = 0; i < nl_; ++i)
            rhs[c][i] -= gam[q - 1] * cc[i];
        }
        // (scalar EXT convection history kept in hist[2] for q=1 only; the
        // scalar path is primarily exercised with OIFS)
      }
    }
  }

  // ---- forcing ----
  if (forcing_) {
    std::array<double*, 3> fp = {nullptr, nullptr, nullptr};
    for (int c = 0; c < dim_; ++c) {
      scr.f[c].assign(nl_, 0.0);
      fp[c] = scr.f[c].data();
    }
    forcing_(*this, time_ + dt, fp);
    for (int c = 0; c < dim_; ++c)
      for (std::size_t i = 0; i < nl_; ++i) rhs[c][i] += scr.f[c][i];
  }

  // ---- Helmholtz solves for u* ----
  const double h2 = beta0 / dt;
  if (!hop_ || hop_h2_ != h2) {
    hop_ = std::make_unique<HelmholtzOp>(*space_, opt_.viscosity, h2, mask_);
    hop_h2_ = h2;
  }
  HelmholtzSolveOptions hopt;
  hopt.tol = opt_.helm_tol;
  hopt.max_iter = opt_.max_iter;
  hopt.zero_guess = pol.zero_guess;
  // Weak rhs: B * rhs + D^T p (lagged pressure gradient).
  {
    std::array<std::vector<double>, 3>& gp = scr.gp;
    double* gpp[3] = {nullptr, nullptr, nullptr};
    for (int c = 0; c < dim_; ++c) {
      gp[c].assign(nl_, 0.0);
      gpp[c] = gp[c].data();
    }
    psys_->gradient_t(p_.data(), gpp);
    flops_total_ += e_apply_flops(*psys_) / 2.0;
    // All components share hop_, so the three solves run in lockstep with
    // one operator apply per iteration (helmholtz_solve_multi); per-
    // component iterates and statuses are bitwise identical to sequential
    // solves.
    const std::vector<double>* bcv[3];
    const std::vector<double>* rw[3];
    std::vector<double>* uo[3];
    CgResult cres[3];
    for (int c = 0; c < dim_; ++c) {
      std::vector<double>& weak = scr.weak3[c];
      for (std::size_t i = 0; i < nl_; ++i)
        weak[i] = m.bm[i] * rhs[c][i] + gp[c][i];
      if (fault_hook_)
        fault_hook_(FaultSite::HelmholtzRhs, this_step, attempt, c,
                    weak.data(), nl_);
      bcv[c] = &ubc_[c];
      rw[c] = &weak;
      uo[c] = &u_[c];
    }
    const int nfail =
        helmholtz_solve_multi(*hop_, bcv, rw, uo, dim_, hopt, work_,
                              &scr.helm, cres,
                              opt_.resilience.maxiter_is_failure);
    // Stats/flops for the components a sequential early-exit loop would
    // have reached: everything up to and including the first failure.
    for (int c = 0; c < dim_ && c <= nfail; ++c) {
      stats.helmholtz_iters[c] = cres[c].iterations;
      stats.helmholtz_status[c] = cres[c].status;
      flops_total_ += cres[c].iterations *
                      (stiffness_flops(m) + 14.0 * static_cast<double>(nl_));
    }
    if (nfail < dim_) return false;
  }

  // ---- scalar (species) transport ----
  stats.scalar_status = SolveStatus::Converged;
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
    auto& sd = *scalars_[sc];
    if (!sd.hop || sd.hop_h2 != h2) {
      sd.hop = std::make_unique<HelmholtzOp>(*space_, sd.diffusivity, h2,
                                             sd.mask);
      sd.hop_h2 = h2;
    }
    std::vector<double>& weak = scr.weak;
    for (std::size_t i = 0; i < nl_; ++i)
      weak[i] = m.bm[i] * rhs[dim_ + sc][i];
    const std::vector<double>* bcv = &sd.thbc;
    const std::vector<double>* rw = &weak;
    std::vector<double>* uo = &sd.th;
    CgResult res;
    helmholtz_solve_multi(*sd.hop, &bcv, &rw, &uo, 1, hopt, work_, &scr.helm,
                          &res);
    flops_total_ += res.iterations *
                    (stiffness_flops(m) + 14.0 * static_cast<double>(nl_));
    if (solve_failed(res.status)) {
      stats.scalar_status = res.status;
      return false;
    }
    if (res.status != SolveStatus::Converged &&
        stats.scalar_status == SolveStatus::Converged)
      stats.scalar_status = res.status;
  }

  // ---- pressure correction ----
  {
    const std::size_t np = psys_->nloc();
    std::vector<double>& g = scr.g;
    std::vector<double>& dp = scr.dp;
    std::fill(dp.begin(), dp.end(), 0.0);
    const double* uu[3] = {u_[0].data(), u_[1].data(),
                           dim_ == 3 ? u_[2].data() : nullptr};
    psys_->divergence(uu, g.data());
    const double scale = -beta0 / dt;
    for (auto& v : g) v *= scale;
    if (fault_hook_)
      fault_hook_(FaultSite::PressureRhs, this_step, attempt, 0, g.data(),
                  np);

    PressureSolveOptions popt;
    popt.tol = opt_.pres_tol;
    popt.max_iter = opt_.max_iter;
    popt.mean_free = opt_.pressure_mean_free;
    popt.zero_guess = pol.zero_guess;
    std::function<void(const double*, double*)> precond;
    const bool with_schwarz = schwarz_ && pol.use_schwarz;
    if (with_schwarz) {
      precond = [this](const double* r, double* z) { schwarz_->apply(r, z); };
    } else if (schwarz_) {
      // Rung-2 fallback: diagonal (pressure-mass) scaling — spectrally
      // crude but SPD and structurally immune to a corrupted subdomain
      // or coarse solve.
      precond = [this](const double* r, double* z) {
        const auto& d = psys_->pbm();
        for (std::size_t i = 0; i < d.size(); ++i) z[i] = r[i] / d[i];
      };
    }
    auto res = solve_pressure(*psys_, precond, proj_.get(), g.data(),
                              dp.data(), popt, &scr.pres);
    stats.pressure_iters = res.cg.iterations;
    stats.pressure_status = res.cg.status;
    stats.pressure_res0 = res.res0;
    flops_total_ += res.apply_count * e_apply_flops(*psys_);
    if (with_schwarz)
      flops_total_ += res.precond_count * schwarz_->local_flops_per_apply();
    if (proj_ && !pol.zero_guess)
      flops_total_ += 4.0 * proj_->size() * static_cast<double>(np);
    if (solve_failed(res.cg.status)) return false;

    // Velocity correction and pressure update.
    std::array<std::vector<double>, 3>& gd = scr.gd;
    double* gdp[3] = {nullptr, nullptr, nullptr};
    for (int c = 0; c < dim_; ++c) {
      gd[c].assign(nl_, 0.0);
      gdp[c] = gd[c].data();
    }
    psys_->gradient_t(dp.data(), gdp);
    flops_total_ += e_apply_flops(*psys_) / 2.0;
    const auto& bmi = space_->bm_inv();
    const double corr = dt / beta0;
    for (int c = 0; c < dim_; ++c) {
      space_->gs().op(gd[c].data());
      for (std::size_t i = 0; i < nl_; ++i)
        u_[c][i] += corr * mask_[i] * bmi[i] * gd[c][i];
    }
    for (std::size_t i = 0; i < np; ++i) p_[i] += dp[i];
    if (opt_.pressure_mean_free) psys_->remove_mean(p_.data());
  }

  // ---- filter, final validation, history rotation, stats ----
  apply_velocity_filter();

  if (opt_.resilience.enabled) {
    // A solve can "converge" on finite residuals while a masked node or
    // the forcing carried NaN into the field — the last line of defense
    // before the step is committed.
    bool finite = all_finite(p_);
    for (int c = 0; finite && c < dim_; ++c) finite = all_finite(u_[c]);
    for (std::size_t sc = 0; finite && sc < scalars_.size(); ++sc)
      finite = all_finite(scalars_[sc]->th);
    if (!finite) {
      stats.nonfinite_field = true;
      return false;
    }
  }

  for (int c = 0; c < dim_; ++c) {
    uh_[1][c].swap(uh_[0][c]);
    uh_[0][c].swap(un1[c]);
  }
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
    scalars_[sc]->hist[1].swap(scalars_[sc]->hist[0]);
    scalars_[sc]->hist[0].swap(thn1[sc]);
  }
  if (opt_.convection == NsOptions::Convection::Ext) {
    // ch_[0] holds C(u^{n-1}) computed this step; rotate to history.
    for (int c = 0; c < dim_; ++c) {
      ch_[2][c].swap(ch_[1][c]);
      ch_[1][c].swap(ch_[0][c]);
    }
  }

  time_ += dt;
  ++nsteps_;
  stats.step = nsteps_;
  stats.time = time_;
  stats.divergence = divergence_norm();
  stats.flops = flops_total_;
  return true;
}

StepStats NavierStokes::step() {
  const obs::ScopedTimer timer("ns/step");
  const ResilienceOptions& rz = opt_.resilience;
  StepStats stats;
  double dt = opt_.dt;
  int halvings = 0;

  if (rz.enabled) {
    // Persistent rollback image: the copy-assigns inside save_snapshot
    // reuse the buffers captured on previous steps.
    if (!snap_) snap_ = std::make_unique<Snapshot>();
    save_snapshot(*snap_);
  }

  // CFL watchdog: reject a hopeless step before spending solver work.
  if (rz.enabled && rz.cfl_limit > 0.0) {
    const double rate = cfl_rate();
    while (rate * dt > rz.cfl_limit && halvings < rz.max_dt_halvings) {
      dt *= 0.5;
      ++halvings;
      stats.cfl_rejected = true;
    }
  }

  // Escalation ladder (resilience/recovery.hpp): climb the rungs at the
  // current dt, then reject and halve.  Deterministic by construction.
  AttemptPolicy pol;
  int attempt = 0;
  bool accepted = false;
  for (;;) {
    ++attempt;
    const int order =
        (halvings > 0) ? 1 : std::min(opt_.torder, ramp_ + 1);
    if (attempt_step(dt, order, pol, attempt, stats)) {
      accepted = true;
      break;
    }
    if (!rz.enabled) break;  // statuses recorded; legacy no-retry behavior
    restore_snapshot(*snap_);
    if (!pol.zero_guess) {
      // Rung 1: a poisoned warm start (previous solution / projection
      // basis) is the most common contaminant.
      pol.zero_guess = true;
      if (proj_) proj_->clear();
      stats.projection_flushed = true;
    } else if (pol.use_schwarz && schwarz_) {
      // Rung 2: preconditioner fallback.
      pol.use_schwarz = false;
      stats.precond_fallback = true;
    } else if (halvings < rz.max_dt_halvings) {
      // Rung 3: reject the step; the BDF/OIFS ramp restarts at the
      // reduced dt (order 1) because the history spacing no longer
      // matches.  Zero guesses stay; the Schwarz rung re-arms.
      ++halvings;
      dt *= 0.5;
      pol.use_schwarz = true;
    } else {
      break;  // ladder exhausted; state is rolled back
    }
  }

  stats.attempts = attempt;
  stats.dt_halvings = halvings;
  stats.dt = dt;
  stats.recovered = accepted && (attempt > 1 || stats.cfl_rejected);
  stats.failed = !accepted;
  if (accepted)
    ramp_ = (halvings > 0) ? 0 : ramp_ + 1;
  emit_step_event(stats);
  return stats;
}

NsState NavierStokes::export_state() const {
  NsState s;
  s.dim = dim_;
  s.nscalars = static_cast<std::int32_t>(scalars_.size());
  s.nlocal = nl_;
  s.npressure = psys_->nloc();
  s.step = nsteps_;
  s.order_ramp = ramp_;
  s.bc_frozen = bc_frozen_ ? 1 : 0;
  s.time = time_;
  s.dt = opt_.dt;
  s.flops_total = flops_total_;
  s.u = u_;
  s.ubc = ubc_;
  s.uh = uh_;
  s.ch = ch_;
  s.p = p_;
  s.scalars.resize(scalars_.size());
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
    s.scalars[sc].th = scalars_[sc]->th;
    s.scalars[sc].thbc = scalars_[sc]->thbc;
    s.scalars[sc].hist = scalars_[sc]->hist;
  }
  if (proj_) {
    s.proj_q = proj_->basis_q();
    s.proj_w = proj_->basis_w();
  }
  return s;
}

std::uint32_t NavierStokes::state_digest() const {
  const NsState s = export_state();
  std::uint32_t c = 0;
  auto mix = [&c](const void* p, std::size_t n) { c = crc32(p, n, c); };
  auto vec = [&mix](const std::vector<double>& v) {
    const std::uint64_t n = v.size();
    mix(&n, sizeof n);
    mix(v.data(), v.size() * sizeof(double));
  };
  mix(&s.dim, sizeof s.dim);
  mix(&s.nscalars, sizeof s.nscalars);
  mix(&s.step, sizeof s.step);
  mix(&s.order_ramp, sizeof s.order_ramp);
  mix(&s.bc_frozen, sizeof s.bc_frozen);
  mix(&s.time, sizeof s.time);
  mix(&s.dt, sizeof s.dt);
  mix(&s.flops_total, sizeof s.flops_total);
  for (int co = 0; co < 3; ++co) vec(s.u[co]);
  for (int co = 0; co < 3; ++co) vec(s.ubc[co]);
  for (const auto& lvl : s.uh)
    for (int co = 0; co < 3; ++co) vec(lvl[co]);
  for (const auto& lvl : s.ch)
    for (int co = 0; co < 3; ++co) vec(lvl[co]);
  vec(s.p);
  for (const auto& sc : s.scalars) {
    vec(sc.th);
    vec(sc.thbc);
    for (const auto& h : sc.hist) vec(h);
  }
  for (std::size_t i = 0; i < s.proj_q.size(); ++i) {
    vec(s.proj_q[i]);
    vec(s.proj_w[i]);
  }
  return c;
}

bool NavierStokes::import_state(const NsState& s, std::string* err) {
  auto fail = [err](const std::string& what) {
    if (err) *err = what;
    return false;
  };
  if (s.dim != dim_) return fail("state dim mismatch");
  if (s.nlocal != nl_) return fail("state velocity dof count mismatch");
  if (s.npressure != psys_->nloc())
    return fail("state pressure dof count mismatch");
  if (s.nscalars != nscalars()) return fail("state scalar count mismatch");
  if (!(s.dt > 0.0) || !std::isfinite(s.dt))
    return fail("state dt not positive finite");
  if (s.step < 0 || s.order_ramp < 0) return fail("state step index negative");
  for (int c = 0; c < dim_; ++c)
    if (s.u[c].size() != nl_ || s.ubc[c].size() != nl_)
      return fail("state velocity field size mismatch");
  for (const auto& lvl : s.uh)
    for (int c = 0; c < dim_; ++c)
      if (lvl[c].size() != nl_) return fail("state history size mismatch");
  for (const auto& lvl : s.ch)
    for (int c = 0; c < dim_; ++c)
      if (lvl[c].size() != nl_)
        return fail("state convection history size mismatch");
  if (s.p.size() != psys_->nloc()) return fail("state pressure size mismatch");
  for (const auto& sc : s.scalars) {
    if (sc.th.size() != nl_ || sc.thbc.size() != nl_)
      return fail("state scalar field size mismatch");
    for (const auto& h : sc.hist)
      if (h.size() != nl_) return fail("state scalar history size mismatch");
  }
  if (s.proj_q.size() != s.proj_w.size())
    return fail("state projection basis q/w size mismatch");
  for (std::size_t i = 0; i < s.proj_q.size(); ++i)
    if (s.proj_q[i].size() != psys_->nloc() ||
        s.proj_w[i].size() != psys_->nloc())
      return fail("state projection vector size mismatch");

  u_ = s.u;
  ubc_ = s.ubc;
  uh_ = s.uh;
  ch_ = s.ch;
  p_ = s.p;
  for (std::size_t sc = 0; sc < scalars_.size(); ++sc) {
    scalars_[sc]->th = s.scalars[sc].th;
    scalars_[sc]->thbc = s.scalars[sc].thbc;
    scalars_[sc]->hist = s.scalars[sc].hist;
  }
  if (proj_) proj_->restore_basis(s.proj_q, s.proj_w);
  nsteps_ = s.step;
  ramp_ = s.order_ramp;
  bc_frozen_ = s.bc_frozen != 0;
  time_ = s.time;
  opt_.dt = s.dt;
  flops_total_ = s.flops_total;
  // Cached operators depend on beta0/dt; invalidate so the next step
  // rebuilds them deterministically.
  hop_.reset();
  hop_h2_ = -1.0;
  for (auto& sc : scalars_) {
    sc->hop.reset();
    sc->hop_h2 = -1.0;
  }
  return true;
}

}  // namespace tsem
