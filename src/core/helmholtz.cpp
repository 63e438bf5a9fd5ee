#include "core/helmholtz.hpp"

#include "common/check.hpp"
#include "core/operators.hpp"
#include "obs/metrics.hpp"

namespace tsem {

HelmholtzOp::HelmholtzOp(const Space& space, double h1, double h2,
                         std::vector<double> mask)
    : space_(&space), h1_(h1), h2_(h2), mask_(std::move(mask)) {
  TSEM_REQUIRE(mask_.size() == space.nlocal());
  const auto& m = space.mesh();
  auto diag_a = stiffness_diagonal_local(m);
  diag_.resize(space.nlocal());
  for (std::size_t i = 0; i < diag_.size(); ++i)
    diag_[i] = h1_ * diag_a[i] + h2_ * m.bm[i];
  space.gs().op(diag_.data());
  for (std::size_t i = 0; i < diag_.size(); ++i)
    if (mask_[i] == 0.0) diag_[i] = 1.0;
}

void HelmholtzOp::apply(const double* u, double* w) const {
  apply_multi(&u, &w, 1);
}

void HelmholtzOp::apply_multi(const double* const* u, double* const* w,
                              int nf) const {
  apply_helmholtz_local_multi(space_->mesh(), h1_, h2_, u, w, nf, work_);
  for (int f = 0; f < nf; ++f) {
    space_->gs().op(w[f]);
    double* wf = w[f];
    for (std::size_t i = 0; i < mask_.size(); ++i) wf[i] *= mask_[i];
  }
}

int helmholtz_solve_multi(const HelmholtzOp& h,
                          const std::vector<double>* const* bcvals,
                          const std::vector<double>* const* rhs_weak,
                          std::vector<double>* const* out, int nf,
                          const HelmholtzSolveOptions& opt, TensorWork& work,
                          HelmholtzSolveScratch* scratch, CgResult* results,
                          bool maxiter_is_failure) {
  const obs::ScopedTimer timer("helmholtz/solve");
  const Space& space = h.space();
  const Mesh& m = space.mesh();
  const std::vector<double>& mask = h.mask();
  const std::size_t nl = space.nlocal();
  TSEM_REQUIRE(nf >= 1 && nf <= kMaxSolveFields);
  for (int f = 0; f < nf; ++f)
    TSEM_REQUIRE(bcvals[f]->size() == nl && rhs_weak[f]->size() == nl &&
                 out[f]->size() == nl);

  HelmholtzSolveScratch local;
  HelmholtzSolveScratch& scr = scratch ? *scratch : local;
  if (static_cast<int>(scr.ub.size()) < nf) {
    scr.ub.resize(nf);
    scr.b.resize(nf);
    scr.t.resize(nf);
    scr.x.resize(nf);
    scr.cg.resize(nf);
  }
  for (int f = 0; f < nf; ++f) {
    if (scr.ub[f].size() < nl) {
      scr.ub[f].resize(nl);
      scr.b[f].resize(nl);
      scr.t[f].resize(nl);
      scr.x[f].resize(nl);
    }
    scr.cg[f].ensure(nl);
  }

  // Lift: ub carries the Dirichlet values, zero elsewhere; b is the
  // assembled rhs minus H ub.  The element work for all fields runs in one
  // operator call.
  const double* ubp[kMaxSolveFields];
  double* tp[kMaxSolveFields];
  for (int f = 0; f < nf; ++f) {
    double* const ub = scr.ub[f].data();
    double* const b = scr.b[f].data();
    const double* bc = bcvals[f]->data();
    const double* rw = rhs_weak[f]->data();
    for (std::size_t i = 0; i < nl; ++i) {
      ub[i] = (1.0 - mask[i]) * bc[i];
      b[i] = rw[i];
    }
    space.gs().op(b);
    ubp[f] = ub;
    tp[f] = scr.t[f].data();
  }
  apply_helmholtz_local_multi(m, h.h1(), h.h2(), ubp, tp, nf, work);
  for (int f = 0; f < nf; ++f) {
    space.gs().op(tp[f]);
    double* const b = scr.b[f].data();
    const double* t = tp[f];
    const double* ub = ubp[f];
    double* const x = scr.x[f].data();
    const double* o = out[f]->data();
    for (std::size_t i = 0; i < nl; ++i) b[i] = (b[i] - t[i]) * mask[i];
    if (opt.zero_guess)
      for (std::size_t i = 0; i < nl; ++i) x[i] = 0.0;
    else
      for (std::size_t i = 0; i < nl; ++i) x[i] = (o[i] - ub[i]) * mask[i];
  }

  const std::vector<double>& dg = h.diagonal();
  auto prec = [&dg, nl](const double* r, double* z) {
    for (std::size_t i = 0; i < nl; ++i) z[i] = r[i] / dg[i];
  };
  auto dot = [&space](const double* a2, const double* b2) {
    return space.glsum_dot(a2, b2);
  };

  // Per-field CG state, mirroring pcg() exactly (cg.hpp); a field whose
  // recurrence exits simply drops out of the applies.
  struct Field {
    double* r;
    double* z;
    double* p;
    double* ap;
    double rnorm, target, rz, best, last_finite;
    int best_it;
    bool active;
    bool entered;  // reached the iteration loop (not a setup exit)
  } st[kMaxSolveFields];

  {
    const double* xin[kMaxSolveFields];
    double* apout[kMaxSolveFields];
    for (int f = 0; f < nf; ++f) {
      st[f].r = scr.cg[f].r.data();
      st[f].z = scr.cg[f].z.data();
      st[f].p = scr.cg[f].p.data();
      st[f].ap = scr.cg[f].ap.data();
      xin[f] = scr.x[f].data();
      apout[f] = st[f].ap;
    }
    h.apply_multi(xin, apout, nf);
  }

  int nactive = 0;
  for (int f = 0; f < nf; ++f) {
    Field& s = st[f];
    CgResult& res = results[f];
    res = CgResult{};
    const double* b = scr.b[f].data();
    for (std::size_t i = 0; i < nl; ++i) s.r[i] = b[i] - s.ap[i];
    s.rnorm = std::sqrt(dot(s.r, s.r));
    res.initial_residual = s.rnorm;
    s.active = false;
    s.entered = false;
    if (!std::isfinite(s.rnorm)) {
      res.status = SolveStatus::NonFinite;
      res.final_residual = s.rnorm;
      continue;
    }
    s.target = opt.tol * (s.rnorm > 0 ? s.rnorm : 1.0);
    if (s.rnorm <= s.target) {
      res.converged = true;
      res.status = SolveStatus::Converged;
      res.final_residual = s.rnorm;
      continue;
    }
    prec(s.r, s.z);
    for (std::size_t i = 0; i < nl; ++i) s.p[i] = s.z[i];
    s.rz = dot(s.r, s.z);
    s.best = s.rnorm;
    s.last_finite = s.rnorm;
    s.best_it = 0;
    s.active = true;
    s.entered = true;
    res.status = SolveStatus::MaxIter;
    ++nactive;
  }

  const CgOptions copt;  // stall_window default, as in pcg()
  for (int it = 1; it <= opt.max_iter && nactive > 0; ++it) {
    const double* pp[kMaxSolveFields];
    double* app[kMaxSolveFields];
    int idx[kMaxSolveFields];
    int na = 0;
    for (int f = 0; f < nf; ++f)
      if (st[f].active) {
        pp[na] = st[f].p;
        app[na] = st[f].ap;
        idx[na] = f;
        ++na;
      }
    h.apply_multi(pp, app, na);
    for (int a = 0; a < na; ++a) {
      const int f = idx[a];
      Field& s = st[f];
      CgResult& res = results[f];
      const double pap = dot(s.p, s.ap);
      if (!(pap > 0.0)) {
        res.status = std::isfinite(pap) ? SolveStatus::Breakdown
                                        : SolveStatus::NonFinite;
        s.active = false;
        --nactive;
        continue;
      }
      const double alpha = s.rz / pap;
      double* const x = scr.x[f].data();
      for (std::size_t i = 0; i < nl; ++i) {
        x[i] += alpha * s.p[i];
        s.r[i] -= alpha * s.ap[i];
      }
      s.rnorm = std::sqrt(dot(s.r, s.r));
      res.iterations = it;
      if (!std::isfinite(s.rnorm)) {
        res.status = SolveStatus::NonFinite;
        s.active = false;
        --nactive;
        continue;
      }
      s.last_finite = s.rnorm;
      if (s.rnorm <= s.target) {
        res.converged = true;
        res.status = SolveStatus::Converged;
        s.active = false;
        --nactive;
        continue;
      }
      if (s.rnorm < 0.999 * s.best) {
        s.best = s.rnorm;
        s.best_it = it;
      } else if (it - s.best_it >= copt.stall_window) {
        res.status = SolveStatus::Stalled;
        s.active = false;
        --nactive;
        continue;
      }
      prec(s.r, s.z);
      const double rz_new = dot(s.r, s.z);
      const double beta = rz_new / s.rz;
      s.rz = rz_new;
      for (std::size_t i = 0; i < nl; ++i) s.p[i] = s.z[i] + beta * s.p[i];
    }
  }
  // pcg's epilogue for every field that entered the loop (break or
  // MaxIter): report the last finite residual.  Setup exits already set
  // final_residual themselves.
  for (int f = 0; f < nf; ++f)
    if (st[f].entered)
      results[f].final_residual =
          std::isfinite(st[f].rnorm) ? st[f].rnorm : st[f].last_finite;

  // Commit + obs in FIELD ORDER, stopping after the first failed field —
  // exactly the trace a sequential per-field loop with early exit leaves.
  int first_fail = nf;
  for (int f = 0; f < nf; ++f) {
    CgResult& res = results[f];
    obs::record_solve("pcg", res.iterations, res.initial_residual,
                      res.final_residual, to_string(res.status));
    if (!is_hard_failure(res.status)) {
      double* o = out[f]->data();
      const double* x = scr.x[f].data();
      const double* ub = scr.ub[f].data();
      for (std::size_t i = 0; i < nl; ++i) o[i] = x[i] + ub[i];
    }
    const bool failed =
        is_hard_failure(res.status) ||
        (maxiter_is_failure && res.status == SolveStatus::MaxIter);
    if (failed) {
      first_fail = f;
      break;
    }
  }
  return first_fail;
}

}  // namespace tsem
