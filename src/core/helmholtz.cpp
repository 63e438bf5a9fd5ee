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

  // One pcg() recurrence per field (CgStepper, cg.hpp); a field whose
  // recurrence exits simply drops out of the applies.
  CgOptions copt;  // stall_window default, as in pcg()
  copt.max_iter = opt.max_iter;
  copt.tol = opt.tol;
  copt.relative = true;
  CgStepper st[kMaxSolveFields];
  {
    const double* xin[kMaxSolveFields];
    double* apout[kMaxSolveFields];
    for (int f = 0; f < nf; ++f) {
      st[f] = CgStepper(nl, scr.cg[f], scr.x[f].data(), copt, results[f]);
      xin[f] = scr.x[f].data();
      apout[f] = st[f].ap();
    }
    h.apply_multi(xin, apout, nf);
  }
  // The still-active fields, in field order.
  int active[kMaxSolveFields];
  int na = 0;
  for (int f = 0; f < nf; ++f)
    if (st[f].begin(scr.b[f].data(), prec, dot)) active[na++] = f;

  for (int it = 1; it <= opt.max_iter && na > 0; ++it) {
    const double* pp[kMaxSolveFields];
    double* app[kMaxSolveFields];
    for (int a = 0; a < na; ++a) {
      pp[a] = st[active[a]].p();
      app[a] = st[active[a]].ap();
    }
    h.apply_multi(pp, app, na);
    int keep = 0;
    for (int a = 0; a < na; ++a)
      if (st[active[a]].advance(it, prec, dot)) active[keep++] = active[a];
    na = keep;
  }
  for (int f = 0; f < nf; ++f) st[f].finish();

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
