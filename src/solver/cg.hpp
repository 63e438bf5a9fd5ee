// Preconditioned conjugate gradient iteration (paper §1, §5).
//
// Generic over the operator, preconditioner and inner product so the same
// driver serves the Jacobi-preconditioned Helmholtz solves, the
// Schwarz-preconditioned pressure solves, and the unit tests.
//
// Every exit is classified by SolveStatus so callers can distinguish a
// solve that reached its tolerance from one that stalled at the attainable
// floor, lost positive definiteness, went non-finite, or merely ran out of
// iterations — the raw material of the resilience layer's recovery policy
// (src/resilience/).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"

namespace tsem {

/// Disposition of an iterative solve.
enum class SolveStatus {
  Converged,  ///< residual reached the requested tolerance
  Stalled,    ///< no progress over stall_window iterations (roundoff floor)
  Breakdown,  ///< p'Ap <= 0 with finite arithmetic: operator not SPD
  NonFinite,  ///< NaN/Inf detected in a residual norm or curvature term
  MaxIter,    ///< iteration budget exhausted before the tolerance
};

/// Stable short name (logging / StepStats reporting).
inline const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Converged: return "converged";
    case SolveStatus::Stalled: return "stalled";
    case SolveStatus::Breakdown: return "breakdown";
    case SolveStatus::NonFinite: return "non-finite";
    case SolveStatus::MaxIter: return "max-iter";
  }
  return "unknown";
}

/// True for outcomes the recovery ladder treats as hard failures: the
/// iterate can no longer be trusted at all (as opposed to Stalled/MaxIter,
/// where x is the best attainable approximation).
inline bool is_hard_failure(SolveStatus s) {
  return s == SolveStatus::Breakdown || s == SolveStatus::NonFinite;
}

/// Allreduce schedule of pcg below, counted for the simulated-machine
/// timing (each dot() is one scalar allreduce in a message-passing run).
/// Setup performs kPcgSetupDots dots — the initial dot(r, r) and the
/// dot(r, z) after the first precond.  Every full iteration performs
/// kPcgDotsPerIteration — dot(p, ap), dot(r, r), dot(r, z) — except the
/// terminating one, which exits after dot(r, r); a solve converging in
/// `iters` iterations therefore performs exactly
///     kPcgSetupDots + kPcgDotsPerIteration * iters - 1
/// dots (asserted by a counting-dot test in tests/test_sim_cluster.cpp).
inline constexpr int kPcgSetupDots = 2;
inline constexpr int kPcgDotsPerIteration = 3;

struct CgOptions {
  int max_iter = 2000;
  double tol = 1e-8;        ///< on the 2-norm of the (preconditioned) residual
  bool relative = false;    ///< scale tol by the initial residual norm
  bool record_history = false;
  /// Stop (non-converged) if the best residual has not improved over this
  /// many iterations — guards against spinning on a roundoff floor when an
  /// absolute tolerance is set below what the system can attain.
  int stall_window = 100;
};

struct CgResult {
  int iterations = 0;
  double final_residual = 0.0;
  double initial_residual = 0.0;
  bool converged = false;  ///< == (status == SolveStatus::Converged)
  SolveStatus status = SolveStatus::MaxIter;
  std::vector<double> history;  ///< residual norm per iteration if recorded
};

/// Reusable Krylov vectors for pcg.  A caller that solves the same-sized
/// system every time step keeps one of these alive so the four
/// field-length work vectors are allocated once, not per solve.
struct CgScratch {
  std::vector<double> r, z, p, ap;
  void ensure(std::size_t n) {
    if (r.size() < n) {
      r.resize(n);
      z.resize(n);
      p.resize(n);
      ap.resize(n);
    }
  }
};

/// One right-hand side's PCG recurrence, advanced one operator apply at a
/// time.  The driver owns the operator: before begin() it puts A x in
/// ap(), before each advance() it puts A p() in ap().  pcg() below drives
/// one stepper; helmholtz_solve_multi drives one per field in lockstep and
/// batches their applies.  The stepper fills its CgResult and records
/// nothing to obs, so each driver keeps its own trace order.
class CgStepper {
 public:
  CgStepper() = default;
  /// Iterate in place on x (the initial guess); Krylov vectors from
  /// `work`, which must hold at least n entries.  Resets `res`.
  CgStepper(std::size_t n, CgScratch& work, double* x, const CgOptions& opt,
            CgResult& res)
      : n_(n), x_(x), r_(work.r.data()), z_(work.z.data()),
        p_(work.p.data()), ap_(work.ap.data()), opt_(&opt), res_(&res) {
    res = CgResult{};
  }

  [[nodiscard]] double* p() const { return p_; }
  [[nodiscard]] double* ap() const { return ap_; }

  /// Setup, given ap() = A x: r = b - A x, the NonFinite and
  /// already-converged exits, then z = M^{-1} r and p = z.  Returns
  /// whether the recurrence goes on to iterate.
  template <class Precond, class Dot>
  bool begin(const double* b, Precond&& precond, Dot&& dot) {
    const std::size_t n = n_;
    double* const r = r_;
    double* const z = z_;
    double* const p = p_;
    double* const ap = ap_;
    CgResult& res = *res_;
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
    rnorm_ = std::sqrt(dot(r, r));
    last_finite_ = rnorm_;  // a setup exit reports rnorm itself
    res.initial_residual = rnorm_;
    // Invariant on EVERY exit path: with record_history on,
    // history.size() == iterations + 1 (entry 0 is the initial residual).
    if (opt_->record_history) res.history.push_back(rnorm_);
    if (!std::isfinite(rnorm_)) {
      // Poisoned rhs or initial guess: bail before touching x.
      res.status = SolveStatus::NonFinite;
      return false;
    }
    target_ = opt_->relative ? opt_->tol * (rnorm_ > 0 ? rnorm_ : 1.0)
                             : opt_->tol;
    if (rnorm_ <= target_) {
      res.converged = true;
      res.status = SolveStatus::Converged;
      return false;
    }
    precond(r, z);
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i];
    rz_ = dot(r, z);
    best_ = rnorm_;
    best_it_ = 0;
    res.status = SolveStatus::MaxIter;
    return true;
  }

  /// Iteration `it` (1-based), given ap() = A p(): the x/r update, every
  /// exit classification, then the next search direction.  Returns
  /// whether the recurrence goes on; false leaves x at this iterate.
  template <class Precond, class Dot>
  bool advance(int it, Precond&& precond, Dot&& dot) {
    const std::size_t n = n_;
    double* const x = x_;
    double* const r = r_;
    double* const z = z_;
    double* const p = p_;
    double* const ap = ap_;
    CgResult& res = *res_;
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {
      // Loss of positive definiteness — or a NaN that poisons every
      // comparison.  The two demand different responses upstream
      // (indefinite operator vs corrupted data), so classify them apart.
      res.status = std::isfinite(pap) ? SolveStatus::Breakdown
                                      : SolveStatus::NonFinite;
      return false;
    }
    const double alpha = rz_ / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    rnorm_ = std::sqrt(dot(r, r));
    res.iterations = it;
    if (opt_->record_history) res.history.push_back(rnorm_);
    if (!std::isfinite(rnorm_)) {
      res.status = SolveStatus::NonFinite;
      return false;
    }
    last_finite_ = rnorm_;
    if (rnorm_ <= target_) {
      res.converged = true;
      res.status = SolveStatus::Converged;
      return false;
    }
    if (rnorm_ < 0.999 * best_) {
      best_ = rnorm_;
      best_it_ = it;
    } else if (it - best_it_ >= opt_->stall_window) {
      res.status = SolveStatus::Stalled;
      return false;  // stagnated at the attainable floor
    }
    precond(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz_;
    rz_ = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    return true;
  }

  /// Epilogue, after any exit: a NonFinite exit leaves rnorm = NaN, so
  /// report the last finite residual instead of a value no caller can act
  /// on.  (On a Breakdown exit rnorm is still the previous iteration's
  /// finite norm — x was not updated — so this is the identity there.)
  void finish() {
    res_->final_residual = std::isfinite(rnorm_) ? rnorm_ : last_finite_;
  }

 private:
  std::size_t n_ = 0;
  double* x_ = nullptr;
  double* r_ = nullptr;
  double* z_ = nullptr;
  double* p_ = nullptr;
  double* ap_ = nullptr;
  const CgOptions* opt_ = nullptr;
  CgResult* res_ = nullptr;
  double rnorm_ = 0.0, target_ = 0.0, rz_ = 0.0, best_ = 0.0;
  double last_finite_ = 0.0;
  int best_it_ = 0;
};

/// Solve A x = b.  `apply(p, ap)` computes ap = A p; `precond(r, z)`
/// computes z = M^{-1} r (may alias-copy for identity); `dot(u, v)` is the
/// inner product in which A is self-adjoint.  x holds the initial guess on
/// entry and the solution on return.  Pass a persistent `scratch` to make
/// repeated solves allocation-free (nullptr allocates locally).
template <class Apply, class Precond, class Dot>
CgResult pcg(std::size_t n, Apply&& apply, Precond&& precond, Dot&& dot,
             const double* b, double* x, const CgOptions& opt = {},
             CgScratch* scratch = nullptr) {
  CgScratch local;
  CgScratch& work = scratch ? *scratch : local;
  work.ensure(n);
  CgResult res;
  CgStepper cg(n, work, x, opt, res);
  apply(x, cg.ap());
  if (cg.begin(b, precond, dot))
    for (int it = 1; it <= opt.max_iter; ++it) {
      apply(cg.p(), cg.ap());
      if (!cg.advance(it, precond, dot)) break;
    }
  cg.finish();
  obs::record_solve("pcg", res.iterations, res.initial_residual,
                    res.final_residual, to_string(res.status));
  return res;
}

/// Identity preconditioner.
inline auto identity_precond(std::size_t n) {
  return [n](const double* r, double* z) {
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i];
  };
}

/// Diagonal (Jacobi) preconditioner from a diagonal vector.  The diagonal
/// is captured by value: the returned callable owns its copy and stays
/// valid after the argument goes out of scope (temporaries included).
inline auto jacobi_precond(std::vector<double> diag) {
  return [d = std::move(diag)](const double* r, double* z) {
    for (std::size_t i = 0; i < d.size(); ++i) z[i] = r[i] / d[i];
  };
}

}  // namespace tsem
