// Small dense matrix-matrix product kernels.
//
// The spectral element method casts every operator application as a
// sequence of small matrix-matrix products (paper eq. 3); >90% of the
// flops in a simulation pass through these kernels (paper §6).  The
// Table 3 reference kernels (bench_table3_mxm) are plain functions:
//
//   mxm_generic  — portable i-k-j triple loop (accumulates into C rows);
//                  stand-in for the stock vendor BLAS ("lkm").
//   mxm_blocked  — register/cache blocked variant ("csm" stand-in).
//   mxm_f2       — inner (k = n2) dimension fully unrolled, n3 outer
//                  (the paper's hand-unrolled "f2").
//   mxm_f3       — inner dimension fully unrolled, n1 outer ("f3").
//
// The library calls mxm()/mxm_bt(), which dispatch statically on shape
// and runtime ISA — the paper's answer too: one fixed kernel per shape,
// never timed at run time (DESIGN.md "Static kernel dispatch"):
//
//   mxm    cube (d, d, d), 2 <= d <= 16  -> "fixed"     mxm_fixed_dispatch
//          any other shape, n >= 4, SIMD -> "avx2_b4x8" mxm_avx2_b4x8
//          otherwise                     -> "fixed"     (f2/f3 off-table)
//   mxm_bt SIMD                          -> "bt_avx2"   mxm_bt_avx2
//          otherwise                     -> "bt_scalar" mxm_bt_scalar
//
// "SIMD" is simd_available(): the AVX2/FMA family compiled in
// (TSEM_SIMD) and reported by the executing CPU.  The choice is a pure
// function of (m, k, n) and the CPU, so every process of a build on a
// machine runs the same kernels: results are bitwise reproducible run to
// run, across processes and across thread counts.
//
// All matrices are dense row-major. C is overwritten:
//   C (m x n) = A (m x k) * B (k x n).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tsem {

void mxm_generic(const double* a, int m, const double* b, int k, double* c,
                 int n);
void mxm_blocked(const double* a, int m, const double* b, int k, double* c,
                 int n);
void mxm_f2(const double* a, int m, const double* b, int k, double* c, int n);
void mxm_f3(const double* a, int m, const double* b, int k, double* c, int n);

/// Default product used throughout the library, through the static shape
/// dispatch above.
void mxm(const double* a, int m, const double* b, int k, double* c, int n);

/// C (m x n) = A (m x k) * B^T where B is stored (n x k) row-major.
/// Statically dispatched (see mxm_bt_scalar for the portable reference
/// kernel).
void mxm_bt(const double* a, int m, const double* b, int k, double* c, int n);

/// Portable reference implementation of mxm_bt (sequential dot products).
void mxm_bt_scalar(const double* a, int m, const double* b, int k, double* c,
                   int n);

/// C (m x n) = A^T * B where A is stored (k x m) row-major.
void mxm_at(const double* a, int m, const double* b, int k, double* c, int n);

/// Name of the kernel mxm() dispatches to for this shape ("fixed" or
/// "avx2_b4x8").
const char* mxm_selected_name(int m, int k, int n);

/// Name of the kernel mxm_bt() dispatches to ("bt_avx2" or "bt_scalar";
/// the choice does not depend on k).
const char* mxm_bt_selected_name();

/// Kept for callers that used to build a tuned table before timing:
/// dispatch is static, so there is nothing to build and this does
/// nothing.
void mxm_autotune_init();

/// The dispatch choice for every order d = 2..16, as (label, kernel name)
/// pairs in a fixed order: "small/dxdxd" (the cube), "long/dxdxN" (the
/// collapsed plane a tensor3_apply final stage sees, N = max(d*d, 17))
/// and "bt/k=d".
std::vector<std::pair<std::string, std::string>> mxm_autotune_selections();

/// Emit one `mxm_dispatch` obs event carrying mxm_autotune_selections()
/// and the compile/runtime ISA flags, so a bench record names every
/// kernel choice.
void mxm_emit_dispatch_event();

/// Best vector ISA the executing CPU reports, detected at runtime and
/// independent of compile flags: "avx512", "avx2", or "none".  Bench
/// meta carries this beside the compile-time `isa` so artifacts from
/// heterogeneous CI runners are distinguishable.
const char* mxm_isa_runtime_name();

/// Fully compile-time-sized product, M x K times K x N.  The operands
/// must not alias C (true of every call site in the library): without
/// the restrict promise gcc refuses to vectorize these small
/// constant-trip-count loops at all, which is the whole point of the
/// fixed tier.
///
/// Short rows (N <= 16, the cube shapes) process eight C rows per block
/// with the whole block accumulated in a local array the vectorizer
/// keeps in registers — eight independent FMA chains hide the latency a
/// single accumulator row is bound by.  Wide rows (the collapsed-plane
/// N = d*d shapes) stream one row at a time; they are bandwidth-bound
/// and extra chains only add register pressure.
template <int M, int K, int N>
inline void mxm_fixed(const double* __restrict a, const double* __restrict b,
                      double* __restrict c) {
  constexpr int RB = (N <= 16) ? (M < 8 ? M : 8) : 1;
  int i = 0;
  for (; i + RB <= M; i += RB) {
    double acc[RB][N];
    for (int r = 0; r < RB; ++r)
      for (int j = 0; j < N; ++j) acc[r][j] = 0.0;
    for (int l = 0; l < K; ++l) {
      const double* bl = b + static_cast<std::ptrdiff_t>(l) * N;
      for (int r = 0; r < RB; ++r) {
        const double ail = a[(i + r) * K + l];
        for (int j = 0; j < N; ++j) acc[r][j] += ail * bl[j];
      }
    }
    for (int r = 0; r < RB; ++r) {
      double* ci = c + static_cast<std::ptrdiff_t>(i + r) * N;
      for (int j = 0; j < N; ++j) ci[j] = acc[r][j];
    }
  }
  for (; i < M; ++i) {
    double acc[N];
    for (int j = 0; j < N; ++j) acc[j] = 0.0;
    const double* ai = a + static_cast<std::ptrdiff_t>(i) * K;
    for (int l = 0; l < K; ++l) {
      const double ail = ai[l];
      const double* bl = b + static_cast<std::ptrdiff_t>(l) * N;
      for (int j = 0; j < N; ++j) acc[j] += ail * bl[j];
    }
    double* ci = c + static_cast<std::ptrdiff_t>(i) * N;
    for (int j = 0; j < N; ++j) ci[j] = acc[j];
  }
}

}  // namespace tsem
