// AVX2/FMA mxm kernel family (paper §6 modernized: the hand-unrolled f2/f3
// idea carried to a register-blocked SIMD micro-kernel, as NekRS does for
// its shape-specialized operator kernels).
//
// Compile gating: the kernels are built only when the TSEM_SIMD CMake
// option is ON and the toolchain accepts -mavx2 -mfma (the build then
// defines TSEM_SIMD_ENABLED and compiles this translation unit with those
// flags).  Runtime gating: simd_available() additionally requires the
// executing CPU to report AVX2 and FMA, so a TSEM_SIMD binary stays
// correct on older hardware — the static dispatch in mxm.cpp simply does
// not select the family there.
//
// Numerics: each C entry is accumulated over the contraction index in the
// same sequential order as the scalar kernels, but with fused
// multiply-adds (single rounding per term) and, in mxm_bt_avx2, four-lane
// partial sums.  Results therefore agree with the scalar reference to a
// tight relative tolerance, not bitwise — see the tolerance policy in
// DESIGN.md ("Static kernel dispatch").
#pragma once

namespace tsem {

/// True when the SIMD family is compiled in AND the executing CPU reports
/// AVX2 + FMA.  Cached after the first call.
bool simd_available();

/// True when the family was compiled in (TSEM_SIMD=ON at configure time).
bool simd_compiled();

/// Human-readable ISA tag for bench metadata: "avx2+fma" when
/// simd_available(), "none" otherwise.
const char* simd_isa_name();

// C (m x n) = A (m x k) * B (k x n), all dense row-major, C overwritten,
// in 4-row x 8-column register tiles of C.  Callable only when
// simd_available() — it TSEM_REQUIRE-fails otherwise.
void mxm_avx2_b4x8(const double* a, int m, const double* b, int k, double* c,
                   int n);

/// C (m x n) = A (m x k) * B^T with B stored (n x k) row-major — the
/// SIMD twin of mxm_bt (both operands are contraction-contiguous, so this
/// vectorizes the dot products with 4-lane FMA partial sums).
void mxm_bt_avx2(const double* a, int m, const double* b, int k, double* c,
                 int n);

}  // namespace tsem
