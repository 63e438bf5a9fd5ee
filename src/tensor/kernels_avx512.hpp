// AVX-512F single-precision kernels for the FP32 Schwarz/FDM
// preconditioner path (DESIGN.md "Precision policy") — the tier above the
// AVX2/FMA float kernels (kernels_simd.hpp).  One zmm holds 16 floats, so
// a full C row of the Schwarz subdomain solves (m <= 19 at order 16,
// overlap 1) needs at most one vector plus a masked tail.  The FP64
// operator path has no AVX-512 kernels: its static dispatch (mxm.hpp)
// tops out at the AVX2 family.
//
// Compile gating: built only when the TSEM_SIMD_AVX512 CMake option is ON
// and the toolchain accepts -mavx512f (the build then defines
// TSEM_SIMD_AVX512_ENABLED and compiles this sole translation unit with
// that flag).  Runtime gating: avx512_available() additionally requires
// the executing CPU to report AVX512F, so a TSEM_SIMD_AVX512 binary stays
// correct on AVX2-only hardware — the smxm/smxm_bt dispatchers in
// tensor/mxm_f32.cpp simply do not select the tier there.
//
// Numerics: each C entry is accumulated over the contraction index in
// ascending order with fused multiply-adds; smxm_avx512_bt uses 16-lane
// partial sums.  The preconditioner's convergence contract absorbs the
// difference from the scalar reference (tests/convergence_contract.hpp).
#pragma once

namespace tsem {

/// True when the AVX-512 tier is compiled in AND the executing CPU
/// reports AVX512F.  Cached after the first call.
bool avx512_available();

/// True when the tier was compiled in (TSEM_SIMD_AVX512=ON at configure
/// time).
bool avx512_compiled();

// C (m x n) = A (m x k) * B (k x n), and C = A * B^T with B stored
// (n x k), dense row-major float, C overwritten.  Callable only when
// avx512_available() — they TSEM_REQUIRE-fail otherwise.
void smxm_avx512(const float* a, int m, const float* b, int k, float* c,
                 int n);
void smxm_avx512_bt(const float* a, int m, const float* b, int k, float* c,
                    int n);

}  // namespace tsem
