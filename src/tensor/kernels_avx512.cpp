#include "tensor/kernels_avx512.hpp"

#include "common/check.hpp"

#if defined(TSEM_SIMD_AVX512_ENABLED) && \
    (defined(__x86_64__) || defined(__i386__))
#define TSEM_AVX512_IMPL 1
#include <immintrin.h>
#endif

namespace tsem {

bool avx512_compiled() {
#ifdef TSEM_AVX512_IMPL
  return true;
#else
  return false;
#endif
}

bool avx512_available() {
#ifdef TSEM_AVX512_IMPL
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

#ifdef TSEM_AVX512_IMPL

namespace {

// One ROWS x (16*NV) register tile of C.  a points at row i0 of A
// (stride k), bj at column j0 of B (stride n), cij at C[i0][j0] (stride
// n).  The contraction runs in the same l order as the scalar kernels;
// each entry sees one FMA per term.
template <int ROWS, int NV>
inline void stile(const float* a, const float* bj, float* cij, int k,
                  int n) {
  __m512 acc[ROWS][NV];
  for (int r = 0; r < ROWS; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  for (int l = 0; l < k; ++l) {
    __m512 bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] =
          _mm512_loadu_ps(bj + static_cast<std::ptrdiff_t>(l) * n + 16 * v);
    for (int r = 0; r < ROWS; ++r) {
      const __m512 av =
          _mm512_set1_ps(a[static_cast<std::ptrdiff_t>(r) * k + l]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < ROWS; ++r)
    for (int v = 0; v < NV; ++v)
      _mm512_storeu_ps(cij + static_cast<std::ptrdiff_t>(r) * n + 16 * v,
                       acc[r][v]);
}

template <int ROWS>
inline void stile_masked(const float* a, const float* bj, float* cij, int k,
                         int n, int cols) {
  const __mmask16 mask = static_cast<__mmask16>((1u << cols) - 1u);
  __m512 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm512_setzero_ps();
  for (int l = 0; l < k; ++l) {
    const __m512 bv =
        _mm512_maskz_loadu_ps(mask, bj + static_cast<std::ptrdiff_t>(l) * n);
    for (int r = 0; r < ROWS; ++r) {
      const __m512 av =
          _mm512_set1_ps(a[static_cast<std::ptrdiff_t>(r) * k + l]);
      acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r)
    _mm512_mask_storeu_ps(cij + static_cast<std::ptrdiff_t>(r) * n, mask,
                          acc[r]);
}

// ROWS full rows of C for n <= 16: one masked zmm per row, the whole
// row blocked in registers across the contraction.  This is the common
// FDM subdomain case (m1 <= 16 at orders up to 15).
template <int ROWS>
inline void srows_1v(const float* a, const float* b, float* c, int k, int n,
                     __mmask16 mask) {
  __m512 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm512_setzero_ps();
  for (int l = 0; l < k; ++l) {
    const __m512 bv =
        _mm512_maskz_loadu_ps(mask, b + static_cast<std::ptrdiff_t>(l) * n);
    for (int r = 0; r < ROWS; ++r)
      acc[r] = _mm512_fmadd_ps(
          _mm512_set1_ps(a[static_cast<std::ptrdiff_t>(r) * k + l]), bv,
          acc[r]);
  }
  for (int r = 0; r < ROWS; ++r)
    _mm512_mask_storeu_ps(c + static_cast<std::ptrdiff_t>(r) * n, mask,
                          acc[r]);
}

// ROWS full rows for 16 < n <= 32: one full + one masked vector per row,
// both advanced in the SAME l loop so the tail costs one extra FMA per
// term instead of a second k-sweep (order 16 runs n = 17 here — a
// second sweep for one column would waste half the kernel).
template <int ROWS>
inline void srows_2v(const float* a, const float* b, float* c, int k, int n,
                     __mmask16 mask2) {
  __m512 acc0[ROWS], acc1[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  for (int l = 0; l < k; ++l) {
    const float* bl = b + static_cast<std::ptrdiff_t>(l) * n;
    const __m512 bv0 = _mm512_loadu_ps(bl);
    const __m512 bv1 = _mm512_maskz_loadu_ps(mask2, bl + 16);
    for (int r = 0; r < ROWS; ++r) {
      const __m512 av =
          _mm512_set1_ps(a[static_cast<std::ptrdiff_t>(r) * k + l]);
      acc0[r] = _mm512_fmadd_ps(av, bv0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(av, bv1, acc1[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    float* cr = c + static_cast<std::ptrdiff_t>(r) * n;
    _mm512_storeu_ps(cr, acc0[r]);
    _mm512_mask_storeu_ps(cr + 16, mask2, acc1[r]);
  }
}

}  // namespace

void smxm_avx512(const float* a, int m, const float* b, int k, float* c,
                 int n) {
  if (n <= 16) {
    const __mmask16 mask = static_cast<__mmask16>((1u << n) - 1u);
    int i = 0;
    for (; i + 8 <= m; i += 8)
      srows_1v<8>(a + static_cast<std::ptrdiff_t>(i) * k, b,
                  c + static_cast<std::ptrdiff_t>(i) * n, k, n, mask);
    for (; i < m; ++i)
      srows_1v<1>(a + static_cast<std::ptrdiff_t>(i) * k, b,
                  c + static_cast<std::ptrdiff_t>(i) * n, k, n, mask);
    return;
  }
  if (n <= 32) {
    const __mmask16 mask2 = static_cast<__mmask16>((1u << (n - 16)) - 1u);
    int i = 0;
    for (; i + 4 <= m; i += 4)
      srows_2v<4>(a + static_cast<std::ptrdiff_t>(i) * k, b,
                  c + static_cast<std::ptrdiff_t>(i) * n, k, n, mask2);
    for (; i < m; ++i)
      srows_2v<1>(a + static_cast<std::ptrdiff_t>(i) * k, b,
                  c + static_cast<std::ptrdiff_t>(i) * n, k, n, mask2);
    return;
  }
  constexpr int ROWS = 8;
  int i = 0;
  for (; i + ROWS <= m; i += ROWS) {
    const float* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    float* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    int j = 0;
    for (; j + 16 <= n; j += 16) stile<ROWS, 1>(ai, b + j, ci + j, k, n);
    if (j < n) stile_masked<ROWS>(ai, b + j, ci + j, k, n, n - j);
  }
  for (; i < m; ++i) {
    const float* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    float* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    int j = 0;
    for (; j + 16 <= n; j += 16) stile<1, 1>(ai, b + j, ci + j, k, n);
    if (j < n) stile_masked<1>(ai, b + j, ci + j, k, n, n - j);
  }
}

void smxm_avx512_bt(const float* a, int m, const float* b, int k, float* c,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    float* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<std::ptrdiff_t>(j) * k;
      __m512 s = _mm512_setzero_ps();
      int l = 0;
      for (; l + 16 <= k; l += 16)
        s = _mm512_fmadd_ps(_mm512_loadu_ps(ai + l), _mm512_loadu_ps(bj + l),
                            s);
      if (l < k) {
        const __mmask16 mask =
            static_cast<__mmask16>((1u << (k - l)) - 1u);
        s = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, ai + l),
                            _mm512_maskz_loadu_ps(mask, bj + l), s);
      }
      ci[j] = _mm512_reduce_add_ps(s);
    }
  }
}

#else  // !TSEM_AVX512_IMPL — defined so the FP32 dispatch links; never
       // selected (avx512_available() is false), so never reachable.

void smxm_avx512(const float*, int, const float*, int, float*, int) {
  TSEM_REQUIRE(!"smxm_avx512 called without TSEM_SIMD_AVX512 support");
}
void smxm_avx512_bt(const float*, int, const float*, int, float*, int) {
  TSEM_REQUIRE(!"smxm_avx512_bt called without TSEM_SIMD_AVX512 support");
}

#endif

}  // namespace tsem
