#include "tensor/kernels_simd.hpp"

#include "common/check.hpp"

#if defined(TSEM_SIMD_ENABLED) && (defined(__x86_64__) || defined(__i386__))
#define TSEM_SIMD_IMPL 1
#include <immintrin.h>
#endif

namespace tsem {

bool simd_compiled() {
#ifdef TSEM_SIMD_IMPL
  return true;
#else
  return false;
#endif
}

bool simd_available() {
#ifdef TSEM_SIMD_IMPL
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

const char* simd_isa_name() { return simd_available() ? "avx2+fma" : "none"; }

#ifdef TSEM_SIMD_IMPL

namespace {

// One ROWS x (4*NV) register tile of C.  a points at row i0 of A (stride
// k), bj at column j0 of B (stride n), cij at C[i0][j0] (stride n).  The
// contraction runs in the same l order as the scalar kernels; each entry
// sees one FMA per term.
template <int ROWS, int NV>
inline void tile(const double* a, const double* bj, double* cij, int k,
                 int n) {
  __m256d acc[ROWS][NV];
  for (int r = 0; r < ROWS; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_pd();
  for (int l = 0; l < k; ++l) {
    __m256d bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = _mm256_loadu_pd(bj + static_cast<std::ptrdiff_t>(l) * n + 4 * v);
    for (int r = 0; r < ROWS; ++r) {
      const __m256d av =
          _mm256_set1_pd(a[static_cast<std::ptrdiff_t>(r) * k + l]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < ROWS; ++r)
    for (int v = 0; v < NV; ++v)
      _mm256_storeu_pd(cij + static_cast<std::ptrdiff_t>(r) * n + 4 * v,
                       acc[r][v]);
}

// Scalar column tail for ROWS rows (sequential dot, same order).
inline void tail_col(const double* a, const double* bj, double* cij, int k,
                     int n, int rows) {
  for (int r = 0; r < rows; ++r) {
    const double* ar = a + static_cast<std::ptrdiff_t>(r) * k;
    double s = 0.0;
    for (int l = 0; l < k; ++l)
      s += ar[l] * bj[static_cast<std::ptrdiff_t>(l) * n];
    cij[static_cast<std::ptrdiff_t>(r) * n] = s;
  }
}

// Sum the four lanes of s0..s3 into one vector whose lane t holds the
// full horizontal sum of st (classic hadd/permute reduction).
inline __m256d hsum4(__m256d s0, __m256d s1, __m256d s2, __m256d s3) {
  const __m256d t0 = _mm256_hadd_pd(s0, s1);  // s0[0]+s0[1], s1[0]+s1[1],
                                              // s0[2]+s0[3], s1[2]+s1[3]
  const __m256d t1 = _mm256_hadd_pd(s2, s3);
  const __m256d swap = _mm256_permute2f128_pd(t0, t1, 0x21);
  const __m256d blend = _mm256_blend_pd(t0, t1, 0b1100);
  return _mm256_add_pd(swap, blend);
}

}  // namespace

void mxm_avx2_b4x8(const double* a, int m, const double* b, int k, double* c,
                   int n) {
  constexpr int ROWS = 4, NV = 2, JB = 4 * NV;
  int i = 0;
  for (; i + ROWS <= m; i += ROWS) {
    const double* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    int j = 0;
    for (; j + JB <= n; j += JB) tile<ROWS, NV>(ai, b + j, ci + j, k, n);
    for (; j + 4 <= n; j += 4) tile<ROWS, 1>(ai, b + j, ci + j, k, n);
    for (; j < n; ++j) tail_col(ai, b + j, ci + j, k, n, ROWS);
  }
  for (; i < m; ++i) {
    const double* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) tile<1, 1>(ai, b + j, ci + j, k, n);
    for (; j < n; ++j) tail_col(ai, b + j, ci + j, k, n, 1);
  }
}

void mxm_bt_avx2(const double* a, int m, const double* b, int k, double* c,
                 int n) {
  for (int i = 0; i < m; ++i) {
    const double* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + static_cast<std::ptrdiff_t>(j) * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m256d s0 = _mm256_setzero_pd(), s1 = s0, s2 = s0, s3 = s0;
      int l = 0;
      for (; l + 4 <= k; l += 4) {
        const __m256d av = _mm256_loadu_pd(ai + l);
        s0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b0 + l), s0);
        s1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b1 + l), s1);
        s2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b2 + l), s2);
        s3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b3 + l), s3);
      }
      double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
      for (; l < k; ++l) {
        const double av = ai[l];
        t0 += av * b0[l];
        t1 += av * b1[l];
        t2 += av * b2[l];
        t3 += av * b3[l];
      }
      const __m256d sum =
          _mm256_add_pd(hsum4(s0, s1, s2, s3), _mm256_set_pd(t3, t2, t1, t0));
      _mm256_storeu_pd(ci + j, sum);
    }
    for (; j < n; ++j) {
      const double* bj = b + static_cast<std::ptrdiff_t>(j) * k;
      double s = 0.0;
      for (int l = 0; l < k; ++l) s += ai[l] * bj[l];
      ci[j] = s;
    }
  }
}

#else  // !TSEM_SIMD_IMPL — defined so the dispatch code links; never
       // selected (simd_available() is false), so never reachable.

void mxm_avx2_b4x8(const double*, int, const double*, int, double*, int) {
  TSEM_REQUIRE(!"mxm_avx2_b4x8 called without TSEM_SIMD support");
}
void mxm_bt_avx2(const double*, int, const double*, int, double*, int) {
  TSEM_REQUIRE(!"mxm_bt_avx2 called without TSEM_SIMD support");
}

#endif

}  // namespace tsem
