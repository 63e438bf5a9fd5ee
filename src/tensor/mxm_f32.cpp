#include "tensor/mxm_f32.hpp"

#include <cstddef>

#include "tensor/kernels_avx512.hpp"
#include "tensor/kernels_simd.hpp"

namespace tsem {

namespace {

void smxm_scalar(const float* a, int m, const float* b, int k, float* c,
                 int n) {
  // Row-update form: the j loop is stride-1 over both C and B rows, so
  // the vectorizer turns it into wide fused multiply-adds.
  for (int i = 0; i < m; ++i) {
    float* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] = 0.0f;
    const float* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    for (int l = 0; l < k; ++l) {
      const float ail = ai[l];
      const float* bl = b + static_cast<std::ptrdiff_t>(l) * n;
      for (int j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

void smxm_bt_scalar(const float* a, int m, const float* b, int k, float* c,
                    int n) {
  // C[i][j] = sum_l A[i][l] * B[j][l], B stored (n x k): sequential dot
  // products (the compiler cannot reassociate the FP reduction, so this
  // stays scalar — the hand-vectorized tiers below exist for exactly
  // that reason).
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    float* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<std::ptrdiff_t>(j) * k;
      float s = 0.0f;
      for (int l = 0; l < k; ++l) s += ai[l] * bj[l];
      ci[j] = s;
    }
  }
}

// Best runnable tier, resolved once per process by a plain runtime ISA
// pick.  The FP32 path carries no bitwise contract (its whole output is
// absorbed by the convergence contract), so it may use the widest tier.
using SmxmFn = void (*)(const float*, int, const float*, int, float*, int);

SmxmFn pick_smxm() {
  if (avx512_available()) return smxm_avx512;
  if (simd_available()) return smxm_avx2;
  return smxm_scalar;
}

SmxmFn pick_smxm_bt() {
  if (avx512_available()) return smxm_avx512_bt;
  if (simd_available()) return smxm_avx2_bt;
  return smxm_bt_scalar;
}

}  // namespace

void smxm(const float* a, int m, const float* b, int k, float* c, int n) {
  static const SmxmFn fn = pick_smxm();
  fn(a, m, b, k, c, n);
}

void smxm_bt(const float* a, int m, const float* b, int k, float* c, int n) {
  static const SmxmFn fn = pick_smxm_bt();
  fn(a, m, b, k, c, n);
}

}  // namespace tsem
