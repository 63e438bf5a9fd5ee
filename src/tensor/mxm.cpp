#include "tensor/mxm.hpp"

#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/kernels_fixed.hpp"
#include "tensor/kernels_simd.hpp"

namespace tsem {
namespace {

// Hand-unrolled kernels in the style of the paper's f2/f3 routines: the
// contraction (n2) loop trip count is a compile-time constant so the
// compiler fully unrolls it and keeps the dot-product accumulator in
// registers.
template <int K2>
struct F2Impl {
  static void run(const double* a, int m, const double* b, double* c,
                  int n) {
    // n3 (columns of C) controls the outer loop.
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        const double* ai = a + static_cast<std::ptrdiff_t>(i) * K2;
        double s = 0.0;
        for (int l = 0; l < K2; ++l) s += ai[l] * b[l * n + j];
        c[i * n + j] = s;
      }
    }
  }
};

template <int K2>
struct F3Impl {
  static void run(const double* a, int m, const double* b, double* c,
                  int n) {
    // n1 (rows of C) controls the outer loop.
    for (int i = 0; i < m; ++i) {
      const double* ai = a + static_cast<std::ptrdiff_t>(i) * K2;
      double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        double s = 0.0;
        for (int l = 0; l < K2; ++l) s += ai[l] * b[l * n + j];
        ci[j] = s;
      }
    }
  }
};

// Unrolled contraction extents 1..kMaxUnrollK, instantiated once for both
// loop orders (this replaces a 24-case switch macro duplicated per
// variant).  The short-circuiting fold runs the matching specialization
// and reports whether one was found.
constexpr int kMaxUnrollK = 24;

template <template <int> class Impl, int... Ks>
bool run_unrolled(std::integer_sequence<int, Ks...>, const double* a, int m,
                  const double* b, int k, double* c, int n) {
  return (((k == Ks + 1) ? (Impl<Ks + 1>::run(a, m, b, c, n), true)
                         : false) ||
          ...);
}

template <template <int> class Impl>
void dispatch_by_k(const double* a, int m, const double* b, int k, double* c,
                   int n) {
  if (!run_unrolled<Impl>(std::make_integer_sequence<int, kMaxUnrollK>{}, a,
                          m, b, k, c, n))
    mxm_generic(a, m, b, k, c, n);
}

}  // namespace

void mxm_generic(const double* a, int m, const double* b, int k, double* c,
                 int n) {
  for (int i = 0; i < m; ++i) {
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] = 0.0;
    const double* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    for (int l = 0; l < k; ++l) {
      const double ail = ai[l];
      const double* bl = b + static_cast<std::ptrdiff_t>(l) * n;
      for (int j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

void mxm_blocked(const double* a, int m, const double* b, int k, double* c,
                 int n) {
  constexpr int kBlock = 32;
  for (int i = 0; i < m; ++i) {
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] = 0.0;
  }
  for (int l0 = 0; l0 < k; l0 += kBlock) {
    const int l1 = l0 + kBlock < k ? l0 + kBlock : k;
    for (int i = 0; i < m; ++i) {
      const double* ai = a + static_cast<std::ptrdiff_t>(i) * k;
      double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
      for (int l = l0; l < l1; ++l) {
        const double ail = ai[l];
        const double* bl = b + static_cast<std::ptrdiff_t>(l) * n;
        for (int j = 0; j < n; ++j) ci[j] += ail * bl[j];
      }
    }
  }
}

void mxm_f2(const double* a, int m, const double* b, int k, double* c,
            int n) {
  dispatch_by_k<F2Impl>(a, m, b, k, c, n);
}

void mxm_f3(const double* a, int m, const double* b, int k, double* c,
            int n) {
  dispatch_by_k<F3Impl>(a, m, b, k, c, n);
}

void mxm_bt_scalar(const double* a, int m, const double* b, int k, double* c,
                   int n) {
  // C[i][j] = sum_l A[i][l] * B[j][l], B stored (n x k).
  for (int i = 0; i < m; ++i) {
    const double* ai = a + static_cast<std::ptrdiff_t>(i) * k;
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const double* bj = b + static_cast<std::ptrdiff_t>(j) * k;
      double s = 0.0;
      for (int l = 0; l < k; ++l) s += ai[l] * bj[l];
      ci[j] = s;
    }
  }
}

void mxm_at(const double* a, int m, const double* b, int k, double* c,
            int n) {
  // C[i][j] = sum_l A[l][i] * B[l][j], A stored (k x m).
  for (int i = 0; i < m; ++i) {
    double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] = 0.0;
  }
  for (int l = 0; l < k; ++l) {
    const double* al = a + static_cast<std::ptrdiff_t>(l) * m;
    const double* bl = b + static_cast<std::ptrdiff_t>(l) * n;
    for (int i = 0; i < m; ++i) {
      const double ali = al[i];
      double* ci = c + static_cast<std::ptrdiff_t>(i) * n;
      for (int j = 0; j < n; ++j) ci[j] += ali * bl[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Static shape dispatch (rule in mxm.hpp).

namespace {

using MxmFn = void (*)(const double*, int, const double*, int, double*, int);

struct Kernel {
  const char* name;
  MxmFn fn;
};

constexpr Kernel kFixed{"fixed", mxm_fixed_dispatch};
constexpr Kernel kAvx2{"avx2_b4x8", mxm_avx2_b4x8};
constexpr Kernel kBtAvx2{"bt_avx2", mxm_bt_avx2};
constexpr Kernel kBtScalar{"bt_scalar", mxm_bt_scalar};

const Kernel& pick(int m, int k, int n) {
  if (n == m && mxm_fixed_covers(m, k, n)) return kFixed;
  if (simd_available() && n >= 4) return kAvx2;
  return kFixed;
}

const Kernel& pick_bt() { return simd_available() ? kBtAvx2 : kBtScalar; }

constexpr int kMaxOrder = 16;

}  // namespace

void mxm(const double* a, int m, const double* b, int k, double* c, int n) {
  pick(m, k, n).fn(a, m, b, k, c, n);
}

void mxm_bt(const double* a, int m, const double* b, int k, double* c,
            int n) {
  pick_bt().fn(a, m, b, k, c, n);
}

const char* mxm_selected_name(int m, int k, int n) {
  return pick(m, k, n).name;
}

const char* mxm_bt_selected_name() { return pick_bt().name; }

void mxm_autotune_init() {}

std::vector<std::pair<std::string, std::string>> mxm_autotune_selections() {
  std::vector<std::pair<std::string, std::string>> out;
  char key[32];
  for (int d = 2; d <= kMaxOrder; ++d) {
    std::snprintf(key, sizeof(key), "small/%dx%dx%d", d, d, d);
    out.emplace_back(key, mxm_selected_name(d, d, d));
  }
  for (int d = 2; d <= kMaxOrder; ++d) {
    const int n = d * d > kMaxOrder ? d * d : kMaxOrder + 1;
    std::snprintf(key, sizeof(key), "long/%dx%dx%d", d, d, n);
    out.emplace_back(key, mxm_selected_name(d, d, n));
  }
  for (int d = 2; d <= kMaxOrder; ++d) {
    std::snprintf(key, sizeof(key), "bt/k=%d", d);
    out.emplace_back(key, mxm_bt_selected_name());
  }
  return out;
}

void mxm_emit_dispatch_event() {
  obs::Json ev;
  ev["type"] = "mxm_dispatch";
  ev["isa"] = simd_isa_name();
  ev["isa_runtime"] = mxm_isa_runtime_name();
  ev["simd_compiled"] = simd_compiled();
  ev["simd_available"] = simd_available();
  for (const auto& [shape, kernel] : mxm_autotune_selections())
    ev["selections"][shape] = kernel;
  obs::emit_event(std::move(ev));
}

const char* mxm_isa_runtime_name() {
#if defined(__x86_64__) || defined(__i386__)
  static const char* const name = [] {
    if (__builtin_cpu_supports("avx512f")) return "avx512";
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return "avx2";
    return "none";
  }();
  return name;
#else
  return "none";
#endif
}

}  // namespace tsem
