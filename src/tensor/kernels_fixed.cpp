#include "tensor/kernels_fixed.hpp"

#include <utility>

#include "tensor/mxm.hpp"

namespace tsem {
namespace {

// The instantiation set: for each d in 2..16, the cube (d, d, d) and the
// collapsed-plane shape (d, d, d*d).  The fold short-circuits on the
// first exact match; the compiler sees fixed trip counts and fully
// unrolls the d <= 16 loops.
constexpr int kMaxFixed = 16;

// Each instantiation stays an outlined function: inlining all thirty
// bodies into the dispatch would make one I-cache-hostile mega-function
// out of what should be thirty small hot loops.
template <int M, int K, int N>
[[gnu::noinline]] void call_fixed(const double* a, const double* b,
                                  double* c) {
  mxm_fixed<M, K, N>(a, b, c);
}

template <int D>
bool try_shapes(const double* a, int m, const double* b, int k, double* c,
                int n) {
  if (m == D && k == D) {
    if (n == D) {
      call_fixed<D, D, D>(a, b, c);
      return true;
    }
    if (n == D * D) {
      call_fixed<D, D, D * D>(a, b, c);
      return true;
    }
  }
  return false;
}

template <int... Ds>
bool run_fixed(std::integer_sequence<int, Ds...>, const double* a, int m,
               const double* b, int k, double* c, int n) {
  return (try_shapes<Ds + 2>(a, m, b, k, c, n) || ...);
}

}  // namespace

bool mxm_fixed_covers(int m, int k, int n) {
  return m == k && m >= 2 && m <= kMaxFixed && (n == m || n == m * m);
}

void mxm_fixed_dispatch(const double* a, int m, const double* b, int k,
                        double* c, int n) {
  if (run_fixed(std::make_integer_sequence<int, kMaxFixed - 1>{}, a, m, b, k,
                c, n))
    return;
  // Scalar shape rule.  Accuracy matches the family's relative contract,
  // not bitwise: the dot-product form contracts into FMA differently from
  // the row-update generic at vector tails.
  if (m > n)
    mxm_f2(a, m, b, k, c, n);
  else
    mxm_f3(a, m, b, k, c, n);
}

}  // namespace tsem
