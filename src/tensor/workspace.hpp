// Per-thread persistent scratch arena for the element-loop kernels.
//
// Every matrix-free operator needs a few element-sized scratch buffers.
// With the element loops OpenMP-parallel (operators.cpp, dealias.cpp,
// schwarz.cpp), a single shared buffer would race, and allocating inside
// the loop would put malloc on the hot path.  Workspace gives each OpenMP
// thread its own slab that persists across calls: the first get() on a
// thread allocates, every later get() of an equal-or-smaller size returns
// the same pointer with nothing but an index load and a size check.
//
// Slabs are 64-byte aligned (kAlign) so the SIMD mxm kernels get aligned
// vector loads/stores on slab-rooted operands and no element buffer
// straddles a cache line pair.
//
// Ownership rules (also documented in DESIGN.md):
//   * get(n) returns a slab private to the CALLING thread; two threads
//     never share a slab, so element loops may call get() freely inside
//     `#pragma omp parallel for`.
//   * A thread's slab is a single region reused by every get() from that
//     thread: a nested kernel that calls get() on the SAME Workspace
//     clobbers its caller's scratch.  Operators that call other operators
//     (helmholtz_solve_multi -> apply_helmholtz_local_multi) must keep
//     their own buffers outside the arena they pass down.
//   * get() must not be called from nested parallel regions (thread ids
//     would collide between teams); terasem does not nest.
//   * Slabs grow monotonically and are freed only by the destructor, so
//     steady-state use performs no allocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/check.hpp"

namespace tsem {

class Workspace {
 public:
  static constexpr int kMaxThreads = 256;
  static constexpr std::size_t kAlign = 64;  // bytes; one full cache line
  static_assert((kAlign & (kAlign - 1)) == 0, "alignment must be a power of 2");
  static_assert(kAlign % alignof(double) == 0,
                "slab alignment must satisfy double alignment");

  /// Slab of at least n doubles owned by the calling thread (uninitialized
  /// beyond what the caller last wrote there).  Stable across calls with
  /// non-increasing n; always kAlign-byte aligned.
  double* get(std::size_t n) {
    int tid = 0;
#ifdef _OPENMP
    tid = omp_get_thread_num();
    TSEM_REQUIRE(tid < kMaxThreads);
#endif
    // Lazy growth is race-free: index tid is touched only by the thread
    // that owns it, and slab blocks are separate heap allocations so
    // neighboring entries do not share mutable cache lines after creation.
    Slab& slab = slabs_[tid];
    if (slab.cap < n) grow(slab, n);
    return slab.data.get();
  }

  /// Number of thread slabs materialized so far (tests / diagnostics).
  [[nodiscard]] int slabs_in_use() const {
    int c = 0;
    for (const auto& s : slabs_)
      if (s.data) ++c;
    return c;
  }

 private:
  struct Freer {
    void operator()(double* p) const { std::free(p); }
  };
  struct Slab {
    std::size_t cap = 0;  // doubles
    std::unique_ptr<double[], Freer> data;
  };

  static void grow(Slab& slab, std::size_t n) {
    // aligned_alloc requires the size to be a multiple of the alignment;
    // round the byte count up (std::free releases it, bypassing any
    // replaced operator new — see tests/test_threading.cpp).
    std::size_t bytes = n * sizeof(double);
    bytes = (bytes + kAlign - 1) / kAlign * kAlign;
    auto* p = static_cast<double*>(std::aligned_alloc(kAlign, bytes));
    TSEM_REQUIRE(p != nullptr);
    if (slab.cap > 0) std::memcpy(p, slab.data.get(), slab.cap * sizeof(double));
    slab.data.reset(p);
    slab.cap = bytes / sizeof(double);
  }

  std::array<Slab, kMaxThreads> slabs_{};
};

}  // namespace tsem
