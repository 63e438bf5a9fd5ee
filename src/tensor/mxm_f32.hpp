// Single-precision mxm kernels for the FP32 Schwarz/FDM preconditioner
// path (DESIGN.md "Precision policy").
//
// smxm/smxm_bt dispatch once per process to the widest runnable float
// tier: the hand-vectorized AVX-512 (16-lane) or AVX2/FMA (8-lane)
// kernels when compiled in and supported by the CPU, else portable
// scalar loops.  At a given ISA width a float product moves half the
// bytes and runs twice the lanes of its double counterpart, which is
// where the preconditioner-apply speedup comes from — the hand tiers
// matter because the compiler cannot reassociate the bt dot-product
// reductions.  They are NOT part of mxm()'s static dispatch, which
// governs the FP64 operator path only; the FP32 tier is reached solely
// through FdmLocal::solve_batch_f32 under TSEM_PRECOND_FP32.
//
// Numerics: ascending-l accumulation like the scalar FP64 kernels, but in
// float — results carry single-precision rounding by design.  The
// preconditioner contract that absorbs this is iteration-count +
// achieved-residual, not bitwise (tests/convergence_contract.hpp).
#pragma once

namespace tsem {

/// C (m x n) = A (m x k) * B (k x n), dense row-major float, C
/// overwritten.
void smxm(const float* a, int m, const float* b, int k, float* c, int n);

/// C (m x n) = A (m x k) * B^T with B stored (n x k) row-major float.
void smxm_bt(const float* a, int m, const float* b, int k, float* c, int n);

}  // namespace tsem
