// Fixed-(m,k,n) kernel tier — the "ghm" specialized-library stand-in:
// the header-only mxm_fixed<M,K,N> template instantiated at the shapes
// the discretization runs, and the "fixed" kernel of mxm()'s static
// dispatch (mxm.hpp).
//
// mxm_fixed_dispatch exact-matches the runtime shape against a set of
// precompiled instantiations covering the shapes the discretization
// actually runs at orders N = 8..16:
//
//   cubes        (d, d, d)    for d = 2..16   — tensor middle stages and
//                                               2D element products
//   long shapes  (d, d, d*d)  for d = 2..16   — tensor3_apply final stage
//                                               (collapsed plane extent)
//
// and falls back to the scalar f2/f3 shape rule otherwise, so it is safe
// under ANY call shape.  The restrict-qualified constant-extent loops let
// the compiler vectorize aggressively, so agreement with the reference
// kernels is the family's relative accuracy contract, not bitwise
// (DESIGN.md "Tolerance vs. bitwise policy").  No runtime ISA gate — the
// codegen is whatever -march allows everywhere.
#pragma once

namespace tsem {

/// C (m x n) = A (m x k) * B (k x n) through a compile-time-extent
/// instantiation when (m, k, n) is covered, scalar f2/f3 otherwise.
void mxm_fixed_dispatch(const double* a, int m, const double* b, int k,
                        double* c, int n);

/// True when (m, k, n) hits a precompiled fixed instantiation.
bool mxm_fixed_covers(int m, int k, int n);

}  // namespace tsem
