#pragma once
// Fusion pass over a recorded (unfused) InferProgram. Patterns, in order:
//
//  1. attention chain   [Linear(Wq), Linear(Wk), Linear(Wv), Scale(q),
//                        AttnHeads]            -> kFusedAttention
//     (combined q|k|v pack + folded 1/sqrt(dk); requires dim to be a
//     kGemmPanel multiple so the combined pack is bit-identical to three
//     separate packs, and requires every GEMM in the chain to take the
//     packed tier — the fused kernel is all-packed, so fusing a shape the
//     tape's MatMul would run naive/narrow would change the float bits)
//  2. residual norm     [Linear -> y, Add(y, r), LayerNorm(y)]
//                                              -> kLinearResidualNorm
//  3. activation        [Linear -> y, Relu(y)] -> kLinearAct
//
// Each match is validated with value use counts (the fused intermediate must
// have no other reader), so a pattern that merely *looks* adjacent is never
// fused incorrectly. Matching is intentionally conservative: a miss leaves
// the unfused steps in place, which stays correct — the executor runs an
// unfused kAttnHeads through the same per-head kernels and GEMM tiers as the
// tape's attention.

#include "compile/program.h"

namespace predtop::compile {

/// Rewrites `p.steps` in place and assigns snapshot slots to the fused
/// attention steps.
void FusePatterns(InferProgram& p);

}  // namespace predtop::compile
