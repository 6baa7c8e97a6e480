#pragma once
// Fused epilogue kernels for the compiled inference programs (predtop::compile).
//
// Each kernel applies the per-element float sequence of the tape op chain it
// replaces — GEMM accumulate, then +bias (autograd::AddRowVector), then
// activation / +residual, then LayerNorm (autograd::LayerNorm) — with two
// deliberate reorderings inside the documented 1e-6 parity contract: the
// LayerNorm reductions are lane-split simd sums (~1e-7 of the tape's
// sequential loops), and the attention softmax defers its normalization to
// the (n, head_dim) output. Fusion buys the memory passes, not a different
// formula.
//
// The deferred-softmax row kernels take the row's open-lane runs: lanes
// outside them are provably −inf-masked (weight exactly 0), so the caller
// can skip both their logit GEMM columns and their exp lanes. The retry
// path checks the mask instead of adding it — adding −inf to an overflowed
// +inf logit manufactures NaN.

#include <cstdint>

namespace predtop::tensor::fused {

enum class Act : std::uint8_t { kNone = 0, kRelu = 1, kGelu = 2 };

/// In-place epilogue over `rows` rows of stride `ldc`: row[j] += bias[j]
/// (skipped when bias is null), then the activation. Same op order as the
/// tape's AddRowVector followed by Relu/Gelu.
void BiasActRows(float* c, std::int64_t rows, std::int64_t cols, std::int64_t ldc,
                 const float* bias, Act act) noexcept;

/// One LayerNorm row: orow = gain * (xrow - mean) / sqrt(var + eps) + bias,
/// reduced with simd::Sum / simd::SumSquaredDiff (lane-split sums, ~1e-7 of
/// autograd::LayerNorm's sequential loops).
void LayerNormRow(const float* xrow, const float* gain, const float* bias, float* orow,
                  std::int64_t cols, float eps = 1e-5f) noexcept;

/// One row of the deferred-normalization masked softmax over the row's
/// exact open-lane runs (the compiled executor precomputes them once per
/// graph shape — the reachability mask is a shape invariant). `chunks`
/// holds `num_chunks` [lo, hi) pairs in ascending order; every lane outside
/// the runs is -inf masked and written as exact 0, and lanes inside need no
/// mask check at all. The exp shift is the max over the open lanes — the
/// same shift the tape's fused attention node (tensor/attention.h) takes
/// over its masked logits — so a masked logit can never dominate the shift
/// and no underflow retry is needed. Writes the deferred 1/sum factor to *inv (0 for a row with no
/// open lane). `orow` may equal `lrow`.
void DeferredSoftmaxRowChunks(const float* lrow, float* orow, std::int64_t cols,
                              const std::int32_t* chunks, std::int64_t num_chunks,
                              float* inv) noexcept;

/// The mask-checking retry of the unfused attention executor's deferred
/// softmax, which shifts by the *unmasked* row max and lands here when every
/// open lane underflowed against it: shift by the max over lanes whose mask
/// survives (never adding the mask), write exp weights over [0, n), return
/// the 1/sum factor (0 when no lane survives or every surviving lane
/// underflows).
[[nodiscard]] float MaskedSoftmaxRetryRow(const float* lrow, const float* mrow,
                                          float* orow, std::int64_t n) noexcept;

}  // namespace predtop::tensor::fused
