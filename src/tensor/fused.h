#pragma once
// Fused epilogue kernels for the compiled inference programs (predtop::compile).
//
// Each kernel applies exactly the per-element float sequence of the unfused
// op chain it replaces — GEMM accumulate, then +bias, then activation /
// +residual, then LayerNorm with the same simd reductions as infer::LayerNorm
// — so a fused forward is bit-identical to the op-by-op fast path wherever
// that path is bit-identical to the tape, and stays inside the documented
// 1e-6 parity contract everywhere else. Fusion buys the memory passes, not a
// different formula.
//
// The deferred-softmax row kernel additionally takes an open-lane window
// [lo, hi): lanes outside the window are provably −inf-masked (weight exactly
// 0), so the caller can skip both their logit GEMM columns and their exp
// lanes. The retry path checks the mask instead of adding it — adding −inf to
// an overflowed +inf logit manufactures NaN (the RowSoftmaxDeferred bug this
// kernel also fixes for the op-by-op path, which calls it with a full-row
// window).

#include <cstdint>

namespace predtop::tensor::fused {

enum class Act : std::uint8_t { kNone = 0, kRelu = 1, kGelu = 2 };

/// In-place epilogue over `rows` rows of stride `ldc`: row[j] += bias[j]
/// (skipped when bias is null), then the activation. Same op order as
/// AddRowVectorInPlace followed by Relu/Gelu in place.
void BiasActRows(float* c, std::int64_t rows, std::int64_t cols, std::int64_t ldc,
                 const float* bias, Act act) noexcept;

/// One LayerNorm row: orow = gain * (xrow - mean) / sqrt(var + eps) + bias,
/// with the identical simd::Sum / simd::SumSquaredDiff reductions as
/// infer::LayerNorm (lane-split sums, ~1e-7 of the sequential training path).
void LayerNormRow(const float* xrow, const float* gain, const float* bias, float* orow,
                  std::int64_t cols, float eps = 1e-5f) noexcept;

/// One row of the deferred-normalization masked softmax restricted to the
/// open-lane window [lo, hi); lanes outside are set to exact 0. `mrow` (the
/// additive mask row, 0 / -inf) may be null. Writes the deferred 1/sum factor
/// to *inv (0 for a row with no surviving lane, so 0 * inv stays 0). The exp
/// shift is the window's unmasked max, exactly like RowSoftmaxDeferred; the
/// rare retry (underflow against a masked-lane-dominated shift) re-shifts by
/// the max over mask-checked open lanes only.
void DeferredSoftmaxRowWindow(const float* lrow, const float* mrow, float* orow,
                              std::int64_t cols, std::int64_t lo, std::int64_t hi,
                              float* inv) noexcept;

/// Chunked variant of DeferredSoftmaxRowWindow for callers that know the
/// row's exact open-lane runs (the compiled executor precomputes them once
/// per graph shape — the reachability mask is a shape invariant). `chunks`
/// holds `num_chunks` [lo, hi) pairs in ascending order; every lane outside
/// the runs is -inf masked and written as exact 0, and lanes inside need no
/// mask check at all. The exp shift is the max over the open lanes — the
/// same shift the tape's RowSoftmax sees after adding the mask — so a
/// masked logit can never dominate the shift and the windowed variant's
/// underflow retry is structurally impossible. `orow` may equal `lrow`.
void DeferredSoftmaxRowChunks(const float* lrow, float* orow, std::int64_t cols,
                              const std::int32_t* chunks, std::int64_t num_chunks,
                              float* inv) noexcept;

/// The mask-checking retry shared with infer::RowSoftmaxDeferred: shift by
/// the max over lanes whose mask survives (never adding the mask), write exp
/// weights over [0, n), return the 1/sum factor (0 when no lane survives or
/// every surviving lane underflows).
[[nodiscard]] float MaskedSoftmaxRetryRow(const float* lrow, const float* mrow,
                                          float* orow, std::int64_t n) noexcept;

}  // namespace predtop::tensor::fused
