#pragma once
// Row-wise masked multi-head attention kernels (FlashAttention's row tiling,
// Dao et al. 2022, applied to the DAGRA mask). The forward never forms an
// (n, n) matrix: per (row, head) it computes the row's logits against a
// head-major K panel, takes the masked max, runs tensor::RowSoftmax's exp /
// sum / normalize passes with the simd.h helpers, multiplies P by V and
// keeps only the row's softmax shift and 1/sum. The backward recomputes each
// row of P from q, k, the mask and those two numbers. Both per-head products
// accumulate in the order of the tier tensor::MatMul would pick at that
// shape, which is what the compiled executor's unfused attention runs, so
// the two agree bit for bit there. Every reduction runs in a fixed order on
// the calling thread, and scratch is per thread, so results are
// deterministic and calls on different threads never share mutable state.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace predtop::tensor {

/// An (n, n) attention mask packed as per-row 64-bit open-lane words, the
/// row layout of graph::ReachabilityClosure: bit j % 64 of word j / 64 of
/// row i is set iff query i may attend to key j.
class AttentionMask {
 public:
  AttentionMask() = default;

  /// Pack an additive (n, n) mask: 0 opens a lane, -inf closes it. Throws
  /// std::invalid_argument for a non-square mask or any other entry.
  [[nodiscard]] static AttentionMask FromAdditive(const Tensor& additive_mask);
  /// Every lane open (unrestricted attention).
  [[nodiscard]] static AttentionMask AllOpen(std::int64_t n);

  [[nodiscard]] std::int64_t NumNodes() const noexcept { return n_; }
  [[nodiscard]] const std::uint64_t* Row(std::int64_t i) const noexcept {
    return bits_.data() + i * words_;
  }

 private:
  std::int64_t n_ = 0;
  std::int64_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Shapes of one attention call: q, k, v and out are row-major (n, dim) with
/// dim = heads * head_dim; head h owns columns [h * head_dim, (h+1) * head_dim).
struct AttentionShape {
  std::int64_t n = 0;
  std::int64_t heads = 0;
  std::int64_t head_dim = 0;
  [[nodiscard]] std::int64_t Dim() const noexcept { return heads * head_dim; }
};

/// out(i, head h) = sum_j P_ij v_j, P = softmax over the open lanes of row i
/// of scale * (q_i . k_j). `row_max` and `row_inv` (heads * n floats,
/// head-major) receive each (head, row)'s softmax shift and 1/sum. A row
/// with no open lane outputs zeros and gets row_inv 0.
void MaskedAttentionForward(const float* q, const float* k, const float* v,
                            AttentionShape shape, const AttentionMask& mask, float scale,
                            float* out, float* row_max, float* row_inv);

/// Gradients of MaskedAttentionForward given its output `out` and the
/// upstream gradient `dout`. Per row: recompute P, D_i = dout_i . out_i,
/// dv += P^T dout, dS = P o (dout v^T - D_i), dq = scale dS k and
/// dk += scale dS^T q. dq, dk and dv (n, dim) are overwritten. Rows with
/// row_inv 0 pass zero gradients.
void MaskedAttentionBackward(const float* q, const float* k, const float* v,
                             const float* out, const float* dout, AttentionShape shape,
                             const AttentionMask& mask, float scale, const float* row_max,
                             const float* row_inv, float* dq, float* dk, float* dv);

}  // namespace predtop::tensor
