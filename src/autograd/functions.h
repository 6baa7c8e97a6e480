#pragma once
// Differentiable operations over Variable. Each op computes its forward
// value eagerly with the kernels in tensor/ops.h and records a backward
// closure implementing the analytic vector-Jacobian product. Every op here
// has a central-difference gradient check in tests/autograd_test.cpp.

#include <cstdint>
#include <span>
#include <vector>

#include <memory>

#include "autograd/variable.h"
#include "tensor/attention.h"
#include "tensor/sparse.h"

namespace predtop::autograd {

// ---- linear algebra ----
Variable MatMul(const Variable& a, const Variable& b);
Variable Transpose(const Variable& a);

// ---- elementwise / broadcast ----
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Scale(const Variable& a, float s);
/// rows(m,n) + bias(n) broadcast over rows.
Variable AddRowVector(const Variable& m, const Variable& bias);

// ---- activations ----
Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float negative_slope);
Variable Gelu(const Variable& a);
Variable Tanh(const Variable& a);

// ---- normalization / attention ----
/// Row-wise softmax with a constant additive mask (-inf blocks attention);
/// the mask is data, not a differentiable input.
Variable MaskedRowSoftmax(const Variable& logits, const tensor::Tensor& additive_mask);
Variable RowSoftmax(const Variable& logits);
/// Multi-head masked attention as one node: q, k, v are (n, heads * head_dim)
/// and head h attends with its column block, softmax(q_h k_h^T / sqrt(head_dim)
/// restricted to the mask's open lanes) v_h, into the same block of the (n,
/// heads * head_dim) output. The node saves only each (head, row)'s softmax
/// shift and 1/sum and recomputes P row by row in its backward (see
/// tensor/attention.h); no (n, n) tensor is formed in either direction. The
/// mask is shared, not copied, and outlives the node through this reference.
Variable MaskedAttention(const Variable& q, const Variable& k, const Variable& v,
                         std::shared_ptr<const tensor::AttentionMask> mask,
                         std::int64_t heads);
/// MaskedAttention with an additive (n, n) mask of 0 / -inf entries, packed
/// before the call returns (std::invalid_argument for any other entry).
Variable MaskedAttention(const Variable& q, const Variable& k, const Variable& v,
                         const tensor::Tensor& additive_mask, std::int64_t heads);
/// Row-wise layer normalization with affine parameters gain/bias of shape
/// (cols).
Variable LayerNorm(const Variable& x, const Variable& gain, const Variable& bias,
                   float eps = 1e-5f);

// ---- shape surgery ----
/// Columns [start, start+count) of a 2-D input.
Variable SliceCols(const Variable& x, std::int64_t start, std::int64_t count);
/// Horizontal concatenation of 2-D inputs with equal row counts.
Variable ConcatCols(std::span<const Variable> parts);

/// Scale each row of x(m,c) by the scalar in s(m,1).
Variable RowScale(const Variable& x, const Variable& s);

/// Y = A * X for a constant sparse adjacency A (GCN message passing). A is
/// data, not a differentiable input; `a_transposed` must be A^T and is used
/// by the backward pass.
Variable SpMM(std::shared_ptr<const tensor::Csr> a,
              std::shared_ptr<const tensor::Csr> a_transposed, const Variable& x);

// ---- gather / scatter (graph ops) ----
/// out[i] = x[indices[i]] (row gather); backward scatter-adds.
Variable IndexSelectRows(const Variable& x, std::vector<std::int32_t> indices);
/// Sum rows of x into `num_segments` output rows keyed by segment id.
Variable SegmentSum(const Variable& x, std::vector<std::int32_t> segment_ids,
                    std::int64_t num_segments);
/// Column-independent softmax within each segment of rows (GAT edge
/// normalization). Empty segments produce no contribution.
Variable SegmentSoftmax(const Variable& x, std::vector<std::int32_t> segment_ids,
                        std::int64_t num_segments);
/// (m,d) -> (1,d): sum over nodes (paper Eqn. 2 global add pool).
Variable GlobalAddPool(const Variable& x);

// ---- losses (scalar outputs, shape (1,1)) ----
/// |pred - target| for a (1,1) prediction (paper Eqn. 3 per-sample term).
Variable AbsError(const Variable& pred, float target);
/// (pred - target)^2 for a (1,1) prediction.
Variable SquaredError(const Variable& pred, float target);

}  // namespace predtop::autograd
