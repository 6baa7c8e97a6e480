#pragma once
// Multi-head scaled-dot-product attention with an additive mask — the core
// of the DAG Transformer layer (paper Eqn. 1): the mask carries the DAG
// reachability structure (0 where attention is allowed, -inf elsewhere).

#include <cstdint>
#include <memory>

#include "nn/linear.h"
#include "tensor/attention.h"

namespace predtop::nn {

class MultiheadMaskedAttention : public Module {
 public:
  /// `dim` must be divisible by `heads`.
  MultiheadMaskedAttention(std::int64_t dim, std::int64_t heads, util::Rng& rng);

  /// x: (n, dim); mask: the (n, n) open lanes (tensor::AttentionMask packs
  /// an additive 0 / -inf mask), shared across heads and, in the DAG
  /// Transformer, across layers. The projections wrap one
  /// autograd::MaskedAttention node. Returns (n, dim).
  [[nodiscard]] autograd::Variable Forward(
      const autograd::Variable& x, std::shared_ptr<const tensor::AttentionMask> mask) const;

  [[nodiscard]] std::vector<autograd::Variable*> Parameters() override;
  [[nodiscard]] std::vector<NamedParameter> NamedParameters() override;

  [[nodiscard]] std::int64_t Heads() const noexcept { return heads_; }
  [[nodiscard]] std::int64_t Dim() const noexcept { return dim_; }
  [[nodiscard]] std::int64_t HeadDim() const noexcept { return head_dim_; }

  // Projection handles for the compiled-program builder (predtop::compile),
  // which records the q/k/v/o chain as one fused step.
  [[nodiscard]] const Linear& Wq() const noexcept { return wq_; }
  [[nodiscard]] const Linear& Wk() const noexcept { return wk_; }
  [[nodiscard]] const Linear& Wv() const noexcept { return wv_; }
  [[nodiscard]] const Linear& Wo() const noexcept { return wo_; }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace predtop::nn
