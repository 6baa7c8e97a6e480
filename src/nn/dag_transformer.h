#pragma once
// DAG Transformer layer (paper Fig. 4 / Luo et al. NeurIPS'23): a standard
// post-LN Transformer encoder block whose attention is restricted by a DAG
// reachability mask (DAGRA). Depth positional encodings (DAGPE) are added to
// the input embedding by the caller before the first layer.

#include <cstdint>
#include <memory>

#include "nn/attention.h"

namespace predtop::nn {

class DagTransformerLayer : public Module {
 public:
  /// `ffn_mult` scales the feed-forward hidden width (ffn_mult * dim).
  DagTransformerLayer(std::int64_t dim, std::int64_t heads, std::int64_t ffn_mult,
                      util::Rng& rng);

  /// x: (n, dim); reachability mask: the (n, n) open lanes, packed once per
  /// model forward and shared by every layer. Returns (n, dim).
  [[nodiscard]] autograd::Variable Forward(
      const autograd::Variable& x,
      const std::shared_ptr<const tensor::AttentionMask>& reachability_mask) const;

  [[nodiscard]] std::vector<autograd::Variable*> Parameters() override;
  [[nodiscard]] std::vector<NamedParameter> NamedParameters() override;

  // Block structure for the compiled-program builder (predtop::compile).
  [[nodiscard]] const MultiheadMaskedAttention& Attention() const noexcept {
    return attention_;
  }
  [[nodiscard]] const Linear& FfnIn() const noexcept { return ffn_in_; }
  [[nodiscard]] const Linear& FfnOut() const noexcept { return ffn_out_; }
  [[nodiscard]] const autograd::Variable& Norm1Gain() const noexcept { return norm1_gain_; }
  [[nodiscard]] const autograd::Variable& Norm1Bias() const noexcept { return norm1_bias_; }
  [[nodiscard]] const autograd::Variable& Norm2Gain() const noexcept { return norm2_gain_; }
  [[nodiscard]] const autograd::Variable& Norm2Bias() const noexcept { return norm2_bias_; }

 private:
  MultiheadMaskedAttention attention_;
  Linear ffn_in_;
  Linear ffn_out_;
  autograd::Variable norm1_gain_;
  autograd::Variable norm1_bias_;
  autograd::Variable norm2_gain_;
  autograd::Variable norm2_bias_;
};

}  // namespace predtop::nn
