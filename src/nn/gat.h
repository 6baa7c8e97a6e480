#pragma once
// Graph Attention Network layer (Velickovic et al. '18), single-head:
//   h_i' = sum_{j in N(i)} alpha_ij (W h_j) + b
//   e_ij = LeakyReLU(a_src . Wh_j + a_dst . Wh_i), alpha = softmax_j(e_ij)
// over an edge list that must include self-loops (ensured by the encoder).

#include <cstdint>
#include <vector>

#include "nn/linear.h"

namespace predtop::nn {

class GatConv : public Module {
 public:
  GatConv(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
          float negative_slope = 0.2f);

  /// x: (n, in); edges given as parallel src/dst arrays (message flows
  /// src -> dst). Returns (n, out).
  [[nodiscard]] autograd::Variable Forward(const autograd::Variable& x,
                                           const std::vector<std::int32_t>& edge_src,
                                           const std::vector<std::int32_t>& edge_dst) const;

  [[nodiscard]] std::vector<autograd::Variable*> Parameters() override;
  [[nodiscard]] std::vector<NamedParameter> NamedParameters() override;

  // Structure accessors for the compiled-program builder (predtop::compile).
  [[nodiscard]] const Linear& Projection() const noexcept { return linear_; }
  [[nodiscard]] const autograd::Variable& AttnSrc() const noexcept { return attn_src_; }
  [[nodiscard]] const autograd::Variable& AttnDst() const noexcept { return attn_dst_; }
  [[nodiscard]] const autograd::Variable& BiasVar() const noexcept { return bias_; }
  [[nodiscard]] float NegativeSlope() const noexcept { return negative_slope_; }

 private:
  Linear linear_;
  autograd::Variable attn_src_;  // (out, 1)
  autograd::Variable attn_dst_;  // (out, 1)
  autograd::Variable bias_;      // (out)
  float negative_slope_;
};

}  // namespace predtop::nn
