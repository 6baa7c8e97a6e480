#include "nn/gat.h"

#include <cmath>
#include <stdexcept>

namespace predtop::nn {

using autograd::Variable;

GatConv::GatConv(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
                 float negative_slope)
    : linear_(in_features, out_features, rng, /*with_bias=*/false),
      negative_slope_(negative_slope) {
  const float limit = std::sqrt(6.0f / static_cast<float>(out_features + 1));
  attn_src_ = Variable(tensor::Tensor::RandUniform({out_features, 1}, rng, -limit, limit), true);
  attn_dst_ = Variable(tensor::Tensor::RandUniform({out_features, 1}, rng, -limit, limit), true);
  bias_ = Variable(tensor::Tensor({out_features}), true);
}

Variable GatConv::Forward(const Variable& x, const std::vector<std::int32_t>& edge_src,
                          const std::vector<std::int32_t>& edge_dst) const {
  if (edge_src.size() != edge_dst.size()) {
    throw std::invalid_argument("GatConv: edge arrays must have equal length");
  }
  const std::int64_t n = x.value().dim(0);
  const Variable h = linear_.Forward(x);  // (n, out)
  // Per-node attention contributions, then gathered per edge.
  const Variable src_scores = autograd::MatMul(h, attn_src_);  // (n, 1)
  const Variable dst_scores = autograd::MatMul(h, attn_dst_);  // (n, 1)
  const Variable e = autograd::LeakyRelu(
      autograd::Add(autograd::IndexSelectRows(src_scores, edge_src),
                    autograd::IndexSelectRows(dst_scores, edge_dst)),
      negative_slope_);  // (E, 1)
  // Normalize over incoming edges of each destination node.
  const Variable alpha = autograd::SegmentSoftmax(e, edge_dst, n);  // (E, 1)
  const Variable messages =
      autograd::RowScale(autograd::IndexSelectRows(h, edge_src), alpha);  // (E, out)
  const Variable aggregated = autograd::SegmentSum(messages, edge_dst, n);  // (n, out)
  return autograd::AddRowVector(aggregated, bias_);
}

std::vector<Variable*> GatConv::Parameters() {
  std::vector<Variable*> out = linear_.Parameters();
  out.push_back(&attn_src_);
  out.push_back(&attn_dst_);
  out.push_back(&bias_);
  return out;
}

std::vector<NamedParameter> GatConv::NamedParameters() {
  std::vector<NamedParameter> out;
  AppendNamedParameters(out, "linear", linear_);
  out.push_back({"attn_src", &attn_src_});
  out.push_back({"attn_dst", &attn_dst_});
  out.push_back({"bias", &bias_});
  return out;
}

}  // namespace predtop::nn
