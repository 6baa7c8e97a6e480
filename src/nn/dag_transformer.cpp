#include "nn/dag_transformer.h"

namespace predtop::nn {

using autograd::Variable;

DagTransformerLayer::DagTransformerLayer(std::int64_t dim, std::int64_t heads,
                                         std::int64_t ffn_mult, util::Rng& rng)
    : attention_(dim, heads, rng),
      ffn_in_(dim, ffn_mult * dim, rng),
      ffn_out_(ffn_mult * dim, dim, rng),
      norm1_gain_(tensor::Tensor::Full({dim}, 1.0f), true),
      norm1_bias_(tensor::Tensor({dim}), true),
      norm2_gain_(tensor::Tensor::Full({dim}, 1.0f), true),
      norm2_bias_(tensor::Tensor({dim}), true) {}

Variable DagTransformerLayer::Forward(
    const Variable& x,
    const std::shared_ptr<const tensor::AttentionMask>& reachability_mask) const {
  const Variable attn = attention_.Forward(x, reachability_mask);
  const Variable h1 =
      autograd::LayerNorm(autograd::Add(x, attn), norm1_gain_, norm1_bias_);
  const Variable ffn = ffn_out_.Forward(autograd::Relu(ffn_in_.Forward(h1)));
  return autograd::LayerNorm(autograd::Add(h1, ffn), norm2_gain_, norm2_bias_);
}

std::vector<Variable*> DagTransformerLayer::Parameters() {
  std::vector<Variable*> out = attention_.Parameters();
  for (auto* p : ffn_in_.Parameters()) out.push_back(p);
  for (auto* p : ffn_out_.Parameters()) out.push_back(p);
  out.push_back(&norm1_gain_);
  out.push_back(&norm1_bias_);
  out.push_back(&norm2_gain_);
  out.push_back(&norm2_bias_);
  return out;
}

std::vector<NamedParameter> DagTransformerLayer::NamedParameters() {
  std::vector<NamedParameter> out;
  AppendNamedParameters(out, "attention", attention_);
  AppendNamedParameters(out, "ffn_in", ffn_in_);
  AppendNamedParameters(out, "ffn_out", ffn_out_);
  out.push_back({"norm1.gain", &norm1_gain_});
  out.push_back({"norm1.bias", &norm1_bias_});
  out.push_back({"norm2.gain", &norm2_gain_});
  out.push_back({"norm2.bias", &norm2_bias_});
  return out;
}

}  // namespace predtop::nn
