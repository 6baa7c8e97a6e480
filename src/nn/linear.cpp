#include "nn/linear.h"

#include <cmath>
#include <stdexcept>

namespace predtop::nn {

using autograd::Variable;

Linear::Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
               bool with_bias)
    : in_(in_features), out_(out_features) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: feature counts must be positive");
  }
  const float limit = std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = Variable(
      tensor::Tensor::RandUniform({in_features, out_features}, rng, -limit, limit), true);
  if (with_bias) {
    bias_ = Variable(tensor::Tensor({out_features}), true);
  }
}

Variable Linear::Forward(const Variable& x) const {
  Variable y = autograd::MatMul(x, weight_);
  if (bias_.defined()) y = autograd::AddRowVector(y, bias_);
  return y;
}

std::shared_ptr<const Linear::InferWeights> Linear::SnapshotInferWeights() const {
  const std::uint64_t epoch = ParameterEpoch();
  std::lock_guard<std::mutex> lock(infer_cache_->mutex);
  std::shared_ptr<const InferWeights>& cached = infer_cache_->weights;
  if (cached == nullptr || cached->epoch != epoch) {
    auto fresh = std::make_shared<InferWeights>();
    fresh->epoch = epoch;
    const tensor::Tensor& w = weight_.value();
    if (out_ >= tensor::kGemmPanel && in_ >= 8) {
      // Shapes the packed tier can ever dispatch to (UsePackedGemm's k/n
      // preconditions; m is the per-call row count).
      tensor::PackBInto(w.data().data(), in_, out_, fresh->pack);
    }
    if (out_ < 16 && in_ >= 16) {
      fresh->weight_t = tensor::Transpose2D(w);  // narrow-output dot tier
    }
    cached = std::move(fresh);
  }
  return cached;
}

std::vector<Variable*> Linear::Parameters() {
  std::vector<Variable*> out{&weight_};
  if (bias_.defined()) out.push_back(&bias_);
  return out;
}

std::vector<NamedParameter> Linear::NamedParameters() {
  std::vector<NamedParameter> out{{"weight", &weight_}};
  if (bias_.defined()) out.push_back({"bias", &bias_});
  return out;
}

Mlp::Mlp(std::vector<std::int64_t> dims, util::Rng& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need at least input and output dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = autograd::Relu(h);
  }
  return h;
}

std::vector<Variable*> Mlp::Parameters() {
  std::vector<Variable*> out;
  for (auto& l : layers_) {
    for (auto* p : l.Parameters()) out.push_back(p);
  }
  return out;
}

std::vector<NamedParameter> Mlp::NamedParameters() {
  std::vector<NamedParameter> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    AppendNamedParameters(out, "layers." + std::to_string(i), layers_[i]);
  }
  return out;
}

}  // namespace predtop::nn
