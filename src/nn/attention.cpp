#include "nn/attention.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace predtop::nn {

using autograd::Variable;

MultiheadMaskedAttention::MultiheadMaskedAttention(std::int64_t dim, std::int64_t heads,
                                                   util::Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(heads > 0 ? dim / heads : 0),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  if (heads <= 0 || dim % heads != 0) {
    throw std::invalid_argument("MultiheadMaskedAttention: dim must be divisible by heads");
  }
}

Variable MultiheadMaskedAttention::Forward(const Variable& x,
                                           const tensor::Tensor& additive_mask) const {
  const std::int64_t n = x.value().dim(0);
  if (additive_mask.rank() != 2 || additive_mask.dim(0) != n || additive_mask.dim(1) != n) {
    throw std::invalid_argument("MultiheadMaskedAttention: mask must be (n, n)");
  }
  const Variable q = wq_.Forward(x);
  const Variable k = wk_.Forward(x);
  const Variable v = wv_.Forward(x);
  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  std::vector<Variable> head_outputs;
  head_outputs.reserve(static_cast<std::size_t>(heads_));
  for (std::int64_t h = 0; h < heads_; ++h) {
    const std::int64_t off = h * head_dim_;
    const Variable qh = autograd::SliceCols(q, off, head_dim_);
    const Variable kh = autograd::SliceCols(k, off, head_dim_);
    const Variable vh = autograd::SliceCols(v, off, head_dim_);
    const Variable logits =
        autograd::Scale(autograd::MatMul(qh, autograd::Transpose(kh)), inv_sqrt_dk);
    const Variable attn = autograd::MaskedRowSoftmax(logits, additive_mask);
    head_outputs.push_back(autograd::MatMul(attn, vh));
  }
  const Variable merged = autograd::ConcatCols(head_outputs);
  return wo_.Forward(merged);
}

std::vector<Variable*> MultiheadMaskedAttention::Parameters() {
  std::vector<Variable*> out;
  for (auto* layer : {&wq_, &wk_, &wv_, &wo_}) {
    for (auto* p : layer->Parameters()) out.push_back(p);
  }
  return out;
}

std::vector<NamedParameter> MultiheadMaskedAttention::NamedParameters() {
  std::vector<NamedParameter> out;
  AppendNamedParameters(out, "wq", wq_);
  AppendNamedParameters(out, "wk", wk_);
  AppendNamedParameters(out, "wv", wv_);
  AppendNamedParameters(out, "wo", wo_);
  return out;
}

}  // namespace predtop::nn
