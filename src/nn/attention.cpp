#include "nn/attention.h"

#include <stdexcept>

#include "autograd/functions.h"

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

Variable MultiheadMaskedAttention::Forward(
    const Variable& x, std::shared_ptr<const tensor::AttentionMask> mask) const {
  const Variable merged = autograd::MaskedAttention(wq_.Forward(x), wk_.Forward(x),
                                                    wv_.Forward(x), std::move(mask), heads_);
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
