#include "nn/gcn.h"

namespace predtop::nn {

using autograd::Variable;

GcnConv::GcnConv(std::int64_t in_features, std::int64_t out_features, util::Rng& rng)
    : linear_(in_features, out_features, rng) {}

Variable GcnConv::Forward(const Variable& x, std::shared_ptr<const tensor::Csr> adj_norm,
                          std::shared_ptr<const tensor::Csr> adj_norm_t) const {
  // (Â (X W)) is cheaper than ((Â X) W) when out < in, and equivalent.
  return autograd::SpMM(std::move(adj_norm), std::move(adj_norm_t), linear_.Forward(x));
}

std::vector<Variable*> GcnConv::Parameters() { return linear_.Parameters(); }

std::vector<NamedParameter> GcnConv::NamedParameters() {
  std::vector<NamedParameter> out;
  AppendNamedParameters(out, "linear", linear_);
  return out;
}

}  // namespace predtop::nn
