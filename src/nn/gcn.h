#pragma once
// Graph Convolutional Network layer (Kipf & Welling '17): H' = Â H W + b
// with Â the symmetrically normalized adjacency (precomputed by the graph
// encoder). Activation is applied by the caller.

#include <cstdint>
#include <memory>

#include "nn/linear.h"
#include "tensor/sparse.h"

namespace predtop::nn {

class GcnConv : public Module {
 public:
  GcnConv(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

  /// x: (n, in); adj_norm / adj_norm_t: Â and Â^T. Returns (n, out).
  [[nodiscard]] autograd::Variable Forward(
      const autograd::Variable& x, std::shared_ptr<const tensor::Csr> adj_norm,
      std::shared_ptr<const tensor::Csr> adj_norm_t) const;

  [[nodiscard]] std::vector<autograd::Variable*> Parameters() override;
  [[nodiscard]] std::vector<NamedParameter> NamedParameters() override;

  /// Inner projection (the compiled-program builder records it directly).
  [[nodiscard]] const Linear& Projection() const noexcept { return linear_; }

 private:
  Linear linear_;
};

}  // namespace predtop::nn
