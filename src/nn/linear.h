#pragma once
// Fully-connected layer and a small MLP helper.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "autograd/functions.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace predtop::nn {

/// y = x W + b with W (in, out) Glorot-initialized.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng,
         bool with_bias = true);

  [[nodiscard]] autograd::Variable Forward(const autograd::Variable& x) const;

  [[nodiscard]] std::vector<autograd::Variable*> Parameters() override;
  [[nodiscard]] std::vector<NamedParameter> NamedParameters() override;

  [[nodiscard]] std::int64_t InFeatures() const noexcept { return in_; }
  [[nodiscard]] std::int64_t OutFeatures() const noexcept { return out_; }

  /// Weight matrix handle (exposed for GAT attention vectors etc.).
  [[nodiscard]] autograd::Variable& Weight() noexcept { return weight_; }
  [[nodiscard]] const autograd::Variable& Weight() const noexcept { return weight_; }
  /// Bias handle, or nullptr for a bias-free layer.
  [[nodiscard]] const autograd::Variable* Bias() const noexcept {
    return bias_.defined() ? &bias_ : nullptr;
  }

  /// Immutable per-epoch derived forms of the weight; readers hold a
  /// shared_ptr so a concurrent repack can never free data under them.
  struct InferWeights {
    std::uint64_t epoch = 0;
    tensor::PackedB pack;       // packed weight for the blocked GEMM tier
    tensor::Tensor weight_t;    // W^T for the narrow-output dot tier
  };

  /// Current weight snapshot (lazily rebuilt when ParameterEpoch moves). The compiled inference programs hold these per
  /// step so a warm forward revalidates one epoch load instead of taking
  /// every layer's cache mutex.
  [[nodiscard]] std::shared_ptr<const InferWeights> SnapshotInferWeights() const;

 private:
  // Heap-held so the mutex does not make Linear unmovable (Mlp stores
  // Linears by value).
  struct InferCache {
    std::mutex mutex;
    std::shared_ptr<const InferWeights> weights;
  };

  std::int64_t in_;
  std::int64_t out_;
  autograd::Variable weight_;
  autograd::Variable bias_;  // undefined when with_bias == false
  mutable std::unique_ptr<InferCache> infer_cache_ = std::make_unique<InferCache>();
};

/// Multi-layer perceptron: Linear -> ReLU -> ... -> Linear (no final
/// activation). `dims` lists layer widths including input and output, e.g.
/// {64, 64, 1} builds Linear(64,64)+ReLU+Linear(64,1). Used for the
/// regression head after pooling (paper §IV-B5).
class Mlp : public Module {
 public:
  Mlp(std::vector<std::int64_t> dims, util::Rng& rng);

  [[nodiscard]] autograd::Variable Forward(const autograd::Variable& x) const;

  [[nodiscard]] std::vector<autograd::Variable*> Parameters() override;
  [[nodiscard]] std::vector<NamedParameter> NamedParameters() override;

  /// Layer list (the compiled-program builder records one step per layer).
  [[nodiscard]] const std::vector<Linear>& Layers() const noexcept { return layers_; }

 private:
  std::vector<Linear> layers_;
};

}  // namespace predtop::nn
