#pragma once
// Base class for parameterized models. Modules own their parameter
// Variables; optimizers and checkpoint snapshots operate on the flat
// parameter list, while serialization walks the *named* parameter list
// (a state dict) so checkpoints are self-describing and loads can reject
// architecture mismatches by name instead of by position.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace predtop::nn {

/// One entry of a module's state dict: a dotted path ("layers.2.ffn_in.weight")
/// plus a handle to the parameter it names.
struct NamedParameter {
  std::string name;
  autograd::Variable* variable = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  /// Flat list of trainable parameters (stable order across calls).
  [[nodiscard]] virtual std::vector<autograd::Variable*> Parameters() = 0;

  /// Named parameters in Parameters() order. The default derives positional
  /// names ("param.0", ...); layers override with structural names so
  /// checkpoints survive refactors that keep the module graph shape.
  [[nodiscard]] virtual std::vector<NamedParameter> NamedParameters();

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t ParameterCount();

  void ZeroGrad();

  /// Copy parameter values out (for best-weights checkpoints).
  [[nodiscard]] std::vector<tensor::Tensor> SnapshotParameters();
  /// Restore a snapshot taken from the same module.
  void RestoreParameters(const std::vector<tensor::Tensor>& snapshot);

  /// Serialize / restore the state dict (see nn/serialize.h for the format).
  /// Load validates parameter names and shapes and throws on any mismatch.
  void Save(std::ostream& out);
  void Load(std::istream& in);
};

/// Process-wide monotonic counter of in-place parameter mutations. Cached
/// derived forms of the weights (nn::Linear's packed snapshots and the
/// compiled programs' snapshots built from them) record the epoch they were
/// built at and rebuild lazily when it has moved. Starts at 1 so "epoch 0"
/// is always stale. Concurrent inference is supported; mutating parameters
/// concurrently with inference on the same module is not.
[[nodiscard]] std::uint64_t ParameterEpoch() noexcept;
/// Call after mutating any parameter Variable's value in place outside the
/// optimizer / RestoreParameters / state-dict paths (those bump it
/// themselves).
void BumpParameterEpoch() noexcept;

/// Append `child`'s named parameters under `prefix` + "." (helper for
/// composite modules building their own NamedParameters()).
void AppendNamedParameters(std::vector<NamedParameter>& out, const std::string& prefix,
                           Module& child);

}  // namespace predtop::nn
