#pragma once
// The black-box stage-latency predictor zoo (paper §IV + §VII-D): the DAG
// Transformer model and the GCN / GAT baselines, behind one interface so the
// training and evaluation harnesses are architecture-agnostic.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "compile/cache.h"
#include "compile/program.h"
#include "graph/encode.h"
#include "nn/dag_transformer.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace predtop::util {
class ThreadPool;
}  // namespace predtop::util

namespace predtop::core {

enum class PredictorKind { kDagTransformer, kGcn, kGat };
[[nodiscard]] const char* PredictorKindName(PredictorKind kind) noexcept;

struct PredictorOptions {
  /// Input feature width (graph::NodeFeatureWidth of the IR vocabularies).
  std::int64_t feature_dim = 0;
  /// DAG Transformer: paper §IV-B6 uses 4 layers of dim 64.
  std::int64_t dagt_dim = 64;
  std::int64_t dagt_layers = 4;
  std::int64_t dagt_heads = 4;
  std::int64_t dagt_ffn_mult = 2;
  /// GCN baseline: paper §VII-D uses 6 layers of 256.
  std::int64_t gcn_dim = 256;
  std::int64_t gcn_layers = 6;
  /// GAT baseline: paper §VII-D uses 6 layers of hidden 32.
  std::int64_t gat_dim = 32;
  std::int64_t gat_layers = 6;
  /// Ablations (paper's DAG-specific biases).
  bool use_dagra = true;  // reachability attention mask
  bool use_dagpe = true;  // depth positional encoding
  std::uint64_t seed = 0x12345ULL;
};

/// A graph-in, scalar-out regressor over encoded stage DAGs.
class StagePredictor : public nn::Module {
 public:
  /// Evicts this instance's compiled programs from the global cache, so a
  /// hot-swapped model releases both the programs and the packed-weight
  /// snapshots they pin (the registry-swap leak fix).
  ~StagePredictor() override;

  /// Prediction in normalized target space, shape (1, 1).
  [[nodiscard]] virtual autograd::Variable Forward(const graph::EncodedGraph& g) = 0;

  /// Inference-only prediction (the same normalized scalar as Forward):
  /// runs the compiled program for g's shape class (see
  /// compile::InferProgram) and answers on the autograd tape when
  /// BuildProgram refuses the input or Execute rejects it. Safe to call
  /// from many threads concurrently, but not concurrently with parameter
  /// mutation.
  [[nodiscard]] float Infer(const graph::EncodedGraph& g);

  [[nodiscard]] virtual std::string Name() const = 0;

  /// Program-cache owner key of this instance.
  [[nodiscard]] std::uint64_t InstanceId() const noexcept { return instance_id_; }

  /// Compiled execution of `count` graphs of ONE shape class (same
  /// (num_nodes, num_edges) — the caller groups), writing one normalized
  /// scalar per graph. The program is resolved once, on graphs[0]; each
  /// graph then runs one sequential compile::Execute, fanned out on `pool`
  /// when given (the calling thread takes part) and one after another on
  /// the calling thread otherwise, so results are bit-identical to `count`
  /// TryInferCompiled calls. False = not compiled / shape mismatch (`out`
  /// is then unspecified): the caller falls back to sequential prediction.
  [[nodiscard]] bool TryInferCompiledBatch(const graph::EncodedGraph* const* graphs,
                                           std::size_t count, float* out,
                                           util::ThreadPool* pool = nullptr);

 protected:
  /// Compiled program for g's shape class: LRU-cached globally, recorded via
  /// BuildProgram on a miss (null results are cached too, so uncompilable
  /// shapes pay the builder once). nullptr = answer on the tape.
  [[nodiscard]] std::shared_ptr<compile::InferProgram> CachedProgram(
      const graph::EncodedGraph& g);

  /// Record this predictor's forward as a compilable program; base: none.
  [[nodiscard]] virtual std::shared_ptr<compile::InferProgram> BuildProgram(
      const graph::EncodedGraph& g) const {
    (void)g;
    return nullptr;
  }

  /// Execute the compiled program for g, writing the normalized prediction
  /// to *out. False = not compiled / shape mismatch: answer on the tape.
  /// Externals come from FillExecInputs.
  [[nodiscard]] bool TryInferCompiled(const graph::EncodedGraph& g, float* out);

  /// Resolve g's execution inputs for the compiled path. Overrides supply
  /// predictor-specific externals (DAGRA mask, depth encodings); `keepalive`
  /// pins any cached tensor the inputs point into for the call's duration.
  /// Base: just the graph.
  virtual void FillExecInputs(const graph::EncodedGraph& g, compile::ExecInputs& inputs,
                              std::shared_ptr<const tensor::Tensor>& keepalive);

 private:
  std::uint64_t instance_id_ = compile::NextOwnerId();
};

[[nodiscard]] std::unique_ptr<StagePredictor> MakePredictor(PredictorKind kind,
                                                            const PredictorOptions& options);

// ---- predictor checkpoint section (the payload of *.ptck files) ----
//
// Layout: kind tag (i32), PredictorOptions, named-parameter state dict.
// The loader reconstructs the architecture from (kind, options) and then
// restores weights by name, so a load into the wrong architecture is
// rejected instead of silently misassigning tensors. Framing (magic,
// format version, normalization stats) is added by the callers
// (core::LatencyRegressor, predtop::serve).

/// Serialize a trained predictor (architecture tag + options + weights).
void SavePredictor(std::ostream& out, PredictorKind kind, const PredictorOptions& options,
                   StagePredictor& model);

struct LoadedPredictor {
  PredictorKind kind{};
  PredictorOptions options;
  std::unique_ptr<StagePredictor> model;
};

/// Rebuild a predictor from a checkpoint section written by SavePredictor.
/// Throws std::runtime_error on truncation, unknown kind, or weight-name /
/// shape mismatches.
[[nodiscard]] LoadedPredictor LoadPredictor(std::istream& in);

}  // namespace predtop::core
