#pragma once
// LatencyRegressor: a StagePredictor plus target normalization and the
// training protocol of paper §IV-B (MAE loss, Adam with cosine decay, early
// stopping). Targets default to linear space scaled by the training-set mean
// — the paper regresses raw latency with MAE, and linear targets match the
// additive inductive bias of global-add pooling (pooled features grow with
// graph size the same way latency does). A standardized-log transform is
// available as an ablation.

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/predictors.h"
#include "nn/trainer.h"

namespace predtop::util {
class ThreadPool;
}  // namespace predtop::util

namespace predtop::core {

enum class TargetTransform { kLinearMeanScaled, kLogStandardized };

class LatencyRegressor {
 public:
  LatencyRegressor(PredictorKind kind, PredictorOptions options,
                   TargetTransform transform = TargetTransform::kLinearMeanScaled);

  /// Train on `train_indices` (early-stopping on `val_indices`), fitting the
  /// target normalization to the training labels.
  nn::TrainResult Fit(const StageDataset& dataset, std::span<const std::size_t> train_indices,
                      std::span<const std::size_t> val_indices,
                      const nn::TrainConfig& train_config);

  /// Predicted stage latency in seconds through StagePredictor::Infer: the
  /// compiled program for g's shape class, or the tape for an input the
  /// program builder refuses.
  [[nodiscard]] double PredictSeconds(const graph::EncodedGraph& g);

  /// Reference prediction through the autograd tape (always available; used
  /// by parity tests and benchmarks as the baseline).
  [[nodiscard]] double PredictSecondsTape(const graph::EncodedGraph& g);

  /// Predictions for a batch of graphs. Groups the batch by shape class
  /// ((num_nodes, num_edges)), resolves each group's compiled program once
  /// and runs compile::Execute for every member (see
  /// StagePredictor::TryInferCompiledBatch), falling back to per-graph
  /// PredictSeconds when a group is not compilable. With a `pool`, the
  /// groups run as concurrent tasks on it (the calling thread runs tasks
  /// too) and each group's members fan out on the same pool; without one
  /// everything runs one after another on the calling thread. Results are
  /// bit-identical to calling PredictSeconds per graph in every case: each
  /// forward is one independent sequential execution.
  [[nodiscard]] std::vector<double> PredictBatch(std::span<const graph::EncodedGraph> graphs,
                                                 util::ThreadPool* pool = nullptr);
  /// Pointer-span overload (predtop::serve batches deduplicated queries that
  /// are not contiguous in memory).
  [[nodiscard]] std::vector<double> PredictBatch(
      std::span<const graph::EncodedGraph* const> graphs, util::ThreadPool* pool = nullptr);

  /// Mean relative error (%) vs the samples' true latencies (paper Eqn. 5).
  [[nodiscard]] double MrePercent(const StageDataset& dataset,
                                  std::span<const std::size_t> indices);

  [[nodiscard]] PredictorKind Kind() const noexcept { return kind_; }
  [[nodiscard]] StagePredictor& Model() noexcept { return *model_; }
  [[nodiscard]] TargetTransform Transform() const noexcept { return transform_; }

  /// Persist the trained predictor as a versioned `.ptck` checkpoint —
  /// magic, format version, length-prefixed payload (model-kind tag,
  /// architecture options, target transform + normalization stats,
  /// named-parameter state dict) and a CRC32 footer — so one
  /// profiling+training pass serves many plan searches and a reload in a
  /// fresh process reproduces bit-identical predictions. The file overload
  /// saves atomically (write temp, then rename). Load throws
  /// fault::CorruptionError (a std::runtime_error) on bad magic, unsupported
  /// version, truncation, CRC mismatch, hostile length prefixes, or
  /// weight-name/shape mismatches, and fault::IoError on open/read failures
  /// (including injected ckpt_read/ckpt_write faults).
  void Save(std::ostream& out);
  void Save(const std::string& path);
  [[nodiscard]] static LatencyRegressor Load(std::istream& in);
  [[nodiscard]] static LatencyRegressor Load(const std::string& path);

 private:
  [[nodiscard]] float Normalize(double latency_s) const noexcept;
  [[nodiscard]] double Denormalize(float normalized) const noexcept;

  PredictorKind kind_;
  PredictorOptions options_;
  std::unique_ptr<StagePredictor> model_;
  TargetTransform transform_;
  double scale_ = 1.0;     // linear transform: mean of training labels
  double log_mean_ = 0.0;  // log transform parameters
  double log_std_ = 1.0;
};

}  // namespace predtop::core
