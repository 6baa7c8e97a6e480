#pragma once
// Generic regression trainer: mini-batch gradient accumulation, cosine LR
// decay, MAE/MSE losses (paper §IV-B7 selects MAE), and early stopping with
// best-weights restore (paper §IV-B8).
//
// The trainer is dataset-agnostic: samples are addressed by index through a
// forward callback so it can drive any of the predictor architectures.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nn/module.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace predtop::util {
class ThreadPool;
}

namespace predtop::nn {

enum class LossKind { kMae, kMse };

struct TrainConfig {
  std::int64_t max_epochs = 500;  // paper: 500
  std::int64_t batch_size = 32;   // paper: 32
  float base_lr = 1e-3f;          // paper: 1e-3 cosine-decayed to 0
  /// Stop after this many epochs without validation improvement (paper: 200).
  std::int64_t patience = 200;
  LossKind loss = LossKind::kMae;
  AdamConfig adam;
  std::uint64_t shuffle_seed = 0x7ea1ULL;
  /// Log progress every N epochs at debug level; 0 disables.
  std::int64_t log_every = 0;
  /// Threads that run each mini-batch's samples (the calling thread is one
  /// of them); 0 selects hardware_concurrency(). Every sample backpropagates
  /// into its own gradient slot (see autograd::BackwardInto) and the slots
  /// are summed per element in sample order before one Adam step, so
  /// weights, loss histories, best_epoch and skipped_steps are bit-identical
  /// for every value: it caps resources only. Values other than 1 require
  /// `forward` to be safe to call concurrently from several threads (true
  /// for the tape predictors: they share only parameter reads).
  std::int64_t threads = 0;
};

struct TrainResult {
  std::int64_t epochs_run = 0;
  std::int64_t best_epoch = -1;
  double best_val_loss = 0.0;
  std::vector<double> train_loss_history;
  std::vector<double> val_loss_history;
  /// Optimizer steps refused because the batch loss or a reduced gradient
  /// was non-finite (fault injection, numeric blowup). Skipped batches do
  /// not touch weights or Adam moments and are excluded from the epoch's
  /// train-loss mean.
  std::int64_t skipped_steps = 0;
};

class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(config) {}

  /// `forward(i)` must build the model's prediction (a (1,1) Variable) for
  /// sample i; `targets[i]` is its regression label. Trains on
  /// `train_indices`, early-stops on `val_indices` (restoring the best
  /// weights), and leaves the model ready for inference.
  TrainResult Fit(Module& model,
                  const std::function<autograd::Variable(std::size_t)>& forward,
                  std::span<const float> targets,
                  std::span<const std::size_t> train_indices,
                  std::span<const std::size_t> val_indices) const;

  /// Mean loss (per config_.loss) of the model over `indices`.
  [[nodiscard]] double Evaluate(const std::function<autograd::Variable(std::size_t)>& forward,
                                std::span<const float> targets,
                                std::span<const std::size_t> indices) const;

  [[nodiscard]] const TrainConfig& Config() const noexcept { return config_; }

 private:
  /// Evaluate with an optional pool: per-sample losses land in slots, then a
  /// fixed-order serial sum — bitwise identical with and without the pool.
  [[nodiscard]] double EvaluateWith(const std::function<autograd::Variable(std::size_t)>& forward,
                                    std::span<const float> targets,
                                    std::span<const std::size_t> indices,
                                    util::ThreadPool* pool) const;

  TrainConfig config_;
};

/// Deterministic train/validation/test split of [0, n): `train_fraction`
/// for training, `val_fraction` for validation, remainder test. Mirrors the
/// paper's protocol (10%..80% train, 10% validation, rest test).
struct DataSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> validation;
  std::vector<std::size_t> test;
};
[[nodiscard]] DataSplit SplitDataset(std::size_t n, double train_fraction,
                                     double val_fraction, util::Rng& rng);

}  // namespace predtop::nn
