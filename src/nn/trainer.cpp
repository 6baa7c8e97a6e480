#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace predtop::nn {

using autograd::Variable;

namespace {

Variable SampleLoss(LossKind kind, const Variable& pred, float target) {
  return kind == LossKind::kMae ? autograd::AbsError(pred, target)
                                : autograd::SquaredError(pred, target);
}

bool AllFinite(const tensor::Tensor& t) {
  for (const float x : t.data()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Sum per-sample gradient slots element-wise in sample order into fresh
/// tensors shaped like `params` — the reduce-scatter half of a ring
/// all-reduce, specialized to shared memory. Element j always accumulates
/// slots 0..used-1 in that order, an empty slot (a parameter the sample
/// never reached) counting as zero, so chunking (the parallelism axis) can
/// never change a per-element addition order: the sums are identical for
/// every pool size, including no pool at all.
std::vector<tensor::Tensor> ReduceSampleGrads(
    const std::vector<std::vector<tensor::Tensor>>& slots, std::size_t used,
    std::span<Variable* const> params, util::ThreadPool* pool) {
  constexpr std::size_t kChunk = 4096;
  struct Chunk {
    std::size_t param;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<tensor::Tensor> sums;
  sums.reserve(params.size());
  std::vector<Chunk> chunks;
  for (std::size_t p = 0; p < params.size(); ++p) {
    sums.emplace_back(params[p]->value().shape());
    const std::size_t n = sums[p].numel();
    for (std::size_t b = 0; b < n; b += kChunk) {
      chunks.push_back({p, b, std::min(n, b + kChunk)});
    }
  }
  const auto reduce_chunk = [&](std::size_t c) {
    const auto [param, begin, end] = chunks[c];
    const auto acc = sums[param].data();
    for (std::size_t s = 0; s < used; ++s) {
      const tensor::Tensor& slot = slots[s][param];
      if (slot.numel() == 0) continue;
      const auto src = slot.data();
      for (std::size_t j = begin; j < end; ++j) acc[j] += src[j];
    }
  };
  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), reduce_chunk);
  } else {
    for (std::size_t c = 0; c < chunks.size(); ++c) reduce_chunk(c);
  }
  return sums;
}

}  // namespace

TrainResult Trainer::Fit(Module& model,
                         const std::function<Variable(std::size_t)>& forward,
                         std::span<const float> targets,
                         std::span<const std::size_t> train_indices,
                         std::span<const std::size_t> val_indices) const {
  if (train_indices.empty()) throw std::invalid_argument("Trainer::Fit: empty training set");
  TrainResult result;
  Adam optimizer(model, config_.adam);
  util::Rng rng(config_.shuffle_seed);
  // Positions into train_indices, shuffled each epoch (the same permutation
  // shuffling the indices themselves would give).
  std::vector<std::size_t> order(train_indices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // The calling thread runs samples too, so `threads` workers need a pool
  // of threads - 1; one thread needs none.
  const std::size_t threads =
      config_.threads > 0 ? static_cast<std::size_t>(config_.threads)
                          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  const std::vector<Variable*> params = model.Parameters();
  const std::span<Variable* const> param_span(params);
  // One gradient slot and one loss slot per sample of a batch. A sample
  // empties its slot before its backward, so BackwardInto assigns each
  // parameter's first contribution instead of adding it to zeros.
  const std::size_t max_batch = std::min(
      order.size(), static_cast<std::size_t>(std::max<std::int64_t>(1, config_.batch_size)));
  std::vector<std::vector<tensor::Tensor>> grad_slots(max_batch,
                                                      std::vector<tensor::Tensor>(params.size()));
  std::vector<double> loss_slots(max_batch);
  // Each sample's time in its previous epoch (by position in train_indices).
  std::vector<double> sample_s(order.size(), 0.0);
  std::vector<std::size_t> dispatch(max_batch);

  std::vector<tensor::Tensor> best_weights = model.SnapshotParameters();
  double best_val = std::numeric_limits<double>::infinity();
  std::int64_t best_epoch = -1;

  for (std::int64_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.Shuffle(std::span<std::size_t>(order));
    const float lr = CosineDecayLr(config_.base_lr, epoch, config_.max_epochs);
    double epoch_loss = 0.0;
    std::size_t applied_samples = 0;
    for (std::size_t start = 0; start < order.size(); start += max_batch) {
      const std::size_t end = std::min(order.size(), start + max_batch);
      const std::size_t batch_n = end - start;
      const float inv = 1.0f / static_cast<float>(batch_n);

      // Dispatch longest-first by the previous epoch's times, so no thread is
      // left running two long samples at the end of the batch.
      std::iota(dispatch.begin(), dispatch.begin() + static_cast<std::ptrdiff_t>(batch_n),
                std::size_t{0});
      std::stable_sort(dispatch.begin(), dispatch.begin() + static_cast<std::ptrdiff_t>(batch_n),
                       [&](std::size_t a, std::size_t b) {
                         return sample_s[order[start + a]] > sample_s[order[start + b]];
                       });
      // Each sample differentiates its own tape into its own slot k; which
      // thread runs it, and when, does not matter, because the slots are
      // summed in sample order afterwards.
      const auto run_sample = [&](std::size_t j) {
        const std::size_t k = dispatch[j];
        const util::Stopwatch watch;
        const std::size_t idx = train_indices[order[start + k]];
        for (tensor::Tensor& slot : grad_slots[k]) slot = tensor::Tensor();
        const Variable loss = SampleLoss(config_.loss, forward(idx), targets[idx]);
        loss_slots[k] = static_cast<double>(loss.value().data()[0]);
        autograd::BackwardInto(autograd::Scale(loss, inv), param_span,
                               std::span<tensor::Tensor>(grad_slots[k]));
        sample_s[order[start + k]] = watch.ElapsedSeconds();
      };
      if (pool_ptr != nullptr) {
        pool_ptr->ParallelFor(batch_n, run_sample);
      } else {
        for (std::size_t k = 0; k < batch_n; ++k) run_sample(k);
      }

      double batch_sum = 0.0;
      for (std::size_t k = 0; k < batch_n; ++k) batch_sum += loss_slots[k];
      const double batch_mean = batch_sum / static_cast<double>(batch_n);
      std::vector<tensor::Tensor> grads =
          ReduceSampleGrads(grad_slots, batch_n, param_span, pool_ptr);
      bool finite = std::isfinite(batch_mean);
      for (std::size_t p = 0; finite && p < params.size(); ++p) finite = AllFinite(grads[p]);
      bool applied = false;
      if (finite) {
        for (std::size_t p = 0; p < params.size(); ++p) params[p]->SetGrad(std::move(grads[p]));
        applied = optimizer.Step(lr);
      }

      if (applied) {
        epoch_loss += batch_mean * static_cast<double>(batch_n);
        applied_samples += batch_n;
      } else {
        ++result.skipped_steps;  // weights and Adam moments untouched
      }
    }
    epoch_loss = applied_samples > 0
                     ? epoch_loss / static_cast<double>(applied_samples)
                     : std::numeric_limits<double>::quiet_NaN();
    result.train_loss_history.push_back(epoch_loss);

    const double val_loss = val_indices.empty()
                                ? epoch_loss
                                : EvaluateWith(forward, targets, val_indices, pool_ptr);
    result.val_loss_history.push_back(val_loss);
    ++result.epochs_run;

    if (val_loss < best_val) {  // NaN compares false: never becomes best
      best_val = val_loss;
      best_epoch = epoch;
      best_weights = model.SnapshotParameters();
    }
    if (config_.log_every > 0 && epoch % config_.log_every == 0) {
      PREDTOP_LOG_DEBUG << "epoch " << epoch << " train=" << epoch_loss
                        << " val=" << val_loss << " lr=" << lr;
    }
    if (epoch - best_epoch >= config_.patience) break;  // early stopping
  }

  model.RestoreParameters(best_weights);
  result.best_epoch = best_epoch;
  result.best_val_loss = best_val;
  return result;
}

double Trainer::Evaluate(const std::function<Variable(std::size_t)>& forward,
                         std::span<const float> targets,
                         std::span<const std::size_t> indices) const {
  return EvaluateWith(forward, targets, indices, nullptr);
}

double Trainer::EvaluateWith(const std::function<Variable(std::size_t)>& forward,
                             std::span<const float> targets,
                             std::span<const std::size_t> indices,
                             util::ThreadPool* pool) const {
  if (indices.empty()) return 0.0;
  std::vector<double> slots(indices.size());
  const auto body = [&](std::size_t k) {
    const std::size_t idx = indices[k];
    const float pred = forward(idx).value().data()[0];
    const float diff = pred - targets[idx];
    slots[k] = config_.loss == LossKind::kMae ? std::fabs(diff) : diff * diff;
  };
  if (pool != nullptr) {
    pool->ParallelFor(indices.size(), body);
  } else {
    for (std::size_t k = 0; k < indices.size(); ++k) body(k);
  }
  double total = 0.0;
  for (const double v : slots) total += v;  // fixed order: pool-independent
  return total / static_cast<double>(indices.size());
}

DataSplit SplitDataset(std::size_t n, double train_fraction, double val_fraction,
                       util::Rng& rng) {
  if (train_fraction < 0.0 || val_fraction < 0.0 || train_fraction + val_fraction > 1.0) {
    throw std::invalid_argument("SplitDataset: invalid fractions");
  }
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  rng.Shuffle(std::span<std::size_t>(idx));
  auto n_train = static_cast<std::size_t>(std::llround(train_fraction * static_cast<double>(n)));
  // A positive train fraction must never round down to an empty train set
  // (e.g. n = 4, fraction = 0.1): Trainer::Fit rejects empty training sets.
  if (n > 0 && train_fraction > 0.0 && n_train == 0) n_train = 1;
  n_train = std::min(n, n_train);
  const auto n_val = static_cast<std::size_t>(std::llround(val_fraction * static_cast<double>(n)));
  DataSplit split;
  split.train.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_train));
  const std::size_t val_end = std::min(n, n_train + n_val);
  split.validation.assign(idx.begin() + static_cast<std::ptrdiff_t>(n_train),
                          idx.begin() + static_cast<std::ptrdiff_t>(val_end));
  split.test.assign(idx.begin() + static_cast<std::ptrdiff_t>(val_end), idx.end());
  return split;
}

}  // namespace predtop::nn
