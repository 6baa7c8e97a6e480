#pragma once
// OnlineTrainer: continual fine-tuning for a served latency predictor.
//
// PredTOP trains predictors offline on profiled stages; in a long-lived
// serving process the workload drifts (new stage shapes, changed efficiency
// curves), so this component periodically (a) simulates a fresh batch of
// (stage, mesh, latency) samples through a caller-supplied SampleSource, (b)
// measures the served model's MRE on them against a stored baseline to
// detect drift, (c) fine-tunes a CLONE of the served model on the fresh
// samples with the data-parallel trainer, and (d) atomically writes a new
// `.ptck` checkpoint and hot-swaps it into the ModelRegistry.
//
// The swap path deliberately goes through the checkpoint file
// (Save -> TryRegisterFromFile) rather than registering the in-memory clone:
// it exercises the exact durability machinery production reloads use (atomic
// temp+rename write, CRC-verified load, retry/quarantine on bad files), and
// the registry's shared_ptr replacement means in-flight predictions against
// the old model finish safely while new queries see the new version.
// Loading bumps the global parameter epoch, which invalidates every cached
// packed-weight block, so compiled inference can never serve stale
// weights. Serving-side *result* caches (PredictionService's LRU) are the
// caller's to clear — wire OnSwap to PredictionService::ClearCache.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/dataset.h"
#include "nn/trainer.h"
#include "serve/registry.h"
#include "util/rng.h"

namespace predtop::serve {

/// Produces `count` freshly simulated training samples (stage DAG + measured
/// latency), drawing any randomness from `rng` so rounds are reproducible.
/// Called on the trainer thread; must be safe to run concurrently with
/// serving reads of the registry.
using SampleSource = std::function<core::StageDataset(std::size_t count, util::Rng& rng)>;

struct OnlineTrainerOptions {
  /// Fresh samples simulated per round.
  std::size_t samples_per_round = 32;
  /// Tail fraction of each round's samples held out for validation /
  /// drift measurement (at least one sample stays in training).
  double val_fraction = 0.25;
  /// Fine-tune configuration (typically few epochs). Its `threads` caps the
  /// fine-tune's threads; the result does not depend on it.
  nn::TrainConfig train;
  /// Drift trips when fresh-sample MRE exceeds baseline * this factor.
  double drift_threshold = 1.25;
  /// Fine-tune and swap every round even without drift (refresh drills).
  bool refresh_always = false;
  /// Where new checkpoint versions are written (atomic temp + rename).
  std::string checkpoint_path;
  /// Background-loop cadence between rounds.
  std::chrono::milliseconds poll_interval{50};
  std::uint64_t seed = 0x0e11e5eedULL;
};

struct OnlineTrainerStats {
  std::uint64_t rounds = 0;
  std::uint64_t drift_detected = 0;
  std::uint64_t refreshes = 0;     // successful hot swaps
  std::uint64_t failed_swaps = 0;  // checkpoint write/load/register failures
  /// Non-finite optimizer steps skipped across all fine-tune runs.
  std::int64_t skipped_steps = 0;
  double baseline_mre = 0.0;   // MRE (%) the drift test compares against
  double last_fresh_mre = 0.0; // served model's MRE (%) on the latest round
};

class OnlineTrainer {
 public:
  OnlineTrainer(std::shared_ptr<ModelRegistry> registry, ModelKey key,
                SampleSource source, OnlineTrainerOptions options);
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// One synchronous round: simulate, measure drift, maybe fine-tune +
  /// hot-swap. Returns true when a new model version was swapped in. The
  /// background loop runs exactly this.
  bool RunRound();

  /// Start/stop the background fine-tuning thread (idempotent).
  void Start();
  void Stop();

  /// Hook invoked on the trainer thread immediately after each successful
  /// swap — serving layers clear stale result caches here.
  void OnSwap(std::function<void()> hook);

  [[nodiscard]] OnlineTrainerStats Stats() const;

 private:
  void Loop();

  std::shared_ptr<ModelRegistry> registry_;
  ModelKey key_;
  SampleSource source_;
  OnlineTrainerOptions options_;

  mutable std::mutex mutex_;  // guards rng_, stats_, on_swap_, baseline state
  util::Rng rng_;
  OnlineTrainerStats stats_;
  std::function<void()> on_swap_;
  bool has_baseline_ = false;

  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace predtop::serve
