// Tests for serve::OnlineTrainer: the refresh drill (hot-swap a fine-tuned
// checkpoint into a registry while predictions stream against it), drift
// detection, and failure handling. The drill asserts the three invariants
// the online path owes serving: no prediction ever fails mid-swap, the
// global parameter epoch advances (packed-weight caches cannot go stale),
// and the registry ends up holding a different model instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "compile/cache.h"
#include "nn/module.h"
#include "serve/online.h"
#include "serve/service.h"

namespace predtop::serve {
namespace {

ir::Gpt3Config TinyGptConfig() {
  ir::Gpt3Config config;
  config.seq_len = 64;
  config.hidden = 64;
  config.num_layers = 4;
  config.num_heads = 4;
  config.vocab = 512;
  config.microbatch = 2;
  return config;
}

core::PredictorOptions TinyOptions() {
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.gcn_dim = 32;
  options.gcn_layers = 3;
  return options;
}

/// Base pool of compiled stages; each round's "fresh" samples are drawn from
/// it with new measurement noise (compilation is the slow part, so do it once).
const core::StageDataset& BaseDataset() {
  static const core::StageDataset dataset = [] {
    const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
    const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 2});
    sim::Profiler profiler({}, 23);
    return BuildStageDataset(benchmark, compiler, {2, 1, 1}, profiler, {});
  }();
  return dataset;
}

ModelKey TestKey() {
  ModelKey key;
  key.benchmark = "gpt3-tiny";
  key.platform = "platform1";
  key.mesh = sim::Mesh{1, 2};
  key.config = parallel::ParallelConfig{2, 1, 1};
  return key;
}

std::shared_ptr<core::LatencyRegressor> TrainInitialModel() {
  const core::StageDataset& dataset = BaseDataset();
  auto model = std::make_shared<core::LatencyRegressor>(core::PredictorKind::kGcn,
                                                        TinyOptions());
  nn::TrainConfig train;
  train.max_epochs = 20;
  train.patience = 20;
  train.batch_size = 4;
  std::vector<std::size_t> idx(dataset.Size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  model->Fit(dataset, idx, idx, train);
  return model;
}

/// Fresh samples = random base stages with new multiplicative measurement
/// noise; `latency_scale` simulates workload drift (the platform got slower).
SampleSource NoisySource(double latency_scale = 1.0) {
  return [latency_scale](std::size_t count, util::Rng& rng) {
    const core::StageDataset& base = BaseDataset();
    core::StageDataset fresh;
    for (std::size_t i = 0; i < count; ++i) {
      core::StageSample sample =
          base.samples[static_cast<std::size_t>(rng.NextBelow(base.Size()))];
      sample.true_latency_s *= latency_scale;
      sample.measured_latency_s =
          static_cast<float>(sample.true_latency_s * rng.LogNormal(1.0, 0.03));
      fresh.labels.push_back(sample.measured_latency_s);
      fresh.samples.push_back(std::move(sample));
    }
    return fresh;
  };
}

OnlineTrainerOptions DrillOptions(const std::string& checkpoint) {
  OnlineTrainerOptions options;
  options.samples_per_round = 8;
  options.val_fraction = 0.25;
  options.train.max_epochs = 4;
  options.train.patience = 4;
  options.train.batch_size = 4;
  options.train.threads = 2;  // fine-tune on two threads beside the serving clients
  options.checkpoint_path = checkpoint;
  options.poll_interval = std::chrono::milliseconds(2);
  return options;
}

std::string TempCheckpoint(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(OnlineTrainer, RefreshDrillHotSwapsUnderLiveServing) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key = TestKey();
  const std::shared_ptr<core::LatencyRegressor> initial = TrainInitialModel();
  registry->Register(key, initial);

  ServiceOptions service_options;
  service_options.cache_capacity = 1024;
  service_options.cache_shards = 2;
  service_options.threads = 2;
  PredictionService service(registry, service_options);

  const std::uint64_t epoch_before = nn::ParameterEpoch();
  const std::string checkpoint = TempCheckpoint("predtop_online_drill.ptck");

  OnlineTrainerOptions options = DrillOptions(checkpoint);
  options.refresh_always = true;  // drill: swap every round
  OnlineTrainer trainer(registry, key, NoisySource(), options);
  std::atomic<int> swaps{0};
  trainer.OnSwap([&] {
    service.ClearCache();  // cached predictions of the old version are stale
    ++swaps;
  });

  // Stream predictions from two client threads while refreshes land.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> predictions{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const core::StageSample& sample : BaseDataset().samples) {
          double latency = -1.0;
          try {
            latency = service.Predict(key, sample.encoded);
          } catch (...) {
            // A hot swap must never surface as a failed prediction.
          }
          ++predictions;
          if (!(std::isfinite(latency) && latency > 0.0)) ++failures;
        }
      }
    });
  }

  trainer.Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (swaps.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  trainer.Stop();
  stop = true;
  for (std::thread& t : clients) t.join();

  const OnlineTrainerStats stats = trainer.Stats();
  EXPECT_GE(swaps.load(), 2);
  EXPECT_GE(stats.refreshes, 2u);
  EXPECT_GE(stats.rounds, stats.refreshes);
  EXPECT_GT(predictions.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);  // no failed predictions through any swap
  EXPECT_GT(nn::ParameterEpoch(), epoch_before);  // checkpoint loads bumped it
  // The registry now serves a different model instance than the original.
  EXPECT_NE(registry->Find(key).get(), initial.get());
  std::remove(checkpoint.c_str());
}

TEST(OnlineTrainer, DriftTriggersRefreshStableDoesNot) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key = TestKey();
  registry->Register(key, TrainInitialModel());

  const std::string checkpoint = TempCheckpoint("predtop_online_drift.ptck");
  OnlineTrainerOptions options = DrillOptions(checkpoint);
  options.drift_threshold = 1.2;

  // The workload's latency scale is mutable mid-test: 1.0 = the world the
  // model was trained in, larger = the platform drifted slower.
  std::atomic<double> scale{1.0};
  const SampleSource source = [&scale](std::size_t count, util::Rng& rng) {
    return NoisySource(scale.load())(count, rng);
  };
  OnlineTrainer trainer(registry, key, source, options);

  // Round 1 seeds the baseline; round 2 is stable — no drift, no refresh.
  EXPECT_FALSE(trainer.RunRound());
  EXPECT_FALSE(trainer.RunRound());
  OnlineTrainerStats stats = trainer.Stats();
  EXPECT_EQ(stats.refreshes, 0u);
  EXPECT_EQ(stats.drift_detected, 0u);
  EXPECT_GT(stats.baseline_mre, 0.0);

  // Platform drifts 5x slower: the served model's MRE explodes past
  // baseline * threshold, and fine-tuning (which refits the target scale to
  // the drifted labels) produces a candidate good enough to swap.
  scale.store(5.0);
  bool swapped = false;
  for (int round = 0; round < 3 && !swapped; ++round) swapped = trainer.RunRound();
  EXPECT_TRUE(swapped);
  stats = trainer.Stats();
  EXPECT_GE(stats.drift_detected, 1u);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_GT(stats.last_fresh_mre, stats.baseline_mre);  // baseline now post-swap
  std::remove(checkpoint.c_str());
}

TEST(OnlineTrainer, HotSwapDoesNotLeakCompiledPrograms) {
  // Regression for the hot-swap leak: compiled programs (and the packed /
  // quantized weight snapshots they pin) are keyed by predictor instance, so
  // every swapped-out model must evict its own entries on destruction. With
  // compilation enabled, repeated registry swaps must keep the global
  // program cache bounded by the *live* model's shape classes.
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key = TestKey();
  const core::StageDataset& base = BaseDataset();
  const std::size_t shapes = std::min<std::size_t>(base.Size(), 3);
  for (int round = 0; round < 6; ++round) {
    core::PredictorOptions options = TinyOptions();
    options.seed = 0x100ULL + static_cast<std::uint64_t>(round);
    registry->Register(key, std::make_shared<core::LatencyRegressor>(
                                core::PredictorKind::kGcn, options));
    const auto model = registry->Find(key);
    for (std::size_t i = 0; i < shapes; ++i) {
      const double latency = model->PredictSeconds(base.samples[i].encoded);
      EXPECT_TRUE(std::isfinite(latency));
    }
    // Only the current model's programs may remain cached; the previous
    // rounds' entries died with their predictors.
    EXPECT_LE(cache.Size(), shapes) << "round " << round;
  }
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kGcn, TinyOptions()));
  EXPECT_EQ(cache.Size(), 0u);  // final swap evicted the last active model
}

TEST(OnlineTrainer, NoModelRegisteredIsANoOp) {
  auto registry = std::make_shared<ModelRegistry>();
  OnlineTrainer trainer(registry, TestKey(), NoisySource(),
                        DrillOptions(TempCheckpoint("predtop_online_none.ptck")));
  EXPECT_FALSE(trainer.RunRound());
  EXPECT_EQ(trainer.Stats().refreshes, 0u);
  EXPECT_EQ(trainer.Stats().rounds, 1u);
}

}  // namespace
}  // namespace predtop::serve
