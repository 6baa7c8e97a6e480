// Data-parallel training throughput: Trainer::Fit at a sweep of thread
// counts on two workloads, writing per-thread-count epoch time + speedup
// over one thread to BENCH_train.json (path overridable via
// PREDTOP_BENCH_JSON):
//  - a synthetic MLP regression (the shapes of a stage-predictor head:
//    (16, 64) inputs through a {64, 256, 256, 1} MLP pooled to a scalar);
//  - the DAG Transformer at the Fig. 10 shape: the first mesh's GPT-3
//    training set of the Fig. 10 pipeline (22 stage graphs), 2 layers of
//    dim 16 with 2 heads, batch 8, lr 5e-3, targets scaled by their mean.
//
// Every row runs the same loop (per-sample BackwardInto into per-sample
// gradient slots, a sample-order reduction, one Adam step), so every row's
// final training loss must equal the threads=1 row's bit for bit; the
// binary exits 1 when one differs. Speedups are only meaningful on
// multicore hardware — on a single hardware thread the sweep still
// validates the machinery and records ~1x. PREDTOP_BENCH_SMOKE=1 shrinks
// the workload so CI exercises the harness in seconds;
// PREDTOP_TRAIN_BENCH_THREADS overrides the MLP sweep (comma-separated).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "bench_common.h"
#include "core/predictors.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace predtop;

namespace {

struct Workload {
  std::vector<tensor::Tensor> inputs;  // (16, 64) feature blocks
  std::vector<float> targets;
  std::vector<std::size_t> train_idx;
};

Workload BuildWorkload(std::size_t samples) {
  util::Rng rng(31);
  Workload w;
  for (std::size_t i = 0; i < samples; ++i) {
    tensor::Tensor x = tensor::Tensor::Randn({16, 64}, rng);
    // Learnable target: mean feature value (kept in the MLP's easy range).
    double sum = 0.0;
    for (const float v : x.data()) sum += v;
    w.targets.push_back(static_cast<float>(sum / static_cast<double>(x.numel())));
    w.inputs.push_back(std::move(x));
    w.train_idx.push_back(i);
  }
  return w;
}

struct Row {
  int threads = 0;
  double epoch_s = 0.0;
  double speedup_vs_1_thread = 0.0;
  double final_train_loss = 0.0;
};

/// One measured training run: fresh identically-seeded model, `epochs`
/// epochs, no validation set (isolates the training loop itself).
Row RunOnce(const Workload& w, int threads, std::int64_t epochs, int reps) {
  Row row;
  row.threads = threads;
  row.epoch_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Rng rng(77);
    nn::Mlp mlp({64, 256, 256, 1}, rng);
    nn::TrainConfig config;
    config.max_epochs = epochs;
    config.patience = epochs;
    config.batch_size = 32;
    config.base_lr = 1e-3f;
    config.threads = threads;
    const nn::Trainer trainer(config);
    const auto forward = [&](std::size_t i) {
      return autograd::GlobalAddPool(mlp.Forward(autograd::Variable(w.inputs[i])));
    };
    util::Stopwatch timer;
    const nn::TrainResult result =
        trainer.Fit(mlp, forward, w.targets, w.train_idx, {});
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed / static_cast<double>(epochs) < row.epoch_s) {
      row.epoch_s = elapsed / static_cast<double>(epochs);
      row.final_train_loss = result.train_loss_history.back();
    }
  }
  return row;
}

/// The DAG Transformer workload: one Fig. 10 training set, mean-scaled
/// labels, 90% train / 10% validation as the Fig. 10 split.
struct DagWorkload {
  core::StageDataset dataset;
  std::vector<float> targets;
  std::vector<std::size_t> train_idx;
  std::vector<std::size_t> val_idx;
  double mean_nodes = 0.0;
};

DagWorkload BuildDagWorkload() {
  DagWorkload w;
  w.dataset = std::move(bench::Fig10TrainingSets().front());
  double label_sum = 0.0, nodes = 0.0;
  for (const float label : w.dataset.labels) label_sum += static_cast<double>(label);
  const double mean = label_sum / static_cast<double>(w.dataset.Size());
  for (std::size_t i = 0; i < w.dataset.Size(); ++i) {
    w.targets.push_back(static_cast<float>(static_cast<double>(w.dataset.labels[i]) / mean));
    nodes += static_cast<double>(w.dataset.samples[i].encoded.num_nodes);
    (i % 10 == 9 ? w.val_idx : w.train_idx).push_back(i);
  }
  w.mean_nodes = nodes / static_cast<double>(w.dataset.Size());
  return w;
}

core::PredictorOptions DagOptions() {
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  return options;
}

Row RunDagOnce(const DagWorkload& w, int threads, std::int64_t epochs, int reps) {
  Row row;
  row.threads = threads;
  row.epoch_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, DagOptions());
    nn::TrainConfig config;
    config.max_epochs = epochs;
    config.patience = epochs;
    config.batch_size = 8;
    config.base_lr = 5e-3f;
    config.threads = threads;
    const nn::Trainer trainer(config);
    const auto forward = [&](std::size_t i) {
      return model->Forward(w.dataset.samples[i].encoded);
    };
    util::Stopwatch timer;
    const nn::TrainResult result = trainer.Fit(*model, forward, w.targets, w.train_idx, w.val_idx);
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed / static_cast<double>(epochs) < row.epoch_s) {
      row.epoch_s = elapsed / static_cast<double>(epochs);
      row.final_train_loss = result.train_loss_history.back();
    }
  }
  return row;
}

/// Rows of one sweep, each against the threads=1 row. Sets `invariant` to
/// false when a row's final loss differs from that row's.
template <typename RunFn>
std::vector<Row> Sweep(const char* label, const std::vector<int>& threads_list, RunFn&& run,
                       bool& invariant) {
  const Row one = run(1);
  std::vector<Row> rows;
  for (const int threads : threads_list) {
    Row row = threads == 1 ? one : run(threads);
    row.speedup_vs_1_thread = one.epoch_s / row.epoch_s;
    std::cerr << "[bench] " << label << " threads=" << row.threads << " epoch_s=" << row.epoch_s
              << " speedup_vs_1_thread=" << row.speedup_vs_1_thread
              << " final_train_loss=" << row.final_train_loss << "\n";
    if (row.final_train_loss != one.final_train_loss) {
      std::cerr << "[bench] FAIL: " << label << " threads=" << row.threads
                << " final_train_loss differs from threads=1\n";
      invariant = false;
    }
    rows.push_back(row);
  }
  return rows;
}

void WriteRows(std::ostream& out, const std::vector<Row>& rows, const char* indent) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << indent << "{\"threads\": " << row.threads << ", \"epoch_s\": " << row.epoch_s
        << ", \"speedup_vs_1_thread\": " << row.speedup_vs_1_thread
        << ", \"final_train_loss\": " << row.final_train_loss << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

void WriteJson(const std::string& path, const Workload& w, std::int64_t epochs,
               const std::vector<Row>& rows, const DagWorkload& dag, std::int64_t dag_epochs,
               const std::vector<Row>& dag_rows, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"samples\": " << w.inputs.size() << ",\n  \"input_shape\": [16, 64]"
      << ",\n  \"mlp\": [64, 256, 256, 1]" << ",\n  \"epochs\": " << epochs
      << ",\n  \"rows\": [\n";
  WriteRows(out, rows, "    ");
  const core::PredictorOptions options = DagOptions();
  out << "  ],\n  \"dag_transformer\": {\"graphs\": " << dag.dataset.Size()
      << ", \"train\": " << dag.train_idx.size() << ", \"mean_nodes\": " << dag.mean_nodes
      << ", \"dim\": " << options.dagt_dim << ", \"layers\": " << options.dagt_layers
      << ", \"heads\": " << options.dagt_heads << ", \"batch\": 8, \"epochs\": " << dag_epochs
      << ",\n    \"rows\": [\n";
  WriteRows(out, dag_rows, "      ");
  out << "    ]\n  }\n}\n";
  std::cerr << "[bench] wrote " << path << "\n";
}

}  // namespace

int main() {
  const bool smoke = util::EnvInt("PREDTOP_BENCH_SMOKE", 0) != 0;
  const std::string json_path =
      util::EnvString("PREDTOP_BENCH_JSON").value_or("BENCH_train.json");
  const std::size_t samples = smoke ? 64 : 256;
  const std::int64_t epochs = smoke ? 2 : 3;
  const int reps = smoke ? 1 : 2;
  const std::vector<int> sweep = util::EnvIntList(
      "PREDTOP_TRAIN_BENCH_THREADS", smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8});

  bool invariant = true;
  const Workload w = BuildWorkload(samples);
  const std::vector<Row> rows = Sweep(
      "mlp", sweep, [&](int threads) { return RunOnce(w, threads, epochs, reps); }, invariant);
  const DagWorkload dag = BuildDagWorkload();
  const std::int64_t dag_epochs = smoke ? 2 : 20;
  const std::vector<Row> dag_rows = Sweep(
      "dag_transformer", {1, 2, 4},
      [&](int threads) { return RunDagOnce(dag, threads, dag_epochs, reps); }, invariant);
  WriteJson(json_path, w, epochs, rows, dag, dag_epochs, dag_rows, smoke);
  return invariant ? 0 : 1;
}
