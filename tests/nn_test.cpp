// Tests for NN layers, optimizer, schedule and the trainer: shape checks,
// end-to-end gradient checks through whole layers, optimization convergence
// on toy problems, and the early-stopping protocol.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "autograd/functions.h"
#include "core/predictors.h"
#include "fault/injector.h"
#include "graph/encode.h"
#include "nn/attention.h"
#include "nn/dag_transformer.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "random_dag.h"
#include "tensor/sparse.h"

namespace predtop::nn {
namespace {

using autograd::Variable;
using tensor::Csr;
using tensor::Tensor;
using util::Rng;

/// Whole-module gradient check: compares each parameter's analytic gradient
/// against central differences of a scalar loss.
void CheckModuleGradients(Module& module, const std::function<Variable()>& loss_fn,
                          float eps = 1e-2f, float tolerance = 5e-2f) {
  module.ZeroGrad();
  Variable loss = loss_fn();
  ASSERT_EQ(loss.value().numel(), 1);
  autograd::Backward(loss);
  auto params = module.Parameters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    const Tensor analytic = params[p]->grad();
    // Spot-check a few elements of each parameter to keep runtime bounded.
    const std::int64_t count = std::min<std::int64_t>(3, analytic.numel());
    for (std::int64_t e = 0; e < count; ++e) {
      const std::int64_t i = e * std::max<std::int64_t>(1, analytic.numel() / count);
      float& slot = params[p]->mutable_value().data()[static_cast<std::size_t>(i)];
      const float saved = slot;
      slot = saved + eps;
      const double up = loss_fn().value().data()[0];
      slot = saved - eps;
      const double down = loss_fn().value().data()[0];
      slot = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double a = analytic.data()[static_cast<std::size_t>(i)];
      EXPECT_NEAR(a, numeric, tolerance * std::max(1.0, std::fabs(numeric)))
          << "param " << p << " elem " << i;
    }
  }
}

std::shared_ptr<const tensor::AttentionMask> Packed(const Tensor& additive_mask) {
  return std::make_shared<const tensor::AttentionMask>(
      tensor::AttentionMask::FromAdditive(additive_mask));
}

Variable ScalarLoss(const Variable& out) {
  return autograd::GlobalAddPool(autograd::Transpose(autograd::GlobalAddPool(out)));
}

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  const Linear layer(4, 3, rng);
  const Variable x(Tensor::Randn({5, 4}, rng));
  const Variable y = layer.Forward(x);
  EXPECT_EQ(y.value().dim(0), 5);
  EXPECT_EQ(y.value().dim(1), 3);
}

TEST(Linear, NoBiasVariantHasOneParameter) {
  Rng rng(2);
  Linear with(4, 3, rng, true);
  Linear without(4, 3, rng, false);
  EXPECT_EQ(with.Parameters().size(), 2u);
  EXPECT_EQ(without.Parameters().size(), 1u);
}

TEST(Linear, RejectsNonPositiveDims) {
  Rng rng(3);
  EXPECT_THROW(Linear(0, 3, rng), std::invalid_argument);
}

TEST(Linear, GradientsCheckOut) {
  Rng rng(4);
  Linear layer(3, 2, rng);
  const Variable x(Tensor::Randn({4, 3}, rng));
  CheckModuleGradients(layer, [&] { return ScalarLoss(layer.Forward(x)); });
}

TEST(Mlp, BuildsChainAndCounts) {
  Rng rng(5);
  Mlp mlp({8, 16, 4, 1}, rng);
  EXPECT_EQ(mlp.Parameters().size(), 6u);  // 3 layers x (W, b)
  EXPECT_EQ(mlp.ParameterCount(), 8u * 16 + 16 + 16 * 4 + 4 + 4 * 1 + 1);
  const Variable y = mlp.Forward(Variable(Tensor::Randn({2, 8}, rng)));
  EXPECT_EQ(y.value().dim(1), 1);
}

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(6);
  const MultiheadMaskedAttention attn(16, 4, rng);
  const Variable y = attn.Forward(Variable(Tensor::Randn({6, 16}, rng)), Packed(Tensor({6, 6})));
  EXPECT_EQ(y.value().dim(0), 6);
  EXPECT_EQ(y.value().dim(1), 16);
}

TEST(Attention, DimMustDivideHeads) {
  Rng rng(7);
  EXPECT_THROW(MultiheadMaskedAttention(10, 4, rng), std::invalid_argument);
}

TEST(Attention, MaskedNodesDoNotInfluenceOutput) {
  // Node 0's output must be identical whether masked-out node 2's features
  // change or not.
  Rng rng(8);
  const MultiheadMaskedAttention attn(8, 2, rng);
  const float inf = std::numeric_limits<float>::infinity();
  Tensor mask({3, 3});
  // Nodes 0 and 1 cannot see node 2 (and vice versa), like a DAGRA mask
  // for a disconnected component.
  mask.at(0, 2) = -inf;
  mask.at(2, 0) = -inf;
  mask.at(1, 2) = -inf;
  mask.at(2, 1) = -inf;
  Tensor x = Tensor::Randn({3, 8}, rng);
  const Variable y1 = attn.Forward(Variable(x), Packed(mask));
  for (std::int64_t j = 0; j < 8; ++j) x.at(2, j) += 5.0f;  // perturb node 2
  const Variable y2 = attn.Forward(Variable(x), Packed(mask));
  for (std::int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(y1.value().at(0, j), y2.value().at(0, j), 1e-5f);
    EXPECT_NEAR(y1.value().at(1, j), y2.value().at(1, j), 1e-5f);
  }
}

TEST(Attention, GradientsCheckOut) {
  Rng rng(9);
  MultiheadMaskedAttention attn(8, 2, rng);
  const float inf = std::numeric_limits<float>::infinity();
  Tensor mask({4, 4});
  mask.at(0, 3) = -inf;
  mask.at(3, 0) = -inf;
  const Variable x(Tensor::Randn({4, 8}, rng));
  CheckModuleGradients(attn, [&] { return ScalarLoss(attn.Forward(x, Packed(mask))); });
}

TEST(DagTransformerLayer, ShapeAndGradients) {
  Rng rng(10);
  DagTransformerLayer layer(8, 2, 2, rng);
  const auto mask = Packed(Tensor({5, 5}));
  const Variable x(Tensor::Randn({5, 8}, rng));
  const Variable y = layer.Forward(x, mask);
  EXPECT_EQ(y.value().dim(0), 5);
  EXPECT_EQ(y.value().dim(1), 8);
  CheckModuleGradients(layer, [&] { return ScalarLoss(layer.Forward(x, mask)); }, 1e-2f, 8e-2f);
}

TEST(GcnConv, MatchesManualComputation) {
  Rng rng(11);
  GcnConv conv(3, 2, rng);
  // Identity adjacency: output = X W + b exactly.
  auto eye = std::make_shared<Csr>(Csr::FromCoo(4, 4, {0, 1, 2, 3}, {0, 1, 2, 3},
                                                {1.0f, 1.0f, 1.0f, 1.0f}));
  const Variable x(Tensor::Randn({4, 3}, rng));
  const Variable y = conv.Forward(x, eye, eye);
  auto params = conv.Parameters();
  const Variable expected =
      autograd::AddRowVector(autograd::MatMul(x, *params[0]), *params[1]);
  EXPECT_LT(tensor::MaxAbsDiff(y.value(), expected.value()), 1e-5f);
}

TEST(GcnConv, GradientsCheckOut) {
  Rng rng(12);
  GcnConv conv(3, 2, rng);
  auto adj = std::make_shared<Csr>(
      Csr::FromCoo(3, 3, {0, 1, 2, 1}, {1, 0, 2, 2}, {0.5f, 0.5f, 1.0f, 0.3f}));
  auto adj_t = std::make_shared<Csr>(adj->Transposed());
  const Variable x(Tensor::Randn({3, 3}, rng));
  CheckModuleGradients(conv, [&] { return ScalarLoss(conv.Forward(x, adj, adj_t)); });
}

TEST(GatConv, AttentionWeightsAreConvex) {
  // With a single incoming edge plus self-loop, output is a convex blend:
  // verify the layer runs and produces finite values.
  Rng rng(13);
  const GatConv conv(4, 4, rng);
  const std::vector<std::int32_t> src{0, 1, 0, 1};
  const std::vector<std::int32_t> dst{1, 0, 0, 1};
  const Variable y = conv.Forward(Variable(Tensor::Randn({2, 4}, rng)), src, dst);
  EXPECT_EQ(y.value().dim(0), 2);
  for (const float v : y.value().data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(GatConv, GradientsCheckOut) {
  Rng rng(14);
  GatConv conv(3, 2, rng);
  const std::vector<std::int32_t> src{0, 1, 2, 0, 1, 2};
  const std::vector<std::int32_t> dst{1, 2, 0, 0, 1, 2};
  const Variable x(Tensor::Randn({3, 3}, rng));
  CheckModuleGradients(conv, [&] { return ScalarLoss(conv.Forward(x, src, dst)); }, 1e-2f,
                       8e-2f);
}

TEST(GatConv, EdgeArrayLengthMismatchThrows) {
  Rng rng(15);
  const GatConv conv(3, 2, rng);
  EXPECT_THROW(conv.Forward(Variable(Tensor::Randn({3, 3}, rng)), {0, 1}, {1}),
               std::invalid_argument);
}

// ---- optimizer / schedule ----

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||x - target||^2 for a single parameter tensor.
  class OneParam : public Module {
   public:
    explicit OneParam(Tensor init) : p_(std::move(init), true) {}
    std::vector<Variable*> Parameters() override { return {&p_}; }
    Variable p_;
  };
  Rng rng(16);
  OneParam model(Tensor::Randn({1, 1}, rng, 3.0f));
  Adam adam(model);
  for (int step = 0; step < 600; ++step) {
    model.ZeroGrad();
    Variable loss = autograd::SquaredError(model.p_, 1.5f);
    autograd::Backward(loss);
    adam.Step(0.05f);
  }
  EXPECT_NEAR(model.p_.value().data()[0], 1.5f, 1e-2f);
}

TEST(Adam, RefusesNonFiniteGradientsBeforeTouchingState) {
  class OneParam : public Module {
   public:
    explicit OneParam(Tensor init) : p_(std::move(init), true) {}
    std::vector<Variable*> Parameters() override { return {&p_}; }
    Variable p_;
  };
  OneParam model(Tensor({1, 2}, 1.0f));
  Adam adam(model);

  Tensor poisoned({1, 2}, 0.5f);
  poisoned[1] = std::numeric_limits<float>::quiet_NaN();
  model.p_.SetGrad(poisoned);
  EXPECT_FALSE(adam.Step(0.1f));
  EXPECT_EQ(adam.StepCount(), 0);  // t_ untouched: bias correction unharmed
  EXPECT_FLOAT_EQ(model.p_.value()[0], 1.0f);
  EXPECT_FLOAT_EQ(model.p_.value()[1], 1.0f);

  Tensor inf_grad({1, 2}, 0.5f);
  inf_grad[0] = std::numeric_limits<float>::infinity();
  model.p_.SetGrad(inf_grad);
  EXPECT_FALSE(adam.Step(0.1f));

  // A finite gradient after the poisoned ones must behave as step #1: the
  // refused steps left the moment buffers exactly zero.
  model.p_.SetGrad(Tensor({1, 2}, 0.5f));
  EXPECT_TRUE(adam.Step(0.1f));
  EXPECT_EQ(adam.StepCount(), 1);
  // First Adam step moves by ~lr * sign(g) regardless of magnitude.
  EXPECT_NEAR(model.p_.value()[0], 1.0f - 0.1f, 1e-5f);
  EXPECT_NEAR(model.p_.value()[1], 1.0f - 0.1f, 1e-5f);
}

TEST(CosineDecay, EndpointsAndMonotonicity) {
  EXPECT_FLOAT_EQ(CosineDecayLr(1e-3f, 0, 500), 1e-3f);
  EXPECT_NEAR(CosineDecayLr(1e-3f, 499, 500), 0.0f, 1e-8f);
  float prev = 2.0f;
  for (int e = 0; e < 500; e += 25) {
    const float lr = CosineDecayLr(1e-3f, e, 500);
    EXPECT_LT(lr, prev);
    prev = lr;
  }
}

TEST(CosineDecay, PinsFirstMidpointAndFinalEpoch) {
  // Regression for the off-by-one denominator: with 101 epochs the schedule
  // must hit base at epoch 0, exactly half at the midpoint (epoch 50), and
  // ~0 at the FINAL epoch (100) — not one epoch past the end.
  const float base = 1e-3f;
  EXPECT_FLOAT_EQ(CosineDecayLr(base, 0, 101), base);
  EXPECT_NEAR(CosineDecayLr(base, 50, 101), 0.5f * base, 1e-9f);
  EXPECT_NEAR(CosineDecayLr(base, 100, 101), 0.0f, 1e-9f);
  // The buggy total-epochs denominator left the last epoch visibly above 0.
  EXPECT_LT(CosineDecayLr(base, 100, 101), 1e-6f);
}

// ---- trainer ----

/// Tiny regression problem: predict sum of 2 inputs with an MLP.
struct ToyProblem {
  std::vector<Tensor> inputs;
  std::vector<float> targets;
  ToyProblem(std::size_t n, Rng& rng) {
    for (std::size_t i = 0; i < n; ++i) {
      Tensor x = Tensor::Randn({1, 2}, rng);
      targets.push_back(x[0] + x[1]);
      inputs.push_back(std::move(x));
    }
  }
};

TEST(Trainer, LearnsToyRegression) {
  Rng rng(17);
  const ToyProblem problem(64, rng);
  Mlp mlp({2, 16, 1}, rng);
  TrainConfig config;
  config.max_epochs = 150;
  config.patience = 150;
  config.base_lr = 5e-3f;
  config.batch_size = 16;
  const Trainer trainer(config);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < 64; ++i) (i < 52 ? train_idx : val_idx).push_back(i);
  const auto forward = [&](std::size_t i) { return mlp.Forward(Variable(problem.inputs[i])); };
  const TrainResult result = trainer.Fit(mlp, forward, problem.targets, train_idx, val_idx);
  EXPECT_GT(result.epochs_run, 10);
  EXPECT_LT(result.best_val_loss, 0.15);
  EXPECT_LT(result.train_loss_history.back(), result.train_loss_history.front());
}

TEST(Trainer, EarlyStoppingRestoresBestWeights) {
  Rng rng(18);
  const ToyProblem problem(32, rng);
  Mlp mlp({2, 8, 1}, rng);
  TrainConfig config;
  config.max_epochs = 400;
  config.patience = 10;  // aggressive: will trigger early stopping
  config.base_lr = 2e-2f;
  const Trainer trainer(config);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < 32; ++i) (i < 24 ? train_idx : val_idx).push_back(i);
  const auto forward = [&](std::size_t i) { return mlp.Forward(Variable(problem.inputs[i])); };
  const TrainResult result = trainer.Fit(mlp, forward, problem.targets, train_idx, val_idx);
  EXPECT_LT(result.epochs_run, 400);  // stopped early
  // Restored weights should reproduce the recorded best validation loss.
  const double val = trainer.Evaluate(forward, problem.targets, val_idx);
  EXPECT_NEAR(val, result.best_val_loss, 1e-6);
}

TEST(Trainer, EmptyTrainingSetThrows) {
  Rng rng(19);
  Mlp mlp({2, 1}, rng);
  const Trainer trainer({});
  const std::vector<float> targets;
  EXPECT_THROW(trainer.Fit(
                   mlp, [&](std::size_t) { return Variable(); }, targets, {}, {}),
               std::invalid_argument);
}

// ---- data-parallel trainer ----

/// Everything a Fit decides: the weights it leaves and its TrainResult.
struct FitRun {
  std::vector<Tensor> weights;
  std::vector<double> train_history;
  std::vector<double> val_history;
  std::int64_t best_epoch = -1;
  std::int64_t skipped_steps = 0;
  double final_val = 0.0;
};

FitRun Record(Module& model, const TrainResult& result) {
  FitRun run;
  run.weights = model.SnapshotParameters();
  run.train_history = result.train_loss_history;
  run.val_history = result.val_loss_history;
  run.best_epoch = result.best_epoch;
  run.skipped_steps = result.skipped_steps;
  return run;
}

/// Train the toy problem from identical seeds with the given thread count.
/// 40 training samples in batches of 12: the last batch holds 4 samples.
FitRun RunToyTraining(std::int64_t threads, bool inject_nan = false) {
  Rng rng(21);
  const ToyProblem problem(48, rng);
  Mlp mlp({2, 8, 1}, rng);
  TrainConfig config;
  config.max_epochs = 80;
  config.patience = 80;
  config.base_lr = 5e-3f;
  config.batch_size = 12;
  config.threads = threads;
  const Trainer trainer(config);
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < 48; ++i) (i < 40 ? train_idx : val_idx).push_back(i);
  const auto forward = [&](std::size_t i) {
    Variable pred = mlp.Forward(Variable(problem.inputs[i]));
    if (inject_nan &&
        fault::Injector::Global().ShouldInject(fault::sites::kPredictNan)) {
      pred = autograd::Scale(pred, std::numeric_limits<float>::quiet_NaN());
    }
    return pred;
  };
  FitRun run = Record(mlp, trainer.Fit(mlp, forward, problem.targets, train_idx, val_idx));
  run.final_val = trainer.Evaluate(
      [&](std::size_t i) { return mlp.Forward(Variable(problem.inputs[i])); },
      problem.targets, val_idx);
  return run;
}

/// Fit a small stage predictor on generated graphs (for the DAG Transformer
/// every attention call is the fused autograd::MaskedAttention node). 10
/// training samples in batches of 4: the last batch holds 2 samples.
FitRun FitPredictor(core::PredictorKind kind, std::int64_t threads) {
  constexpr std::int32_t kOpTypes = 4, kDTypes = 2;
  Rng rng(0xda6);
  std::vector<graph::EncodedGraph> graphs;
  std::vector<float> targets;
  std::vector<std::size_t> train_idx, val_idx;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto n = static_cast<std::int32_t>(6 + rng.NextBelow(30));
    graphs.push_back(
        graph::EncodeGraph(graph::RandomDag(n, 0.15, rng, kOpTypes, kDTypes), kOpTypes, kDTypes));
    targets.push_back(0.5f + 0.05f * static_cast<float>(n));
    (i < 10 ? train_idx : val_idx).push_back(i);
  }
  core::PredictorOptions options;
  options.feature_dim = graphs[0].features.dim(1);
  options.dagt_dim = 8;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  options.gcn_dim = 16;
  options.gcn_layers = 2;
  options.gat_dim = 8;
  options.gat_layers = 2;
  const auto model = core::MakePredictor(kind, options);
  TrainConfig config;
  config.max_epochs = 6;
  config.patience = 6;
  config.base_lr = 5e-3f;
  config.batch_size = 4;
  config.threads = threads;
  const TrainResult result = Trainer(config).Fit(
      *model, [&](std::size_t i) { return model->Forward(graphs[i]); }, targets, train_idx,
      val_idx);
  return Record(*model, result);
}

bool BitIdenticalWeights(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].numel() != b[i].numel()) return false;
    if (std::memcmp(a[i].data().data(), b[i].data().data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void ExpectSameFit(const FitRun& a, const FitRun& b, const std::string& label) {
  EXPECT_TRUE(BitIdenticalWeights(a.weights, b.weights)) << label;
  EXPECT_EQ(a.train_history, b.train_history) << label;
  EXPECT_EQ(a.val_history, b.val_history) << label;
  EXPECT_EQ(a.best_epoch, b.best_epoch) << label;
  EXPECT_EQ(a.skipped_steps, b.skipped_steps) << label;
}

TEST(ParallelTrainer, BitIdenticalAcrossRunsForFixedThreadCount) {
  // Same seed + same thread count => the per-sample backwards, the
  // sample-order reduction and the single Adam step reproduce the run.
  ExpectSameFit(RunToyTraining(4), RunToyTraining(4), "4 threads");
}

TEST(ParallelTrainer, DagTransformerFitBitIdenticalAcrossRuns) {
  for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{3}}) {
    ExpectSameFit(FitPredictor(core::PredictorKind::kDagTransformer, threads),
                  FitPredictor(core::PredictorKind::kDagTransformer, threads),
                  std::to_string(threads) + " threads");
  }
}

TEST(ParallelTrainer, BitIdenticalAcrossThreadCounts) {
  // Per-sample gradient slots summed in sample order make the whole fit a
  // function of data, seed and config: the thread count only decides which
  // thread runs which sample. Covered: batches smaller than the thread count
  // and a partial last batch (toy: 12,12,12,4; predictors: 4,4,2).
  const std::int64_t counts[] = {1, 2, 3, 4, 8};
  const FitRun toy = RunToyTraining(1);
  EXPECT_EQ(toy.skipped_steps, 0);
  EXPECT_LT(toy.final_val, 0.2);  // it did learn the mapping
  for (const std::int64_t threads : counts) {
    ExpectSameFit(toy, RunToyTraining(threads), "mlp, " + std::to_string(threads) + " threads");
  }
  const std::pair<core::PredictorKind, const char*> kinds[] = {
      {core::PredictorKind::kDagTransformer, "dag_transformer"},
      {core::PredictorKind::kGcn, "gcn"},
      {core::PredictorKind::kGat, "gat"}};
  for (const auto& [kind, name] : kinds) {
    const FitRun one = FitPredictor(kind, 1);
    for (const std::int64_t threads : counts) {
      ExpectSameFit(one, FitPredictor(kind, threads),
                    std::string(name) + ", " + std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelTrainer, NanInjectionDrillKeepsWeightsFinite) {
  // Drive training with predict_nan firing on ~25% of forwards (the
  // PREDTOP_FAULT=predict_nan:... drill): poisoned batches must be skipped
  // and counted, and no NaN may ever reach the weights, on one thread and
  // on several.
  for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{3}}) {
    fault::Injector::Global().Configure("predict_nan:0.25", 9);
    const FitRun run = RunToyTraining(threads, /*inject_nan=*/true);
    fault::Injector::Global().Disable();
    EXPECT_GT(run.skipped_steps, 0) << threads << " threads";
    for (const Tensor& w : run.weights) {
      for (const float v : w.data()) {
        ASSERT_TRUE(std::isfinite(v)) << threads << " threads";
      }
    }
    EXPECT_TRUE(std::isfinite(run.final_val)) << threads << " threads";
  }
}

TEST(SplitDataset, PartitionsWithoutOverlap) {
  Rng rng(20);
  const DataSplit split = SplitDataset(100, 0.6, 0.1, rng);
  EXPECT_EQ(split.train.size(), 60u);
  EXPECT_EQ(split.validation.size(), 10u);
  EXPECT_EQ(split.test.size(), 30u);
  std::set<std::size_t> all;
  for (const auto& part : {split.train, split.validation, split.test}) {
    for (const std::size_t i : part) EXPECT_TRUE(all.insert(i).second) << "duplicate " << i;
  }
  EXPECT_EQ(all.size(), 100u);
}

TEST(SplitDataset, SmallDatasetsNeverRoundToEmptyTrainSet) {
  // Regression: llround(0.1 * 4) == 0 used to hand Trainer::Fit an empty
  // training set. A positive fraction must always keep >= 1 train sample.
  Rng rng(22);
  const std::tuple<std::size_t, double, double> cases[] = {
      {4, 0.1, 0.1}, {1, 0.5, 0.0}, {2, 0.1, 0.5}, {3, 0.2, 0.2}};
  for (const auto& [n, train_frac, val_frac] : cases) {
    const DataSplit split = SplitDataset(n, train_frac, val_frac, rng);
    EXPECT_GE(split.train.size(), 1u) << "n=" << n << " frac=" << train_frac;
    EXPECT_EQ(split.train.size() + split.validation.size() + split.test.size(), n);
    std::set<std::size_t> all;
    for (const auto& part : {split.train, split.validation, split.test}) {
      for (const std::size_t i : part) EXPECT_TRUE(all.insert(i).second);
    }
  }
  // A zero fraction still legitimately yields an empty train set.
  const DataSplit none = SplitDataset(4, 0.0, 0.5, rng);
  EXPECT_TRUE(none.train.empty());
  // And n = 0 stays all-empty without tripping the guarantee.
  const DataSplit empty = SplitDataset(0, 0.8, 0.1, rng);
  EXPECT_TRUE(empty.train.empty());
  EXPECT_TRUE(empty.test.empty());
}

TEST(SplitDataset, InvalidFractionsThrow) {
  Rng rng(21);
  EXPECT_THROW(SplitDataset(10, 0.8, 0.3, rng), std::invalid_argument);
}

TEST(Module, SnapshotRestoreRoundTrips) {
  Rng rng(22);
  Mlp mlp({3, 4, 1}, rng);
  const auto snapshot = mlp.SnapshotParameters();
  for (auto* p : mlp.Parameters()) p->mutable_value().Fill(0.0f);
  mlp.RestoreParameters(snapshot);
  auto params = mlp.Parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(tensor::MaxAbsDiff(params[i]->value(), snapshot[i]), 0.0f);
  }
}

}  // namespace
}  // namespace predtop::nn
