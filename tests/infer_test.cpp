// Tests for StagePredictor::Infer, the inference entry point: it runs the
// compiled program for a graph's shape class and answers on the autograd
// tape when the program builder refuses the input. Covers compiled-vs-tape
// parity for every predictor on seeded random DAGs (a single node,
// disconnected components, a long chain, wide fans, random densities, and
// one graph large enough for the fused attention kernel), PredictBatch
// bit-equality with per-graph PredictSeconds, parity after parameter
// mutation (optimizer step, state-dict load), the tape fallback for refused
// inputs, the masked softmax retry the unfused attention executor shares,
// and concurrent Infer on one shared model (run under TSan by
// ci/run.sh tsan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "compile/cache.h"
#include "compile/program.h"
#include "core/dataset.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "graph/encode.h"
#include "ir/types.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "random_dag.h"
#include "tensor/fused.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace predtop::core {
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

PredictorOptions TinyOptions() {
  PredictorOptions options;
  options.feature_dim = StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  options.gcn_dim = 32;
  options.gcn_layers = 3;
  options.gat_dim = 16;
  options.gat_layers = 3;
  return options;
}

graph::EncodedGraph TinyEncodedStage(std::int32_t first = 1, std::int32_t last = 2) {
  return EncodeStage(ir::BuildGpt3Stage(TinyGptConfig(), {first, last}));
}

constexpr PredictorKind kAllKinds[] = {PredictorKind::kDagTransformer, PredictorKind::kGcn,
                                       PredictorKind::kGat};

/// The program cached for g's shape class under `model` (null = none built,
/// or the builder refused the shape).
std::shared_ptr<compile::InferProgram> CachedProgramFor(const StagePredictor& model,
                                                        const graph::EncodedGraph& g) {
  const auto hit = compile::ProgramCache::Global().Lookup(
      model.InstanceId(), g.num_nodes, static_cast<std::int64_t>(g.edge_src.size()));
  return hit.has_value() ? *hit : nullptr;
}

/// Infer(g) within 1e-6 of the tape, answered by the compiled program: a
/// program is cached for g's shape and the thread's plan buffer holds it.
void ExpectCompiledParity(StagePredictor& model, const graph::EncodedGraph& g) {
  const float tape = model.Forward(g).value().data()[0];
  const float got = model.Infer(g);
  ASSERT_TRUE(std::isfinite(got)) << model.Name() << " n=" << g.num_nodes;
  EXPECT_LE(std::abs(got - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
      << model.Name() << " n=" << g.num_nodes << ": tape=" << tape << " infer=" << got;
  const auto program = CachedProgramFor(model, g);
  ASSERT_NE(program, nullptr) << model.Name() << " n=" << g.num_nodes << ": not compiled";
  EXPECT_GE(compile::ThreadPlanBufferFloats(), program->PlanFloats()) << model.Name();
}

// ---- generated inputs ----

graph::EncodedGraph EncodeStageDag(const graph::OpDag& dag) {
  return graph::EncodeGraph(dag, ir::kNumOpTypes, ir::kNumDTypes);
}

graph::DagNode RandomStageNode(util::Rng& rng) {
  return graph::RandomNode(ir::kNumOpTypes, ir::kNumDTypes, rng);
}

graph::OpDag RandomStageDag(std::int32_t n, double edge_prob, util::Rng& rng) {
  return graph::RandomDag(n, edge_prob, rng, ir::kNumOpTypes, ir::kNumDTypes);
}

/// Seeded random DAGs over the IR vocabularies, so they encode to the stage
/// feature width: a single node, three disconnected components, a long
/// chain, a wide fan-out/fan-in, and random DAGs of three densities.
std::vector<graph::EncodedGraph> GeneratedGraphs() {
  util::Rng rng(0x5eed);
  std::vector<graph::EncodedGraph> out;
  out.push_back(EncodeStageDag(RandomStageDag(1, 0.0, rng)));
  {
    graph::OpDag dag;
    for (const graph::OpDag& part :
         {RandomStageDag(7, 0.4, rng), RandomStageDag(5, 0.6, rng), RandomStageDag(1, 0.0, rng)}) {
      const std::int32_t offset = dag.NumNodes();
      for (std::int32_t i = 0; i < part.NumNodes(); ++i) dag.AddNode(part.Node(i));
      for (const auto& [u, v] : part.Edges()) dag.AddEdge(offset + u, offset + v);
    }
    out.push_back(EncodeStageDag(dag));
  }
  {
    graph::OpDag chain;
    for (std::int32_t i = 0; i < 48; ++i) chain.AddNode(RandomStageNode(rng));
    for (std::int32_t i = 0; i + 1 < 48; ++i) chain.AddEdge(i, i + 1);
    out.push_back(EncodeStageDag(chain));
  }
  {
    // One source fanning out to 30 nodes that all fan into one sink.
    graph::OpDag fan;
    for (std::int32_t i = 0; i < 32; ++i) fan.AddNode(RandomStageNode(rng));
    for (std::int32_t i = 1; i <= 30; ++i) {
      fan.AddEdge(0, i);
      fan.AddEdge(i, 31);
    }
    out.push_back(EncodeStageDag(fan));
  }
  out.push_back(EncodeStageDag(RandomStageDag(12, 0.5, rng)));
  out.push_back(EncodeStageDag(RandomStageDag(24, 0.15, rng)));
  out.push_back(EncodeStageDag(RandomStageDag(40, 0.05, rng)));
  return out;
}

/// A 144-node random DAG: at dim 64 with 4 heads of 16, every attention GEMM
/// takes the packed tier, so the fuser emits kFusedAttention (at dim 16 with
/// 2 heads of 8 the per-head GEMMs stay below the packed floor).
const graph::EncodedGraph& LargeGeneratedGraph() {
  static const graph::EncodedGraph g = [] {
    util::Rng rng(0xb16);
    return EncodeStageDag(RandomStageDag(144, 0.04, rng));
  }();
  return g;
}

PredictorOptions Dim64Options() {
  PredictorOptions options;  // defaults: DAG Transformer 4 x 64, 4 heads
  options.feature_dim = StageFeatureDim();
  return options;
}

TEST(InferParity, GeneratedDagsMatchTapeForEveryPredictor) {
  std::vector<graph::EncodedGraph> graphs = GeneratedGraphs();
  graphs.push_back(LargeGeneratedGraph());
  // Every kind at the size the plan-search benchmark runs, plus the DAG
  // Transformer at the paper's dim 64.
  const std::pair<PredictorKind, PredictorOptions> cases[] = {
      {PredictorKind::kDagTransformer, TinyOptions()},
      {PredictorKind::kGcn, TinyOptions()},
      {PredictorKind::kGat, TinyOptions()},
      {PredictorKind::kDagTransformer, Dim64Options()},
  };
  for (const auto& [kind, options] : cases) {
    LatencyRegressor regressor(kind, options);
    for (const graph::EncodedGraph& g : graphs) ExpectCompiledParity(regressor.Model(), g);
    // The batch groups by shape class and runs each group's members through
    // the group's compiled program: bit-equal to per-graph PredictSeconds.
    const std::vector<double> batch = regressor.PredictBatch(graphs);
    ASSERT_EQ(batch.size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(batch[i], regressor.PredictSeconds(graphs[i]))
          << regressor.Model().Name() << " dim=" << options.dagt_dim << " i=" << i;
    }
    // Only the dim-64 DAG Transformer's attention GEMMs all take the packed
    // tier on the large graph, so only there does every layer fuse.
    const auto program = CachedProgramFor(regressor.Model(), LargeGeneratedGraph());
    ASSERT_NE(program, nullptr);
    std::int64_t fused = 0;
    for (const compile::Step& s : program->steps) {
      fused += s.kind == compile::OpKind::kFusedAttention ? 1 : 0;
    }
    const bool fuses = kind == PredictorKind::kDagTransformer && options.dagt_dim == 64;
    EXPECT_EQ(fused, fuses ? options.dagt_layers : 0) << regressor.Model().Name();
  }
}

TEST(InferParity, FreshModelMatchesTape) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    ExpectCompiledParity(*model, g);
  }
}

TEST(InferParity, DagTransformerAblationsMatchTape) {
  const std::vector<graph::EncodedGraph> graphs = GeneratedGraphs();
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      auto model = MakePredictor(PredictorKind::kDagTransformer, options);
      for (const graph::EncodedGraph& g : graphs) {
        SCOPED_TRACE(::testing::Message() << "dagra=" << use_dagra << " dagpe=" << use_dagpe);
        ExpectCompiledParity(*model, g);
      }
    }
  }
}

TEST(InferParity, MatchesTapeAfterOptimizerStep) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    // Build the program and its weight snapshot, then mutate the
    // parameters: the epoch bump inside Adam::Step must invalidate it.
    (void)model->Infer(g);
    const float before = model->Forward(g).value().data()[0];
    nn::Adam adam(*model);
    model->ZeroGrad();
    autograd::Backward(model->Forward(g));
    adam.Step(0.05f);
    const float after = model->Forward(g).value().data()[0];
    ASSERT_NE(before, after) << model->Name() << ": step did not move the output";
    ExpectCompiledParity(*model, g);
  }
}

TEST(InferParity, MatchesTapeAfterStateDictLoad) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    PredictorOptions options = TinyOptions();
    auto source = MakePredictor(kind, options);
    options.seed = 0x999ULL;  // different init so the load visibly changes B
    auto target = MakePredictor(kind, options);
    // Snapshot target's own (soon stale) weights into its program first.
    (void)target->Infer(g);
    std::stringstream buffer;
    nn::WriteStateDict(buffer, *source);
    nn::ReadStateDict(buffer, *target);
    ExpectCompiledParity(*target, g);
    const float from_source = source->Forward(g).value().data()[0];
    const float from_target = target->Infer(g);
    EXPECT_LE(std::abs(from_source - from_target),
              1e-6f * std::max(1.0f, std::abs(from_source)))
        << PredictorKindName(kind);
  }
}

TEST(InferParity, RegressorFastPathMatchesTapePath) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    LatencyRegressor regressor(kind, TinyOptions());
    const double tape = regressor.PredictSecondsTape(g);
    const double fast = regressor.PredictSeconds(g);
    EXPECT_LE(std::abs(fast - tape), 1e-6 * std::max(1.0, std::abs(tape)));
    const std::vector<graph::EncodedGraph> graphs{g, g};
    const std::vector<double> batch = regressor.PredictBatch(graphs);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0], fast);
    EXPECT_EQ(batch[1], fast);
  }
}

// ---- the tape fallback ----

/// What a prediction call produced: its value, or the type it threw.
struct Outcome {
  std::optional<double> value;
  std::string thrown;

  friend bool operator==(const Outcome&, const Outcome&) = default;
  friend std::ostream& operator<<(std::ostream& out, const Outcome& o) {
    if (o.value) return out << *o.value;
    return out << "threw " << o.thrown;
  }
};

template <typename Fn>
Outcome Observe(Fn&& fn) {
  try {
    return {fn(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, typeid(e).name()};
  }
}

TEST(InferFallback, RefusedInputMatchesTape) {
  auto& cache = compile::ProgramCache::Global();
  const graph::EncodedGraph good = TinyEncodedStage();
  // BuildProgram refuses a graph that reports no nodes. The tape runs on the
  // features, mask, adjacency and edges, never on num_nodes, so it answers.
  graph::EncodedGraph refused = good;
  refused.num_nodes = 0;
  // Execute rejects a graph whose features are one column too wide for the
  // program already built for its shape class; the tape throws on it.
  graph::EncodedGraph too_wide = good;
  too_wide.features = tensor::Tensor({good.features.dim(0), good.features.dim(1) + 1});

  for (const PredictorKind kind : kAllKinds) {
    LatencyRegressor regressor(kind, TinyOptions());
    (void)regressor.PredictSeconds(good);
    ASSERT_NE(CachedProgramFor(regressor.Model(), good), nullptr) << PredictorKindName(kind);

    for (const graph::EncodedGraph* g : {&refused, &too_wide}) {
      SCOPED_TRACE(::testing::Message()
                   << PredictorKindName(kind) << (g == &refused ? " refused" : " too wide"));
      const Outcome tape = Observe([&] { return regressor.PredictSecondsTape(*g); });
      EXPECT_EQ(tape.value.has_value(), g == &refused) << tape;
      const std::uint64_t builds = cache.Misses();
      EXPECT_EQ(Observe([&] { return regressor.PredictSeconds(*g); }), tape);
      const std::vector<graph::EncodedGraph> batch{*g, *g};
      EXPECT_EQ(Observe([&] {
                  const std::vector<double> got = regressor.PredictBatch(batch);
                  EXPECT_EQ(got[0], got[1]);
                  return got[0];
                }),
                tape);
      // A refused shape is built once, later calls hit its null marker; the
      // too-wide graph hits the program built for `good`.
      EXPECT_EQ(cache.Misses(), builds + (g == &refused ? 1u : 0u));
    }
    const auto marker = cache.Lookup(regressor.Model().InstanceId(), 0,
                                     static_cast<std::int64_t>(refused.edge_src.size()));
    ASSERT_TRUE(marker.has_value()) << PredictorKindName(kind);
    EXPECT_EQ(*marker, nullptr) << PredictorKindName(kind);
  }
}

// ---- the unfused attention executor's masked softmax retry (regression) ----

/// One row of the unfused attention executor's deferred softmax: exp
/// weights shifted by the *unmasked* row max, and on underflow the shared
/// mask-checking retry. Returns the deferred 1/sum factor.
float DeferredSoftmaxRow(const float* lrow, const float* mrow, float* orow, std::int64_t n) {
  const float maxv = tensor::simd::MaskedRowMax(lrow, nullptr, n);
  const float total = tensor::simd::ExpShiftedNonPositiveSumN(lrow, mrow, maxv, orow, n);
  return total > 0.0f ? 1.0f / total : tensor::fused::MaskedSoftmaxRetryRow(lrow, mrow, orow, n);
}

TEST(InferKernels, RowSoftmaxDeferredMaskedRetryHasNoNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  float logits[3][4] = {};
  float mask[3][4] = {};
  // Row 0: an overflowed +inf logit sits under a -inf mask lane. The shift
  // max (taken over *unmasked* logits) is +inf, so every open lane's exp
  // underflows to zero and the row takes the retry path; a retry that adds
  // the mask to the logits turns this lane into inf + -inf = NaN.
  logits[0][0] = inf;
  mask[0][0] = -inf;
  // Row 1: fully masked.
  for (int j = 0; j < 4; ++j) mask[1][j] = -inf;
  // Row 2: ordinary open row.
  for (int j = 0; j < 4; ++j) logits[2][j] = static_cast<float>(j);
  float weights[3][4];
  float inv[3];
  for (int i = 0; i < 3; ++i) inv[i] = DeferredSoftmaxRow(logits[i], mask[i], weights[i], 4);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::isfinite(inv[i])) << "row " << i;
    for (int j = 0; j < 4; ++j) ASSERT_TRUE(std::isfinite(weights[i][j])) << i << "," << j;
  }
  // Row 0 renormalizes over its three open lanes.
  EXPECT_EQ(weights[0][0], 0.0f);  // the masked lane contributes nothing
  for (int j = 1; j < 4; ++j) EXPECT_FLOAT_EQ(weights[0][j] * inv[0], 1.0f / 3.0f);
  // Row 1 is fully masked: all-zero weights with inv exactly 0.
  EXPECT_EQ(inv[1], 0.0f);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(weights[1][j], 0.0f);
  // Row 2 behaves like an ordinary softmax row.
  float total = 0.0f;
  for (int j = 0; j < 4; ++j) total += weights[2][j] * inv[2];
  EXPECT_NEAR(total, 1.0f, 1e-6f);
}

// ---- concurrency (exercised under TSan via ci/run.sh tsan) ----

TEST(InferConcurrency, SharedModelConcurrentInferIsStable) {
  // Distinct graphs stress the DAG Transformer's depth-keyed
  // positional-encoding cache and the program cache from many threads at
  // once; the refused graph runs the tape fallback concurrently too.
  std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(2, 3),
      TinyEncodedStage(0, 3)};
  graphs.push_back(graphs[1]);
  graphs.back().num_nodes = 0;
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  std::vector<float> expected;
  for (const auto& g : graphs) expected.push_back(model->Infer(g));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 25; ++iter) {
        const std::size_t i = static_cast<std::size_t>(t + iter) % graphs.size();
        if (model->Infer(graphs[i]) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace predtop::core
