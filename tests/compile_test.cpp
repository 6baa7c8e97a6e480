// Tests for the compiled-inference subsystem (predtop::compile): fp32
// plan-vs-tape parity for every predictor, static-arena planner properties
// (no overlapping offsets for live-range-intersecting values, deterministic
// layouts), allocation-free warm forwards, PredictBatch-vs-PredictSeconds
// equality on every pool with one program per shape class, program-cache LRU
// bounds and owner eviction, and concurrent compiled forwards (run under
// TSan by ci/run.sh tsan).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compile/cache.h"
#include "compile/planner.h"
#include "compile/program.h"
#include "core/dataset.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "core/stage_encodings.h"
#include "graph/encode.h"
#include "graph/fingerprint.h"
#include "graph/op_dag.h"
#include "ir/stages.h"
#include "ir/types.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/// The compiled prediction for g, asserting the compiled path actually ran:
/// a program is cached for g's shape class and the thread's plan buffer
/// (touched only by compile::Execute) holds it.
float CompiledScalar(StagePredictor& model, const graph::EncodedGraph& g) {
  const float y = model.Infer(g);
  const auto program = compile::ProgramCache::Global().Lookup(
      model.InstanceId(), g.num_nodes, static_cast<std::int64_t>(g.edge_src.size()));
  EXPECT_TRUE(program.has_value() && *program != nullptr) << model.Name() << ": fell back";
  if (program.has_value() && *program != nullptr) {
    EXPECT_GE(compile::ThreadPlanBufferFloats(), (*program)->PlanFloats()) << model.Name();
  }
  return y;
}

// ---- fp32 parity: compiled program vs autograd tape ----

TEST(CompiledParity, AllPredictorsMatchTape) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = CompiledScalar(*model, g);
    ASSERT_TRUE(std::isfinite(compiled)) << model->Name();
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
        << model->Name() << ": tape=" << tape << " compiled=" << compiled;
  }
}

TEST(CompiledParity, DagTransformerAblationsMatchTape) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      auto model = MakePredictor(PredictorKind::kDagTransformer, options);
      const float tape = model->Forward(g).value().data()[0];
      const float compiled = CompiledScalar(*model, g);
      EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
          << "dagra=" << use_dagra << " dagpe=" << use_dagpe;
    }
  }
}

TEST(CompiledParity, SnapshotTracksOptimizerStep) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const float before = CompiledScalar(*model, g);
    nn::Adam adam(*model);
    model->ZeroGrad();
    autograd::Backward(model->Forward(g));
    adam.Step(0.05f);
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = CompiledScalar(*model, g);
    ASSERT_NE(before, tape) << model->Name() << ": step did not move the output";
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
        << model->Name() << ": stale snapshot after epoch bump";
  }
}

TEST(CompiledParity, MultipleShapeClassesCoexist) {
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  for (const auto& g : graphs) {
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = CompiledScalar(*model, g);
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
        << "n=" << g.num_nodes;
  }
}

/// Diamond input -> {matmul, add} -> output, with original node order[k]
/// placed at index k: every order has the same order-free fingerprint, but
/// the per-node depths follow the order.
graph::EncodedGraph EncodedDiamond(const std::vector<std::int32_t>& order) {
  const graph::DagNode nodes[] = {
      {graph::NodeKind::kInput, 0, 1, {1, 1, 8, 16}},
      {graph::NodeKind::kOperator, 3, 1, {1, 1, 8, 32}},
      {graph::NodeKind::kOperator, 5, 1, {1, 1, 8, 16}},
      {graph::NodeKind::kOutput, 0, 1, {1, 1, 8, 32}},
  };
  std::vector<std::int32_t> index(order.size());
  graph::OpDag dag;
  for (const std::int32_t original : order) {
    index[static_cast<std::size_t>(original)] = dag.AddNode(nodes[original]);
  }
  for (const auto& [u, v] : {std::pair{0, 1}, std::pair{0, 2}, std::pair{1, 3}, std::pair{2, 3}}) {
    dag.AddEdge(index[static_cast<std::size_t>(u)], index[static_cast<std::size_t>(v)]);
  }
  return graph::EncodeGraph(dag, ir::kNumOpTypes, ir::kNumDTypes);
}

TEST(CompiledParity, DepthEncodingCacheSeparatesNodeOrders) {
  const graph::EncodedGraph a = EncodedDiamond({0, 1, 2, 3});
  const graph::EncodedGraph b = EncodedDiamond({0, 3, 1, 2});
  ASSERT_EQ(a.depths, (std::vector<std::int32_t>{0, 1, 1, 2}));
  ASSERT_EQ(b.depths, (std::vector<std::int32_t>{0, 2, 1, 1}));
  ASSERT_EQ(graph::EncodedGraphFingerprint(a), graph::EncodedGraphFingerprint(b));
  using Sequence = std::array<const graph::EncodedGraph*, 2>;
  for (const Sequence& sequence : {Sequence{&a, &b}, Sequence{&b, &a}}) {
    // A fresh model per sequence, so its depth-encoding cache starts empty
    // and the second graph is predicted after the first one's entry exists.
    auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
    for (const graph::EncodedGraph* g : sequence) {
      const float tape = model->Forward(*g).value().data()[0];
      const float got = CompiledScalar(*model, *g);
      EXPECT_LE(std::abs(got - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
          << "depths[1]=" << g->depths[1] << " first=" << (sequence[0] == &a ? "a" : "b")
          << ": tape=" << tape << " got=" << got;
    }
  }
}

// ---- determinism and the allocation-free warm forward ----

TEST(CompiledDeterminism, RepeatedExecuteIsBitIdentical) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const float first = CompiledScalar(*model, g);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(CompiledScalar(*model, g), first) << model->Name() << " run " << i;
    }
  }
}

TEST(CompiledArena, WarmForwardAllocatesNothing) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    (void)CompiledScalar(*model, g);  // cold: builds program, grows plan buffer
    const std::int64_t plan_floats = compile::ThreadPlanBufferFloats();
    for (int i = 0; i < 3; ++i) (void)CompiledScalar(*model, g);
    EXPECT_EQ(compile::ThreadPlanBufferFloats(), plan_floats)
        << model->Name() << ": warm forward grew the plan buffer";
  }
}

// ---- planner properties ----

std::vector<compile::Lifetime> RandomLifetimes(util::Rng& rng, int count, int max_steps) {
  std::vector<compile::Lifetime> lifetimes;
  lifetimes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    compile::Lifetime lt;
    lt.floats = static_cast<std::int64_t>(rng.NextU64() % 400);  // zero-size allowed
    lt.first = static_cast<std::int32_t>(rng.NextU64() % static_cast<std::uint64_t>(max_steps));
    lt.last = lt.first + static_cast<std::int32_t>(rng.NextU64() %
                                                   static_cast<std::uint64_t>(max_steps));
    lifetimes.push_back(lt);
  }
  return lifetimes;
}

TEST(Planner, LiveRangeIntersectingValuesNeverOverlap) {
  util::Rng rng(0x9141ULL);
  for (int round = 0; round < 50; ++round) {
    const auto lifetimes = RandomLifetimes(rng, 40, 24);
    const compile::PlanLayout layout = compile::PlanOffsets(lifetimes);
    ASSERT_EQ(layout.offsets.size(), lifetimes.size());
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
      if (lifetimes[i].floats <= 0) continue;
      EXPECT_EQ(layout.offsets[i] % compile::kPlanAlign, 0) << "round " << round;
      EXPECT_LE(layout.offsets[i] + lifetimes[i].floats, layout.total_floats);
      for (std::size_t j = i + 1; j < lifetimes.size(); ++j) {
        if (lifetimes[j].floats <= 0) continue;
        const bool live_overlap = lifetimes[i].first <= lifetimes[j].last &&
                                  lifetimes[j].first <= lifetimes[i].last;
        if (!live_overlap) continue;
        const bool mem_overlap = layout.offsets[i] < layout.offsets[j] + lifetimes[j].floats &&
                                 layout.offsets[j] < layout.offsets[i] + lifetimes[i].floats;
        EXPECT_FALSE(mem_overlap)
            << "round " << round << ": values " << i << " and " << j
            << " are live together at offsets " << layout.offsets[i] << "/"
            << layout.offsets[j];
      }
    }
  }
}

TEST(Planner, ReusesMemoryAcrossDisjointLifetimes) {
  // A chain a->b->c->d where each value dies as the next is defined: the
  // planner must reuse slots instead of laying the four out end to end.
  std::vector<compile::Lifetime> chain;
  for (int i = 0; i < 4; ++i) chain.push_back({.floats = 256, .first = i, .last = i + 1});
  const compile::PlanLayout layout = compile::PlanOffsets(chain);
  EXPECT_LT(layout.total_floats, 4 * 256);
  EXPECT_EQ(layout.offsets[0], layout.offsets[2]);  // a and c never coexist
  EXPECT_EQ(layout.offsets[1], layout.offsets[3]);
}

TEST(Planner, LayoutIsDeterministic) {
  util::Rng rng(77);
  const auto lifetimes = RandomLifetimes(rng, 30, 16);
  const compile::PlanLayout a = compile::PlanOffsets(lifetimes);
  const compile::PlanLayout b = compile::PlanOffsets(lifetimes);
  EXPECT_EQ(a.total_floats, b.total_floats);
  EXPECT_EQ(a.offsets, b.offsets);
}

// ---- fused attention at production scale ----

/// A real paper-size GPT-3 stage graph (the shape the prediction service
/// serves, ~230 nodes): large enough that every attention GEMM takes the
/// packed tier and the fuser emits kFusedAttention steps.
const graph::EncodedGraph& PaperScaleStage() {
  static const graph::EncodedGraph g =
      EncodeStage(ir::BuildGpt3Stage(ir::Gpt3Config{}, {0, 4}));
  return g;
}

PredictorOptions PaperOptions() {
  PredictorOptions options;  // defaults: DAG Transformer 4 x 64, 4 heads
  options.feature_dim = StageFeatureDim();
  return options;
}

TEST(FusedParity, PaperScaleGraphTakesFusedKernelAndMatchesTape) {
  const graph::EncodedGraph& g = PaperScaleStage();
  const std::int64_t n = g.num_nodes;
  // Preconditions for the fused kernel (dim 64, head_dim 16).
  ASSERT_TRUE(tensor::UsePackedGemm(n, 64, 64));
  ASSERT_TRUE(tensor::UsePackedGemm(n, 16, n));
  ASSERT_TRUE(tensor::UsePackedGemm(n, n, 16));
  for (const bool use_dagra : {true, false}) {
    PredictorOptions options = PaperOptions();
    options.use_dagra = use_dagra;
    auto model = MakePredictor(PredictorKind::kDagTransformer, options);
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = CompiledScalar(*model, g);
    const auto hit = compile::ProgramCache::Global().Lookup(
        model->InstanceId(), n, static_cast<std::int64_t>(g.edge_src.size()));
    ASSERT_TRUE(hit.has_value());
    ASSERT_NE(*hit, nullptr);
    int fused = 0;
    for (const compile::Step& s : (*hit)->steps) {
      fused += s.kind == compile::OpKind::kFusedAttention ? 1 : 0;
    }
    EXPECT_EQ(fused, 4) << "expected every layer's attention to fuse";
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
        << "dagra=" << use_dagra << ": tape=" << tape << " compiled=" << compiled;
  }
}

// ---- program cache ----

TEST(ProgramCache, EntriesAreEvictedWhenOwnerDies) {
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  const graph::EncodedGraph g = TinyEncodedStage();
  {
    auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
    (void)CompiledScalar(*model, g);
    EXPECT_GE(cache.Size(), 1u);
  }
  EXPECT_EQ(cache.Size(), 0u);  // ~StagePredictor evicted its programs
}

TEST(ProgramCache, LruStaysWithinCapacity) {
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  cache.SetCapacity(2);
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(2, 3),
      TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  for (const auto& g : graphs) {
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = CompiledScalar(*model, g);  // recompiles on eviction
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)));
    EXPECT_LE(cache.Size(), 2u);
  }
  cache.SetCapacity(compile::ProgramCache::kDefaultCapacity);
}

// ---- concurrency (exercised under TSan via ci/run.sh tsan) ----

TEST(CompiledConcurrency, SharedModelConcurrentCompiledForwardIsStable) {
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(2, 3),
      TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  std::vector<float> expected;
  for (const auto& g : graphs) expected.push_back(CompiledScalar(*model, g));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        const std::size_t which = static_cast<std::size_t>(t + i) % graphs.size();
        const float y = model->Infer(graphs[which]);
        if (y != expected[which]) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- LatencyRegressor::PredictBatch over compiled programs ----

/// A same-shape batch with genuinely distinct inputs: copies of `g` whose
/// feature tensors are scaled per query. Shape class, depths, adjacency, and
/// DAGRA mask stay shared, so every copy routes to one compiled program while
/// each query's numbers differ — a result written to the wrong slot shows up
/// as a cross-query value swap, not a silent pass.
std::vector<graph::EncodedGraph> DistinctSameShapeBatch(const graph::EncodedGraph& g,
                                                        std::size_t count) {
  std::vector<graph::EncodedGraph> graphs(count, g);
  for (std::size_t q = 0; q < count; ++q) {
    const float scale = 1.0f + 0.05f * static_cast<float>(q % 11);
    for (float& x : graphs[q].features.data()) x *= scale;
  }
  return graphs;
}

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64};

/// PredictBatch over the first {1, 2, 7, 64} perturbed copies of one stage,
/// on each of `pools` (nullptr: no pool), must be bit-equal to per-graph
/// PredictSeconds through the compiled program. The log transform
/// maps every normalized output to a distinct positive latency (the linear
/// one clamps an untrained model's negative outputs to one 1 us floor, which
/// would hide a query answered from another query's inputs).
void ExpectPredictBatchMatchesPredictSeconds(const PredictorOptions& options,
                                             PredictorKind kind,
                                             std::span<util::ThreadPool* const> pools) {
  LatencyRegressor regressor(kind, options, TargetTransform::kLogStandardized);
  const std::vector<graph::EncodedGraph> graphs =
      DistinctSameShapeBatch(TinyEncodedStage(), 64);
  std::vector<double> expected;
  for (const graph::EncodedGraph& g : graphs) expected.push_back(regressor.PredictSeconds(g));
  (void)CompiledScalar(regressor.Model(), graphs[0]);  // the compiled path answers
  ASSERT_EQ(std::set<double>(expected.begin(), expected.begin() + 11).size(), 11u)
      << regressor.Model().Name() << ": perturbed queries must predict distinct latencies";

  for (util::ThreadPool* pool : pools) {
    const std::size_t threads = pool != nullptr ? pool->ThreadCount() : 0;
    for (const std::size_t batch : kBatchSizes) {
      const std::vector<double> got =
          regressor.PredictBatch(std::span(graphs.data(), batch), pool);
      ASSERT_EQ(got.size(), batch);
      for (std::size_t q = 0; q < batch; ++q) {
        ASSERT_EQ(got[q], expected[q]) << regressor.Model().Name() << " pool=" << threads
                                       << " batch=" << batch << " q=" << q;
      }
    }
  }
}

TEST(CompiledBatch, StackedModeMatchesSequentialBitExact) {
  // A same-shape group without a pool: one program, its members executed in
  // turn on the caller's thread (the work the stacked batch pass once did).
  util::ThreadPool* const no_pool[] = {nullptr};
  for (const PredictorKind kind : kAllKinds) {
    ExpectPredictBatchMatchesPredictSeconds(TinyOptions(), kind, no_pool);
    if (HasFatalFailure()) return;
  }
}

TEST(CompiledBatch, InterleavedModeMatchesAcrossThreadCounts) {
  // The same group with its members fanned out on the caller's pool of 1, 2
  // and 8 workers (the work the interleaved batch pass once did).
  util::ThreadPool pool1(1);
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  util::ThreadPool* const pools[] = {&pool1, &pool2, &pool8};
  for (const PredictorKind kind : kAllKinds) {
    ExpectPredictBatchMatchesPredictSeconds(TinyOptions(), kind, pools);
    if (HasFatalFailure()) return;
  }
}

TEST(CompiledBatch, DagTransformerAblationsMatchInBatch) {
  util::ThreadPool pool1(1);
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  util::ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool8};
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      if (use_dagra && use_dagpe) continue;  // the full model runs above
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      SCOPED_TRACE(std::string("dagra=") + (use_dagra ? "on" : "off") +
                   " dagpe=" + (use_dagpe ? "on" : "off"));
      ExpectPredictBatchMatchesPredictSeconds(options, PredictorKind::kDagTransformer, pools);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CompiledBatch, OneProgramPerShapeClassOnAPool) {
  // Three shape classes, five distinct-input members each, interleaved in
  // arrival order. Each group resolves its program once, on its first
  // member: a fresh regressor misses the program cache exactly once per
  // shape class and never hits it.
  const graph::EncodedGraph bases[] = {TinyEncodedStage(0, 1), TinyEncodedStage(1, 2),
                                       TinyEncodedStage(0, 3)};
  std::vector<std::vector<graph::EncodedGraph>> members;
  for (const graph::EncodedGraph& base : bases) {
    members.push_back(DistinctSameShapeBatch(base, 5));
  }
  std::vector<const graph::EncodedGraph*> graphs;
  for (std::size_t q = 0; q < 5; ++q) {
    for (const auto& group : members) graphs.push_back(&group[q]);
  }
  std::set<std::pair<std::int64_t, std::size_t>> shapes;
  for (const graph::EncodedGraph* g : graphs) shapes.emplace(g->num_nodes, g->edge_src.size());
  ASSERT_EQ(shapes.size(), 3u);

  LatencyRegressor reference(PredictorKind::kDagTransformer, TinyOptions(),
                             TargetTransform::kLogStandardized);
  std::vector<double> expected;
  for (const graph::EncodedGraph* g : graphs) expected.push_back(reference.PredictSeconds(*g));

  util::ThreadPool pool(2);
  LatencyRegressor regressor(PredictorKind::kDagTransformer, TinyOptions(),
                             TargetTransform::kLogStandardized);
  auto& cache = compile::ProgramCache::Global();
  const std::uint64_t misses0 = cache.Misses();
  const std::uint64_t hits0 = cache.Hits();
  const std::vector<double> got =
      regressor.PredictBatch(std::span<const graph::EncodedGraph* const>(graphs), &pool);
  EXPECT_EQ(cache.Misses() - misses0, shapes.size());
  EXPECT_EQ(cache.Hits() - hits0, 0u) << "a group resolved its program more than once";
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]) << i;
}

TEST(CompiledBatch, RegressorBatchMatchesSequentialAcrossShapes) {
  // Three shape classes, interleaved and with same-shape duplicates: the
  // regressor must split per shape, run each group batched, and scatter the
  // results back in caller order.
  std::vector<graph::EncodedGraph> graphs{TinyEncodedStage(0, 1), TinyEncodedStage(1, 2),
                                          TinyEncodedStage(0, 3), TinyEncodedStage(1, 2),
                                          TinyEncodedStage(0, 1), TinyEncodedStage(1, 2)};
  for (const PredictorKind kind : kAllKinds) {
    LatencyRegressor regressor(kind, TinyOptions());
    std::vector<double> expected;
    for (const auto& g : graphs) expected.push_back(regressor.PredictSeconds(g));
    const std::vector<double> batched =
        regressor.PredictBatch(std::span<const graph::EncodedGraph>(graphs));
    ASSERT_EQ(batched.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batched[i], expected[i]) << regressor.Model().Name() << " i=" << i;
    }
    // The pointer-span overload (the serving path's deduplicated misses) in
    // reversed order must scatter each result back to its own query.
    std::vector<const graph::EncodedGraph*> reversed;
    for (auto it = graphs.rbegin(); it != graphs.rend(); ++it) reversed.push_back(&*it);
    const std::vector<double> by_ptr =
        regressor.PredictBatch(std::span<const graph::EncodedGraph* const>(reversed));
    ASSERT_EQ(by_ptr.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(by_ptr[i], expected[expected.size() - 1 - i])
          << regressor.Model().Name() << " reversed i=" << i;
    }
  }
}

/// The distinct pruned stage DAGs of the two cold Fig. 10 plan searches,
/// one store per search: GPT-3 slices of spans <= 9 (27 graphs) and MoE
/// slices of spans <= 11 (44), in first-seen order. Nearly every one is its
/// own shape class.
const std::vector<const graph::EncodedGraph*>& SearchDistinctGraphs() {
  static StageEncodings encodings[2];
  static const std::vector<const graph::EncodedGraph*> graphs = [] {
    const std::pair<BenchmarkModel, std::int32_t> searches[] = {{Gpt3Benchmark(), 9},
                                                                {MoeBenchmark(), 11}};
    std::vector<const graph::EncodedGraph*> out;
    std::set<const graph::EncodedGraph*> seen;
    for (std::size_t s = 0; s < 2; ++s) {
      const auto& [benchmark, span] = searches[s];
      for (const ir::StageSlice slice : ir::EnumerateStageSlices(benchmark.num_layers, span)) {
        const graph::EncodedGraph& g = encodings[s].For(slice, benchmark.build_stage);
        if (seen.insert(&g).second) out.push_back(&g);
      }
    }
    return out;
  }();
  return graphs;
}

TEST(CompiledBatch, RegressorBatchFanOutMatchesPerGraphOnEveryPool) {
  // The search's distinct graphs plus same-shape copies that join a group:
  // three of the 4-node diamond and three of the largest search graph.
  std::vector<const graph::EncodedGraph*> graphs = SearchDistinctGraphs();
  ASSERT_EQ(graphs.size(), 27u + 44u);
  const graph::EncodedGraph* largest = *std::ranges::max_element(
      graphs, {}, [](const graph::EncodedGraph* g) { return g->num_nodes; });
  const std::vector<graph::EncodedGraph> diamonds =
      DistinctSameShapeBatch(EncodedDiamond({0, 1, 2, 3}), 3);
  const std::vector<graph::EncodedGraph> copies = DistinctSameShapeBatch(*largest, 4);
  for (const auto& g : diamonds) graphs.push_back(&g);
  for (std::size_t q = 1; q < copies.size(); ++q) graphs.push_back(&copies[q]);

  LatencyRegressor reference(PredictorKind::kDagTransformer, TinyOptions(),
                             TargetTransform::kLogStandardized);
  std::vector<double> expected;
  for (const graph::EncodedGraph* g : graphs) expected.push_back(reference.PredictSeconds(*g));

  for (const std::size_t threads : {0, 1, 2, 4}) {
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    // A fresh regressor (same seed, so the same weights): every program is
    // built inside the fanned-out call, concurrently across groups.
    LatencyRegressor regressor(PredictorKind::kDagTransformer, TinyOptions(),
                               TargetTransform::kLogStandardized);
    const std::uint64_t builds0 = compile::ProgramCache::Global().Misses();
    const std::vector<double> got = regressor.PredictBatch(
        std::span<const graph::EncodedGraph* const>(graphs), pool ? &*pool : nullptr);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "threads=" << threads << " i=" << i;
    }
    // One build per shape class: the diamonds' and the search graphs' own.
    std::set<std::pair<std::int64_t, std::size_t>> shapes;
    for (const graph::EncodedGraph* g : graphs) shapes.emplace(g->num_nodes, g->edge_src.size());
    EXPECT_EQ(compile::ProgramCache::Global().Misses() - builds0, shapes.size())
        << "threads=" << threads;
  }
}

TEST(CompiledBatchArena, WarmBatchAllocatesNothing) {
  // Without a pool every member runs compile::Execute on the calling thread:
  // once the shape is warm, re-running the batch must not grow its plan
  // buffer.
  LatencyRegressor regressor(PredictorKind::kDagTransformer, TinyOptions());
  const std::vector<graph::EncodedGraph> graphs =
      DistinctSameShapeBatch(TinyEncodedStage(), 8);
  (void)regressor.PredictBatch(std::span<const graph::EncodedGraph>(graphs));
  const std::int64_t plan_floats = compile::ThreadPlanBufferFloats();
  EXPECT_GT(plan_floats, 0);
  for (int i = 0; i < 3; ++i) {
    (void)regressor.PredictBatch(std::span<const graph::EncodedGraph>(graphs));
  }
  EXPECT_EQ(compile::ThreadPlanBufferFloats(), plan_floats)
      << "warm batch grew the plan buffer";
}

TEST(ProgramCache, HitAndMissCountersAreMonotonic) {
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  const graph::EncodedGraph g = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kGcn, TinyOptions());
  const std::uint64_t misses0 = cache.Misses();
  (void)CompiledScalar(*model, g);  // cold: misses, then compiles and inserts
  EXPECT_GT(cache.Misses(), misses0);
  const std::uint64_t hits1 = cache.Hits();
  const std::uint64_t misses1 = cache.Misses();
  (void)CompiledScalar(*model, g);  // warm: pure hit
  EXPECT_GT(cache.Hits(), hits1);
  EXPECT_EQ(cache.Misses(), misses1);
}

// Exercised under TSan via ci/run.sh tsan: concurrent PredictBatch calls on
// one shared regressor, half of them fanning out on one shared pool, hit the
// program cache, the weight snapshot, the DAGRA/PE caches and the per-thread
// plan buffers from many threads at once.
TEST(CompiledBatchConcurrency, SharedModelConcurrentBatchForwardIsStable) {
  LatencyRegressor regressor(PredictorKind::kDagTransformer, TinyOptions(),
                             TargetTransform::kLogStandardized);
  const std::vector<graph::EncodedGraph> graphs =
      DistinctSameShapeBatch(TinyEncodedStage(), 6);
  std::vector<double> expected;
  for (const graph::EncodedGraph& g : graphs) expected.push_back(regressor.PredictSeconds(g));
  util::ThreadPool pool(2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      util::ThreadPool* fan_out = t % 2 == 0 ? &pool : nullptr;
      for (int i = 0; i < 16; ++i) {
        const std::vector<double> got =
            regressor.PredictBatch(std::span<const graph::EncodedGraph>(graphs), fan_out);
        for (std::size_t q = 0; q < graphs.size(); ++q) {
          if (got[q] != expected[q]) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace predtop::core
