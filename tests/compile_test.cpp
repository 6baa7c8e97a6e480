// Tests for the compiled-inference subsystem (predtop::compile): fp32
// plan-vs-tape parity for every predictor, static-arena planner properties
// (no overlapping offsets for live-range-intersecting values, deterministic
// layouts), allocation-free warm forwards, batch-vs-sequential equality and
// the kAuto interleave crossover, program-cache LRU bounds and owner
// eviction, and concurrent compiled forwards (run under TSan by
// ci/run.sh tsan).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "compile/batch.h"
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

// ---- batch-compiled execution ----

/// A same-shape batch with genuinely distinct inputs: copies of `g` whose
/// feature tensors are scaled per query. Shape class, depths, adjacency, and
/// DAGRA mask stay shared, so every copy routes to one compiled program while
/// each query's numbers differ — a wrong stacked offset shows up as a
/// cross-query value swap, not a silent pass.
std::vector<graph::EncodedGraph> DistinctSameShapeBatch(const graph::EncodedGraph& g,
                                                        std::size_t count) {
  std::vector<graph::EncodedGraph> graphs(count, g);
  for (std::size_t q = 0; q < count; ++q) {
    const float scale = 1.0f + 0.05f * static_cast<float>(q % 11);
    for (float& x : graphs[q].features.data()) x *= scale;
  }
  return graphs;
}

/// Pointer view + per-query sequential-compiled expectations for a batch.
struct BatchFixture {
  std::vector<graph::EncodedGraph> graphs;
  std::vector<const graph::EncodedGraph*> ptrs;
  std::vector<float> expected;  // sequential compiled scalar per query
};

BatchFixture MakeBatchFixture(StagePredictor& model, const graph::EncodedGraph& base,
                              std::size_t count) {
  BatchFixture f;
  f.graphs = DistinctSameShapeBatch(base, count);
  for (const auto& g : f.graphs) {
    f.ptrs.push_back(&g);
    f.expected.push_back(CompiledScalar(model, g));
  }
  return f;
}

/// Runs the first `batch` queries of `f` through TryInferCompiledBatch under
/// `opts` and asserts bit-exact agreement with the sequential expectations.
void ExpectBatchParity(StagePredictor& model, const BatchFixture& f, std::size_t batch,
                       const compile::BatchOptions& opts, const char* what) {
  std::vector<float> out(batch, -1.0f);
  ASSERT_TRUE(model.TryInferCompiledBatch(f.ptrs.data(), batch, out.data(), opts))
      << model.Name() << " " << what << " batch=" << batch << ": fell back";
  for (std::size_t q = 0; q < batch; ++q) {
    ASSERT_EQ(out[q], f.expected[q])
        << model.Name() << " " << what << " batch=" << batch << " q=" << q;
  }
}

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64};

TEST(CompiledBatch, StackedModeMatchesSequentialBitExact) {
  const graph::EncodedGraph base = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const BatchFixture f = MakeBatchFixture(*model, base, 64);
    compile::BatchOptions opts;
    opts.mode = compile::BatchMode::kBatched;
    for (const std::size_t batch : kBatchSizes) {
      ExpectBatchParity(*model, f, batch, opts, "stacked");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CompiledBatch, InterleavedModeMatchesAcrossThreadCounts) {
  const graph::EncodedGraph base = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const BatchFixture f = MakeBatchFixture(*model, base, 64);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      compile::BatchOptions opts;
      opts.mode = compile::BatchMode::kInterleaved;
      opts.pool = &pool;
      for (const std::size_t batch : kBatchSizes) {
        ExpectBatchParity(*model, f, batch, opts, "interleaved");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CompiledBatch, DagTransformerAblationsMatchInBatch) {
  const graph::EncodedGraph base = TinyEncodedStage();
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      auto model = MakePredictor(PredictorKind::kDagTransformer, options);
      const BatchFixture f = MakeBatchFixture(*model, base, 7);
      compile::BatchOptions opts;
      opts.mode = compile::BatchMode::kBatched;
      ExpectBatchParity(*model, f, 7, opts, "ablation");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CompiledBatch, AutoModeCountsEveryQuery) {
  const graph::EncodedGraph base = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  const BatchFixture f = MakeBatchFixture(*model, base, 5);
  const std::uint64_t before =
      compile::BatchedForwards() + compile::InterleavedForwards();
  ExpectBatchParity(*model, f, 5, compile::BatchOptions{}, "auto");
  EXPECT_EQ(compile::BatchedForwards() + compile::InterleavedForwards(), before + 5)
      << "every query must land in exactly one batch-path counter";
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
  // three of the 4-node diamond, whose forward is too small to interleave
  // (stacked), and three of the largest search graph (interleaved).
  std::vector<const graph::EncodedGraph*> graphs = SearchDistinctGraphs();
  ASSERT_EQ(graphs.size(), 27u + 44u);
  const graph::EncodedGraph* largest = *std::ranges::max_element(
      graphs, {}, [](const graph::EncodedGraph* g) { return g->num_nodes; });
  const std::vector<graph::EncodedGraph> diamonds =
      DistinctSameShapeBatch(EncodedDiamond({0, 1, 2, 3}), 3);
  const std::vector<graph::EncodedGraph> copies = DistinctSameShapeBatch(*largest, 4);
  for (const auto& g : diamonds) graphs.push_back(&g);
  for (std::size_t q = 1; q < copies.size(); ++q) graphs.push_back(&copies[q]);

  LatencyRegressor reference(PredictorKind::kDagTransformer, TinyOptions());
  std::vector<double> expected;
  for (const graph::EncodedGraph* g : graphs) expected.push_back(reference.PredictSeconds(*g));

  for (const std::size_t threads : {0, 1, 2, 4}) {
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    // A fresh regressor (same seed, so the same weights): every program is
    // built inside the fanned-out call, concurrently across groups.
    LatencyRegressor regressor(PredictorKind::kDagTransformer, TinyOptions());
    const std::uint64_t builds0 = compile::ProgramCache::Global().Misses();
    const std::uint64_t batched0 = compile::BatchedForwards();
    const std::uint64_t interleaved0 = compile::InterleavedForwards();
    const std::vector<double> got = regressor.PredictBatch(
        std::span<const graph::EncodedGraph* const>(graphs), pool ? &*pool : nullptr);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "threads=" << threads << " i=" << i;
    }
    const std::uint64_t batched = compile::BatchedForwards() - batched0;
    const std::uint64_t interleaved = compile::InterleavedForwards() - interleaved0;
    EXPECT_EQ(batched + interleaved, graphs.size()) << "threads=" << threads;
    // One build per shape class: the diamonds' and the search graphs' own.
    std::set<std::pair<std::int64_t, std::size_t>> shapes;
    for (const graph::EncodedGraph* g : graphs) shapes.emplace(g->num_nodes, g->edge_src.size());
    EXPECT_EQ(compile::ProgramCache::Global().Misses() - builds0, shapes.size())
        << "threads=" << threads;
    if (pool) {
      EXPECT_GE(batched, diamonds.size()) << "threads=" << threads;
      EXPECT_GE(interleaved, copies.size()) << "threads=" << threads;
    }
  }
}

TEST(CompiledBatch, AutoModeCrossoverFollowsLinearFlops) {
  // A one-worker pool plus the calling thread makes kAuto's thread condition
  // hold on any host, so the per-query linear FLOPs alone decide the path:
  // the tiny trunk stays stacked, the paper-size dim-64 trunk interleaves.
  util::ThreadPool pool(1);
  compile::BatchOptions opts;
  opts.pool = &pool;
  struct Case {
    const char* name;
    std::unique_ptr<StagePredictor> model;
    const graph::EncodedGraph* base;
    bool interleaves;
  };
  const graph::EncodedGraph tiny = TinyEncodedStage();
  Case cases[] = {
      {"tiny", MakePredictor(PredictorKind::kDagTransformer, TinyOptions()), &tiny, false},
      {"paper", MakePredictor(PredictorKind::kDagTransformer, PaperOptions()),
       &PaperScaleStage(), true},
  };
  constexpr std::size_t kCount = compile::kInterleaveMinBatch + 1;
  for (Case& c : cases) {
    const BatchFixture f = MakeBatchFixture(*c.model, *c.base, kCount);
    const auto program = compile::ProgramCache::Global().Lookup(
        c.model->InstanceId(), c.base->num_nodes,
        static_cast<std::int64_t>(c.base->edge_src.size()));
    ASSERT_TRUE(program.has_value() && *program != nullptr) << c.name;
    EXPECT_EQ(compile::LinearFlops(**program) >= compile::kInterleaveMinFlops, c.interleaves)
        << c.name << ": linear FLOPs " << compile::LinearFlops(**program);
    const std::uint64_t batched0 = compile::BatchedForwards();
    const std::uint64_t interleaved0 = compile::InterleavedForwards();
    ExpectBatchParity(*c.model, f, kCount, opts, c.name);
    EXPECT_EQ(compile::InterleavedForwards() - interleaved0, c.interleaves ? kCount : 0u)
        << c.name;
    EXPECT_EQ(compile::BatchedForwards() - batched0, c.interleaves ? 0u : kCount) << c.name;
  }
}

TEST(CompiledBatchArena, WarmBatchAllocatesNothing) {
  const graph::EncodedGraph base = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  const BatchFixture f = MakeBatchFixture(*model, base, 8);
  std::vector<float> out(8);
  compile::BatchOptions opts;
  opts.mode = compile::BatchMode::kBatched;
  // Cold: compiles the program (if needed) and grows the batched plan buffer.
  ASSERT_TRUE(model->TryInferCompiledBatch(f.ptrs.data(), 8, out.data(), opts));
  const std::int64_t batch_floats = compile::ThreadBatchBufferFloats();
  EXPECT_GT(batch_floats, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(model->TryInferCompiledBatch(f.ptrs.data(), 8, out.data(), opts));
  }
  EXPECT_EQ(compile::ThreadBatchBufferFloats(), batch_floats)
      << "warm batched forward grew the plan buffer";
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

// Exercised under TSan via ci/run.sh tsan: concurrent stacked batches on one
// shared model hit the program cache, the weight snapshot, and the per-thread
// batch buffers from many threads at once.
TEST(CompiledBatchConcurrency, SharedModelConcurrentBatchForwardIsStable) {
  const graph::EncodedGraph base = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  const BatchFixture f = MakeBatchFixture(*model, base, 6);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      compile::BatchOptions opts;
      opts.mode = compile::BatchMode::kBatched;
      std::vector<float> out(f.ptrs.size());
      for (int i = 0; i < 16; ++i) {
        if (!model->TryInferCompiledBatch(f.ptrs.data(), f.ptrs.size(), out.data(),
                                          opts)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t q = 0; q < f.ptrs.size(); ++q) {
          if (out[q] != f.expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace predtop::core
