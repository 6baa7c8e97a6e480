// Tests for the tape-free inference fast path: packed-GEMM numerics, the
// tensor arena, InferForward/Forward parity for every predictor (including
// after parameter mutation, which must invalidate the cached packed
// weights), and concurrent fast-path prediction (run under TSan by
// ci/run.sh tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "graph/fingerprint.h"
#include "nn/infer.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace predtop::core {
namespace {

// ---- packed GEMM ----

void ExpectTensorsClose(const tensor::Tensor& a, const tensor::Tensor& b, float tol) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    ASSERT_LE(std::abs(x - y), tol * std::max(1.0f, std::abs(x))) << "element " << i;
  }
}

TEST(PackedGemm, MatchesNaiveAcrossShapes) {
  // Full panels, ragged panels, ragged row blocks, single rows.
  const struct { std::int64_t m, k, n; } shapes[] = {
      {1, 8, 16},  {6, 8, 16},   {7, 33, 16},  {13, 17, 40},
      {3, 100, 17}, {50, 20, 100}, {64, 64, 64}, {61, 47, 129},
  };
  util::Rng rng(11);
  for (const auto& s : shapes) {
    const tensor::Tensor a = tensor::Tensor::Randn({s.m, s.k}, rng);
    const tensor::Tensor b = tensor::Tensor::Randn({s.k, s.n}, rng);
    const tensor::Tensor packed = tensor::MatMulPacked(a, tensor::PackB(b));
    ExpectTensorsClose(packed, tensor::MatMulNaive(a, b), 1e-5f);
  }
}

TEST(PackedGemm, PackTransposedMatchesPackOfTranspose) {
  util::Rng rng(12);
  const tensor::Tensor bt = tensor::Tensor::Randn({40, 23}, rng);  // (n, k)
  const tensor::Tensor b = tensor::Transpose2D(bt);                // (k, n)
  tensor::PackedB from_t;
  tensor::PackBTransposedInto(bt.data().data(), b.dim(0), b.dim(1), from_t);
  const tensor::PackedB direct = tensor::PackB(b);
  ASSERT_EQ(from_t.data.size(), direct.data.size());
  for (std::size_t i = 0; i < direct.data.size(); ++i) {
    ASSERT_EQ(from_t.data[i], direct.data[i]) << "panel element " << i;
  }
}

TEST(PackedGemm, ThreadedIsBitIdenticalToSingleThread) {
  // Above the default PREDTOP_GEMM_PAR_MIN_ELEMS threshold so the threaded
  // path actually engages (when more than one hardware thread exists).
  const std::int64_t m = 600, k = 64, n = 128;
  util::Rng rng(13);
  const tensor::Tensor a = tensor::Tensor::Randn({m, k}, rng);
  const tensor::PackedB b = tensor::PackB(tensor::Tensor::Randn({k, n}, rng));
  const tensor::Tensor single = tensor::MatMulPacked(a, b, /*allow_threads=*/false);
  const tensor::Tensor threaded = tensor::MatMulPacked(a, b, /*allow_threads=*/true);
  for (std::int64_t i = 0; i < single.numel(); ++i) {
    ASSERT_EQ(single.data()[i], threaded.data()[i]) << "element " << i;
  }
}

TEST(PackedGemm, DispatchPredicatesMatchDocumentedShapeFloor) {
  EXPECT_FALSE(tensor::UsePackedGemm(6, 8, 8));     // n below one panel
  EXPECT_FALSE(tensor::UsePackedGemm(6, 4, 64));    // k too small
  EXPECT_FALSE(tensor::UsePackedGemm(2, 64, 64));   // m below one row block
  EXPECT_FALSE(tensor::UsePackedGemm(16, 16, 16));  // under the work floor
  EXPECT_TRUE(tensor::UsePackedGemm(64, 64, 64));
}

// ---- arena ----

TEST(Arena, AllocationsAreAlignedAndReset) {
  tensor::Arena arena;
  const tensor::MatRef a = arena.Alloc(3, 5);
  const tensor::MatRef b = arena.AllocZeroed(2, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data) % 64, 0u);
  for (std::int64_t i = 0; i < b.rows * b.cols; ++i) EXPECT_EQ(b.data[i], 0.0f);
  arena.Reset();
  const tensor::MatRef c = arena.Alloc(3, 5);
  EXPECT_EQ(c.data, a.data);  // bump pointer rewound
}

TEST(Arena, OverflowCoalescesOnReset) {
  tensor::Arena arena;
  const std::int64_t big = static_cast<std::int64_t>(arena.CapacityFloats()) + 1000;
  (void)arena.AllocFloats(big);  // spills into a second block
  (void)arena.AllocFloats(big);
  const std::int64_t epoch = arena.EpochFloats();
  EXPECT_GE(epoch, 2 * big);
  arena.Reset();
  EXPECT_EQ(arena.EpochFloats(), 0);
  EXPECT_GE(arena.CapacityFloats(), epoch);  // one block now fits the epoch
  (void)arena.AllocFloats(2 * big);          // no further growth needed
  EXPECT_EQ(arena.EpochFloats(), 2 * big);
}

// ---- predictor parity ----

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

void ExpectParity(StagePredictor& model, const graph::EncodedGraph& g) {
  const float tape = model.Forward(g).value().data()[0];
  const float fast = model.InferScalar(g, nn::ThreadLocalInferenceContext());
  ASSERT_TRUE(std::isfinite(fast)) << model.Name();
  EXPECT_LE(std::abs(fast - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
      << model.Name() << ": tape=" << tape << " fast=" << fast;
}

TEST(InferParity, FreshModelMatchesTape) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    ExpectParity(*model, g);
  }
}

TEST(InferParity, DagTransformerAblationsMatchTape) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      auto model = MakePredictor(PredictorKind::kDagTransformer, options);
      ExpectParity(*model, g);
    }
  }
}

TEST(InferParity, MatchesTapeAfterOptimizerStep) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    // Warm the packed-weight caches, then mutate the parameters: the epoch
    // bump inside Adam::Step must invalidate every cached pack.
    (void)model->InferScalar(g, nn::ThreadLocalInferenceContext());
    const float before = model->Forward(g).value().data()[0];
    nn::Adam adam(*model);
    model->ZeroGrad();
    autograd::Backward(model->Forward(g));
    adam.Step(0.05f);
    const float after = model->Forward(g).value().data()[0];
    ASSERT_NE(before, after) << model->Name() << ": step did not move the output";
    ExpectParity(*model, g);
  }
}

TEST(InferParity, MatchesTapeAfterStateDictLoad) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    PredictorOptions options = TinyOptions();
    auto source = MakePredictor(kind, options);
    options.seed = 0x999ULL;  // different init so the load visibly changes B
    auto target = MakePredictor(kind, options);
    // Populate target's caches with its own (soon stale) weights first.
    (void)target->InferScalar(g, nn::ThreadLocalInferenceContext());
    std::stringstream buffer;
    nn::WriteStateDict(buffer, *source);
    nn::ReadStateDict(buffer, *target);
    ExpectParity(*target, g);
    const float from_source = source->Forward(g).value().data()[0];
    const float from_target = target->InferScalar(g, nn::ThreadLocalInferenceContext());
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

// ---- fingerprint caching ----

TEST(InferParity, EncodeGraphCachesFingerprint) {
  graph::EncodedGraph g = TinyEncodedStage();
  EXPECT_NE(g.fingerprint, 0u);
  const std::uint64_t cached = graph::EncodedGraphFingerprint(g);
  EXPECT_EQ(cached, g.fingerprint);
  g.fingerprint = 0;  // force recompute: must agree with the cached value
  EXPECT_EQ(graph::EncodedGraphFingerprint(g), cached);
}

// ---- deferred softmax masked retry (regression) ----

TEST(InferKernels, RowSoftmaxDeferredMaskedRetryHasNoNaN) {
  nn::InferenceContext& ctx = nn::ThreadLocalInferenceContext();
  ctx.BeginForward();
  const float inf = std::numeric_limits<float>::infinity();
  tensor::Tensor logits = tensor::Tensor::Zeros({3, 4});
  tensor::Tensor mask = tensor::Tensor::Zeros({3, 4});
  // Row 0: an overflowed +inf logit sits under a -inf mask lane. The shift
  // max (taken over *unmasked* logits) is +inf, so every open lane's exp
  // underflows to zero and the row takes the retry path; a retry that adds
  // the mask to the logits turns this lane into inf + -inf = NaN.
  logits.data()[0] = inf;
  mask.data()[0] = -inf;
  // Row 1: fully masked.
  for (int j = 0; j < 4; ++j) mask.data()[4 + j] = -inf;
  // Row 2: ordinary open row.
  for (int j = 0; j < 4; ++j) logits.data()[8 + j] = static_cast<float>(j);
  const nn::infer::DeferredSoftmax soft =
      nn::infer::RowSoftmaxDeferred(ctx, nn::infer::View(logits), &mask);
  for (std::int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(std::isfinite(soft.weights.data[i])) << "weight " << i;
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(std::isfinite(soft.inv_sum.data[i])) << "row " << i;
  // Row 0 renormalizes over its three open lanes.
  EXPECT_EQ(soft.weights.data[0], 0.0f);  // the masked lane contributes nothing
  for (int j = 1; j < 4; ++j) {
    EXPECT_FLOAT_EQ(soft.weights.data[j] * soft.inv_sum.data[0], 1.0f / 3.0f);
  }
  // Row 1 is fully masked: all-zero weights with inv_sum exactly 0.
  EXPECT_EQ(soft.inv_sum.data[1], 0.0f);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(soft.weights.data[4 + j], 0.0f);
  // Row 2 behaves like an ordinary softmax row.
  float total = 0.0f;
  for (int j = 0; j < 4; ++j) total += soft.weights.data[8 + j] * soft.inv_sum.data[2];
  EXPECT_NEAR(total, 1.0f, 1e-6f);
}

// ---- concurrency (exercised under TSan via ci/run.sh tsan) ----

TEST(InferConcurrency, SharedModelConcurrentInferScalarIsStable) {
  // Distinct graphs stress the DAG Transformer's fingerprint-keyed
  // positional-encoding cache from many threads at once.
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(2, 3),
      TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  std::vector<float> expected;
  for (const auto& g : graphs) {
    expected.push_back(model->InferScalar(g, nn::ThreadLocalInferenceContext()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      nn::InferenceContext ctx;  // one arena per thread, as in serving
      for (int iter = 0; iter < 25; ++iter) {
        const std::size_t i = static_cast<std::size_t>(t + iter) % graphs.size();
        if (model->InferScalar(graphs[i], ctx) != expected[i]) {
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
