// Gradient checks for every autograd primitive: analytic VJPs are compared
// against central finite differences through a generic harness.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "autograd/variable.h"
#include "graph/reachability.h"
#include "random_dag.h"
#include "tensor/sparse.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace predtop::autograd {
namespace {

using tensor::Csr;
using tensor::Tensor;
using util::Rng;

/// Reduce an arbitrary 2-D output to a scalar with fixed random weights so
/// the checker exercises non-uniform upstream gradients:
///   s = sum(out o W) computed via Mul + GlobalAddPool + Transpose.
Variable ToScalar(const Variable& out, const Tensor& weights) {
  const Variable weighted = Mul(out, Variable(weights));
  const Variable pooled = GlobalAddPool(weighted);            // (1, c)
  return GlobalAddPool(Transpose(pooled));                    // (1, 1)
}

/// Central-difference gradient check: `build` constructs a scalar loss from
/// freshly-wrapped leaf Variables; analytic gradients from one Backward()
/// pass are compared against (L(x+eps) - L(x-eps)) / 2eps per element.
void CheckGradientsV(const std::function<Variable(std::vector<Variable>&)>& build,
                     std::vector<Tensor> leaf_values, float eps = 1e-3f,
                     float tolerance = 2e-2f) {
  // Analytic gradients.
  std::vector<Variable> leaves;
  leaves.reserve(leaf_values.size());
  for (const Tensor& t : leaf_values) leaves.emplace_back(t, /*requires_grad=*/true);
  Variable loss = build(leaves);
  ASSERT_EQ(loss.value().numel(), 1);
  Backward(loss);

  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const Tensor analytic = leaves[l].grad();
    for (std::int64_t i = 0; i < leaf_values[l].numel(); ++i) {
      const float saved = leaf_values[l][i];
      const auto eval = [&](float v) {
        leaf_values[l][i] = v;
        std::vector<Variable> fresh;
        fresh.reserve(leaf_values.size());
        for (const Tensor& t : leaf_values) fresh.emplace_back(t, true);
        return static_cast<double>(build(fresh).value().data()[0]);
      };
      const double numeric = (eval(saved + eps) - eval(saved - eps)) / (2.0 * eps);
      leaf_values[l][i] = saved;
      const double a = static_cast<double>(analytic[i]);
      EXPECT_NEAR(a, numeric, tolerance * std::max(1.0, std::fabs(numeric)))
          << "leaf " << l << " element " << i;
    }
  }
}

Tensor RandT(tensor::Shape shape, std::uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), rng, stddev);
}

TEST(Autograd, MatMulGradients) {
  const Tensor w = RandT({3, 4}, 100);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(MatMul(v[0], v[1]), w); },
      {RandT({3, 2}, 1), RandT({2, 4}, 2)});
}

TEST(Autograd, AddSubMulScaleGradients) {
  const Tensor w = RandT({2, 3}, 101);
  CheckGradientsV(
      [&](std::vector<Variable>& v) {
        return ToScalar(Scale(Add(Sub(v[0], v[1]), Mul(v[0], v[1])), 0.7f), w);
      },
      {RandT({2, 3}, 3), RandT({2, 3}, 4)});
}

TEST(Autograd, AddRowVectorGradients) {
  const Tensor w = RandT({3, 4}, 102);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(AddRowVector(v[0], v[1]), w); },
      {RandT({3, 4}, 5), RandT({4}, 6)});
}

TEST(Autograd, ActivationGradients) {
  const Tensor w = RandT({2, 5}, 103);
  // Shift inputs away from the ReLU kink for a stable finite difference.
  Tensor x = RandT({2, 5}, 7);
  for (float& v : x.data()) v += (v >= 0.0f ? 0.3f : -0.3f);
  CheckGradientsV([&](std::vector<Variable>& v) { return ToScalar(Relu(v[0]), w); }, {x});
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(LeakyRelu(v[0], 0.2f), w); }, {x});
  CheckGradientsV([&](std::vector<Variable>& v) { return ToScalar(Gelu(v[0]), w); }, {x});
  CheckGradientsV([&](std::vector<Variable>& v) { return ToScalar(Tanh(v[0]), w); }, {x});
}

TEST(Autograd, SoftmaxGradients) {
  const Tensor w = RandT({3, 4}, 104);
  CheckGradientsV([&](std::vector<Variable>& v) { return ToScalar(RowSoftmax(v[0]), w); },
                  {RandT({3, 4}, 8)});
}

TEST(Autograd, MaskedSoftmaxGradients) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor mask({3, 3});
  mask.at(0, 2) = -inf;
  mask.at(2, 0) = -inf;
  const Tensor w = RandT({3, 3}, 105);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(MaskedRowSoftmax(v[0], mask), w); },
      {RandT({3, 3}, 9)});
}

// ---- fused masked attention ----

/// The per-head chain the fused node replaced, kept as its reference:
/// SliceCols, MatMul against the transposed keys, Scale, MaskedRowSoftmax,
/// MatMul with the values, ConcatCols.
Variable ComposedAttention(const Variable& q, const Variable& k, const Variable& v,
                           const Tensor& mask, std::int64_t heads) {
  const std::int64_t hd = q.value().dim(1) / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<Variable> outs;
  for (std::int64_t h = 0; h < heads; ++h) {
    const Variable qh = SliceCols(q, h * hd, hd);
    const Variable kh = SliceCols(k, h * hd, hd);
    const Variable vh = SliceCols(v, h * hd, hd);
    const Variable logits = Scale(MatMul(qh, Transpose(kh)), scale);
    outs.push_back(MatMul(MaskedRowSoftmax(logits, mask), vh));
  }
  return ConcatCols(outs);
}

/// (4, 4) mask: row 0 has no open lane, row 1 exactly one (itself), rows
/// 2 and 3 a mix.
Tensor EdgeCaseMask() {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor mask({4, 4}, -inf);
  mask.at(1, 1) = 0.0f;
  for (const std::int64_t j : {0, 2, 3}) mask.at(2, j) = 0.0f;
  for (const std::int64_t j : {1, 3}) mask.at(3, j) = 0.0f;
  return mask;
}

TEST(Autograd, MaskedAttentionGradients) {
  for (const std::int64_t heads : {1, 2}) {
    for (const std::int64_t hd : {1, 3, 8}) {
      const std::int64_t d = heads * hd;
      for (const Tensor& mask : {EdgeCaseMask(), Tensor({1, 1})}) {
        SCOPED_TRACE(::testing::Message() << "heads=" << heads << " head_dim=" << hd
                                          << " n=" << mask.dim(0));
        const std::int64_t n = mask.dim(0);
        const Tensor w = RandT({n, d}, 200 + static_cast<std::uint64_t>(d));
        CheckGradientsV(
            [&](std::vector<Variable>& v) {
              return ToScalar(MaskedAttention(v[0], v[1], v[2], mask, heads), w);
            },
            {RandT({n, d}, 201), RandT({n, d}, 202), RandT({n, d}, 203)});
      }
    }
  }
}

/// DAGRA masks of the shared generated DAGs: a single node, disconnected
/// components, a chain, a wide fan, three random densities and a 144-node
/// graph.
std::vector<Tensor> GeneratedDagraMasks() {
  util::Rng rng(0xa77e);
  std::vector<Tensor> out;
  out.push_back(graph::BuildDagraMask(graph::RandomDag(1, 0.0, rng)));
  {
    graph::OpDag dag;
    for (const graph::OpDag& part : {graph::RandomDag(7, 0.4, rng), graph::RandomDag(5, 0.6, rng),
                                     graph::RandomDag(1, 0.0, rng)}) {
      const std::int32_t offset = dag.NumNodes();
      for (std::int32_t i = 0; i < part.NumNodes(); ++i) dag.AddNode(part.Node(i));
      for (const auto& [u, v] : part.Edges()) dag.AddEdge(offset + u, offset + v);
    }
    out.push_back(graph::BuildDagraMask(dag));
  }
  {
    graph::OpDag chain;
    for (std::int32_t i = 0; i < 48; ++i) chain.AddNode({});
    for (std::int32_t i = 0; i + 1 < 48; ++i) chain.AddEdge(i, i + 1);
    out.push_back(graph::BuildDagraMask(chain));
  }
  {
    graph::OpDag fan;
    for (std::int32_t i = 0; i < 32; ++i) fan.AddNode({});
    for (std::int32_t i = 1; i <= 30; ++i) {
      fan.AddEdge(0, i);
      fan.AddEdge(i, 31);
    }
    out.push_back(graph::BuildDagraMask(fan));
  }
  out.push_back(graph::BuildDagraMask(graph::RandomDag(12, 0.5, rng)));
  out.push_back(graph::BuildDagraMask(graph::RandomDag(24, 0.15, rng)));
  out.push_back(graph::BuildDagraMask(graph::RandomDag(40, 0.05, rng)));
  out.push_back(graph::BuildDagraMask(graph::RandomDag(144, 0.04, rng)));
  return out;
}

/// max |got - want| <= 1e-5 * max(1, max |want|).
void ExpectCloseRelative(const Tensor& got, const Tensor& want, const char* label) {
  ASSERT_TRUE(got.SameShape(want)) << label;
  float scale = 1.0f;
  for (const float x : want.data()) scale = std::max(scale, std::fabs(x));
  EXPECT_LE(tensor::MaxAbsDiff(got, want), 1e-5f * scale) << label;
}

TEST(MaskedAttention, MatchesComposedChain) {
  std::vector<Tensor> masks = GeneratedDagraMasks();
  masks.emplace_back(tensor::Shape{0, 0});  // n = 0
  constexpr std::int64_t kHeads = 2;
  for (const std::int64_t hd : {8, 16}) {
    for (const Tensor& mask : masks) {
      const std::int64_t n = mask.dim(0), d = kHeads * hd;
      SCOPED_TRACE(::testing::Message() << "n=" << n << " head_dim=" << hd);
      const Tensor w = RandT({n, d}, 300);
      const std::vector<Tensor> inputs{RandT({n, d}, 301), RandT({n, d}, 302),
                                       RandT({n, d}, 303)};
      const auto run = [&](bool fused) {
        std::vector<Variable> leaves;
        for (const Tensor& t : inputs) leaves.emplace_back(t, true);
        const Variable out = fused ? MaskedAttention(leaves[0], leaves[1], leaves[2], mask, kHeads)
                                   : ComposedAttention(leaves[0], leaves[1], leaves[2], mask,
                                                       kHeads);
        Backward(ToScalar(out, w));
        std::vector<Tensor> result{out.value()};
        for (const Variable& leaf : leaves) result.push_back(leaf.grad());
        return result;
      };
      const std::vector<Tensor> fused = run(true);
      const std::vector<Tensor> chain = run(false);
      const char* labels[] = {"out", "dq", "dk", "dv"};
      for (std::size_t i = 0; i < fused.size(); ++i) {
        if (n == 0) {
          EXPECT_EQ(fused[i].numel(), 0) << labels[i];
          continue;
        }
        ExpectCloseRelative(fused[i], chain[i], labels[i]);
      }
    }
  }
}

TEST(MaskedAttention, BackwardOutlivesTheMaskTensor) {
  const Tensor q = RandT({40, 16}, 400), k = RandT({40, 16}, 401), v = RandT({40, 16}, 402);
  const Tensor w = RandT({40, 16}, 403);
  const auto run = [&](bool destroy_mask) {
    std::vector<Variable> leaves{Variable(q, true), Variable(k, true), Variable(v, true)};
    util::Rng rng(404);
    auto mask = std::make_unique<Tensor>(graph::BuildDagraMask(graph::RandomDag(40, 0.1, rng)));
    const Variable loss = ToScalar(MaskedAttention(leaves[0], leaves[1], leaves[2], *mask, 2), w);
    if (destroy_mask) mask.reset();
    Backward(loss);
    return std::vector<Tensor>{leaves[0].grad(), leaves[1].grad(), leaves[2].grad()};
  };
  const std::vector<Tensor> kept = run(false);
  const std::vector<Tensor> destroyed = run(true);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    ASSERT_TRUE(kept[i].SameShape(destroyed[i]));
    EXPECT_EQ(std::memcmp(kept[i].data().data(), destroyed[i].data().data(),
                          static_cast<std::size_t>(kept[i].numel()) * sizeof(float)),
              0);
  }
}

TEST(MaskedAttention, MaskEntriesOtherThanZeroOrNegInfThrow) {
  const Variable x(RandT({3, 4}, 500));
  for (const float bad : {1.0f, -1e30f, std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    Tensor mask({3, 3});
    mask.at(1, 2) = bad;
    EXPECT_THROW((void)MaskedAttention(x, x, x, mask, 2), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)MaskedAttention(x, x, x, Tensor({3, 4}), 2), std::invalid_argument);
  EXPECT_THROW((void)MaskedAttention(x, x, x, Tensor({4, 4}), 2), std::invalid_argument);
  EXPECT_THROW((void)MaskedAttention(x, x, x, Tensor({3, 3}), 3), std::invalid_argument);
}

TEST(Autograd, LayerNormGradients) {
  const Tensor w = RandT({3, 6}, 106);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(LayerNorm(v[0], v[1], v[2]), w); },
      {RandT({3, 6}, 10), RandT({6}, 11, 0.5f), RandT({6}, 12, 0.5f)}, 1e-3f, 4e-2f);
}

TEST(Autograd, TransposeSliceConcatGradients) {
  const Tensor w = RandT({2, 6}, 107);
  CheckGradientsV(
      [&](std::vector<Variable>& v) {
        const Variable a = SliceCols(v[0], 0, 2);
        const Variable b = SliceCols(v[0], 2, 4);
        const std::vector<Variable> parts{b, a};
        return ToScalar(ConcatCols(parts), w);
      },
      {RandT({2, 6}, 13)});
}

TEST(Autograd, RowScaleGradients) {
  const Tensor w = RandT({4, 3}, 108);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(RowScale(v[0], v[1]), w); },
      {RandT({4, 3}, 14), RandT({4, 1}, 15)});
}

TEST(Autograd, SpMMGradients) {
  auto adj = std::make_shared<Csr>(
      Csr::FromCoo(3, 3, {0, 1, 2, 0}, {1, 2, 0, 0}, {0.5f, 1.5f, -1.0f, 2.0f}));
  auto adj_t = std::make_shared<Csr>(adj->Transposed());
  const Tensor w = RandT({3, 4}, 109);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(SpMM(adj, adj_t, v[0]), w); },
      {RandT({3, 4}, 16)});
}

TEST(Autograd, IndexSelectRowsGradients) {
  const std::vector<std::int32_t> idx{2, 0, 2, 1};
  const Tensor w = RandT({4, 3}, 110);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(IndexSelectRows(v[0], idx), w); },
      {RandT({3, 3}, 17)});
}

TEST(Autograd, SegmentSumGradients) {
  const std::vector<std::int32_t> seg{0, 1, 0, 2, 1};
  const Tensor w = RandT({3, 2}, 111);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(SegmentSum(v[0], seg, 3), w); },
      {RandT({5, 2}, 18)});
}

TEST(Autograd, SegmentSoftmaxGradients) {
  const std::vector<std::int32_t> seg{0, 0, 1, 1, 1};
  const Tensor w = RandT({5, 2}, 112);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(SegmentSoftmax(v[0], seg, 2), w); },
      {RandT({5, 2}, 19)});
}

TEST(Autograd, GlobalAddPoolGradients) {
  const Tensor w = RandT({1, 4}, 113);
  CheckGradientsV(
      [&](std::vector<Variable>& v) { return ToScalar(GlobalAddPool(v[0]), w); },
      {RandT({5, 4}, 20)});
}

TEST(Autograd, LossGradients) {
  Tensor pred({1, 1});
  pred[0] = 1.7f;  // away from the |.| kink at target
  CheckGradientsV([&](std::vector<Variable>& v) { return AbsError(v[0], 0.4f); }, {pred});
  CheckGradientsV([&](std::vector<Variable>& v) { return SquaredError(v[0], 0.4f); }, {pred});
}

TEST(Autograd, SharedSubexpressionAccumulates) {
  // loss = sum(x + x): dx should be 2 everywhere.
  const Variable x(Tensor({2, 2}, 1.0f), true);
  const Variable loss = GlobalAddPool(Transpose(GlobalAddPool(Add(x, x))));
  Backward(loss);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 2.0f);
}

TEST(Autograd, RequiresGradGatesPropagation) {
  const Variable x(Tensor({2, 2}, 1.0f), false);
  const Variable y(Tensor({2, 2}, 2.0f), true);
  const Variable loss = GlobalAddPool(Transpose(GlobalAddPool(Mul(x, y))));
  Backward(loss);
  // x never requested gradients: stays zero (lazily materialized).
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 0.0f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.grad()[i], 1.0f);
}

TEST(Autograd, ZeroGradResets) {
  const Variable x(Tensor({1, 1}, 3.0f), true);
  Variable loss = SquaredError(x, 0.0f);
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
  const_cast<Variable&>(x).ZeroGrad();
  loss = SquaredError(x, 0.0f);
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);  // not 12: accumulation was reset
}

TEST(Autograd, BackwardOnUndefinedThrows) {
  const Variable undefined;
  EXPECT_THROW(Backward(undefined), std::invalid_argument);
}

// ---- parallel engine ----

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* label) {
  ASSERT_EQ(a.numel(), b.numel()) << label;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << label;
}

/// A graph with branching, a join, duplicate parents (Mul(t, t)) and a long
/// spine — enough structure for the ready-queue to actually reorder work.
Variable BuildDeepGraph(std::vector<Variable>& v) {
  const Variable h = Gelu(AddRowVector(MatMul(v[0], v[1]), v[2]));
  const Variable t = Tanh(MatMul(h, v[3]));
  const Variable s = Add(t, Scale(Mul(t, t), 0.5f));
  return GlobalAddPool(Transpose(GlobalAddPool(s)));
}

std::vector<Tensor> DeepGraphLeaves() {
  return {RandT({6, 4}, 31), RandT({4, 8}, 32), RandT({8}, 33), RandT({8, 4}, 34)};
}

TEST(Engine, BitIdenticalToSerialBackward) {
  const std::vector<Tensor> values = DeepGraphLeaves();
  const auto run = [&](const std::function<void(const Variable&)>& backward) {
    std::vector<Variable> leaves;
    for (const Tensor& t : values) leaves.emplace_back(t, /*requires_grad=*/true);
    backward(BuildDeepGraph(leaves));
    std::vector<Tensor> grads;
    for (const Variable& l : leaves) grads.push_back(l.grad());
    return grads;
  };
  const std::vector<Tensor> serial = run([](const Variable& l) { Backward(l); });
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const std::vector<Tensor> parallel =
        run([&](const Variable& l) { BackwardParallel(l, {p}); });
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ExpectBitIdentical(parallel[i], serial[i], p == nullptr ? "no pool" : "pool(4)");
    }
  }
}

TEST(Engine, DuplicateParentsAccumulateLikeSerial) {
  // loss = sum(x * x): dx = 2x — both closure contributions to the same
  // parent must land, in the serial order.
  const Tensor value = RandT({3, 3}, 35);
  const Variable sx(value, true);
  Backward(GlobalAddPool(Transpose(GlobalAddPool(Mul(sx, sx)))));
  util::ThreadPool pool(3);
  const Variable px(value, true);
  BackwardParallel(GlobalAddPool(Transpose(GlobalAddPool(Mul(px, px)))), {&pool});
  ExpectBitIdentical(px.grad(), sx.grad(), "Mul(x, x)");
}

TEST(Engine, BackwardIntoRedirectsListedLeaves) {
  const std::vector<Tensor> values = DeepGraphLeaves();
  std::vector<Variable> ref;
  for (const Tensor& t : values) ref.emplace_back(t, true);
  Backward(BuildDeepGraph(ref));

  std::vector<Variable> leaves;
  for (const Tensor& t : values) leaves.emplace_back(t, true);
  const Variable loss = BuildDeepGraph(leaves);
  std::vector<Variable*> listed;
  for (Variable& l : leaves) listed.push_back(&l);
  std::vector<Tensor> buffers(listed.size());  // empty: assigned on first use
  util::ThreadPool pool(2);
  BackwardInto(loss, listed, buffers, {&pool});

  for (std::size_t i = 0; i < listed.size(); ++i) {
    ExpectBitIdentical(buffers[i], ref[i].grad(), "external buffer");
    // The listed leaves' own gradients were never written.
    for (std::int64_t j = 0; j < leaves[i].grad().numel(); ++j) {
      ASSERT_EQ(leaves[i].grad()[j], 0.0f);
    }
  }
}

TEST(Engine, BackwardIntoAccumulatesAcrossCalls) {
  const std::vector<Tensor> values = DeepGraphLeaves();
  std::vector<Variable> ref;
  for (const Tensor& t : values) ref.emplace_back(t, true);
  Backward(BuildDeepGraph(ref));
  Backward(BuildDeepGraph(ref));  // serial double-accumulate

  std::vector<Variable> leaves;
  for (const Tensor& t : values) leaves.emplace_back(t, true);
  std::vector<Variable*> listed;
  for (Variable& l : leaves) listed.push_back(&l);
  std::vector<Tensor> buffers(listed.size());
  BackwardInto(BuildDeepGraph(leaves), listed, buffers);
  BackwardInto(BuildDeepGraph(leaves), listed, buffers);  // adds in place

  for (std::size_t i = 0; i < listed.size(); ++i) {
    ExpectBitIdentical(buffers[i], ref[i].grad(), "accumulated buffer");
  }
}

TEST(Engine, ConcurrentBackwardsOnSharedParametersAreRaceFree) {
  // Data-parallel shape: many tapes share the same parameter leaves; each
  // thread differentiates its own tape into a private buffer. The fixed-order
  // reduction of those buffers must equal sequential serial accumulation.
  constexpr std::size_t kTapes = 8;
  const Tensor w1v = RandT({4, 8}, 40);
  const Tensor w2v = RandT({8, 4}, 41);
  std::vector<Tensor> inputs;
  for (std::size_t t = 0; t < kTapes; ++t) inputs.push_back(RandT({5, 4}, 100 + t));
  const auto build = [](const Tensor& x, Variable& w1, Variable& w2) {
    const Variable h = Tanh(MatMul(Variable(x), w1));
    return GlobalAddPool(Transpose(GlobalAddPool(MatMul(h, w2))));
  };

  Variable rw1(w1v, true), rw2(w2v, true);
  for (std::size_t t = 0; t < kTapes; ++t) Backward(build(inputs[t], rw1, rw2));

  Variable w1(w1v, true), w2(w2v, true);
  std::vector<std::array<Tensor, 2>> buffers(kTapes);
  std::vector<std::thread> threads;
  threads.reserve(kTapes);
  for (std::size_t t = 0; t < kTapes; ++t) {
    threads.emplace_back([&, t] {
      const Variable loss = build(inputs[t], w1, w2);
      const std::array<Variable*, 2> listed{&w1, &w2};
      BackwardInto(loss, listed, buffers[t]);
    });
  }
  for (std::thread& th : threads) th.join();

  Tensor g1 = buffers[0][0], g2 = buffers[0][1];
  for (std::size_t t = 1; t < kTapes; ++t) {
    g1.AddInPlace(buffers[t][0]);
    g2.AddInPlace(buffers[t][1]);
  }
  ExpectBitIdentical(g1, rw1.grad(), "w1 reduced");
  ExpectBitIdentical(g2, rw2.grad(), "w2 reduced");
  // Shared leaves stayed untouched throughout.
  for (std::int64_t j = 0; j < w1.grad().numel(); ++j) ASSERT_EQ(w1.grad()[j], 0.0f);
}

TEST(Engine, UndefinedRootThrows) {
  const Variable undefined;
  EXPECT_THROW(BackwardParallel(undefined), std::invalid_argument);
}

}  // namespace
}  // namespace predtop::autograd
