// Tests for the operator-DAG representation and its predictor-facing
// encodings: reachability (DAGRA), depth (DAGPE), pruning, features.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "core/dataset.h"
#include "graph/depth.h"
#include "graph/encode.h"
#include "graph/fingerprint.h"
#include "graph/op_dag.h"
#include "graph/prune.h"
#include "graph/reachability.h"
#include "ir/models.h"
#include "ir/to_dag.h"
#include "random_dag.h"
#include "util/rng.h"

namespace predtop::graph {
namespace {

using util::Rng;

OpDag ChainDag(std::int32_t n) {
  OpDag dag;
  for (std::int32_t i = 0; i < n; ++i) dag.AddNode({});
  for (std::int32_t i = 0; i + 1 < n; ++i) dag.AddEdge(i, i + 1);
  return dag;
}

TEST(OpDag, AddNodesAndEdges) {
  OpDag dag;
  const auto a = dag.AddNode({});
  const auto b = dag.AddNode({});
  dag.AddEdge(a, b);
  dag.AddEdge(a, b);  // duplicate ignored
  EXPECT_EQ(dag.NumNodes(), 2);
  EXPECT_EQ(dag.NumEdges(), 1);
  EXPECT_EQ(dag.Successors(a).size(), 1u);
  EXPECT_EQ(dag.Predecessors(b).size(), 1u);
}

TEST(OpDag, RejectsSelfLoopsAndBadIndices) {
  OpDag dag;
  const auto a = dag.AddNode({});
  EXPECT_THROW(dag.AddEdge(a, a), std::invalid_argument);
  EXPECT_THROW(dag.AddEdge(a, 5), std::out_of_range);
}

/// Diamond with distinct payloads: input -> {matmul, add} -> output.
OpDag PayloadDiamond(const std::vector<std::int32_t>& order = {0, 1, 2, 3}) {
  const DagNode nodes[] = {
      {NodeKind::kInput, 0, 1, {1, 1, 8, 16}},
      {NodeKind::kOperator, 3, 1, {1, 1, 8, 32}},
      {NodeKind::kOperator, 5, 1, {1, 1, 8, 16}},
      {NodeKind::kOutput, 0, 1, {1, 1, 8, 32}},
  };
  // order[k] = original node placed at index k.
  std::vector<std::int32_t> index(order.size());
  OpDag dag;
  for (const std::int32_t original : order) {
    index[static_cast<std::size_t>(original)] = dag.AddNode(nodes[original]);
  }
  for (const auto& [u, v] : {std::pair{0, 1}, std::pair{0, 2}, std::pair{1, 3}, std::pair{2, 3}}) {
    dag.AddEdge(index[static_cast<std::size_t>(u)], index[static_cast<std::size_t>(v)]);
  }
  return dag;
}

TEST(OpDag, EqualityIsExactStructureAndPayload) {
  const OpDag base = PayloadDiamond();
  EXPECT_EQ(base, PayloadDiamond());

  // The same graph with two nodes swapped in index order: the order-free
  // fingerprint collides, exact equality does not.
  const OpDag permuted = PayloadDiamond({0, 2, 1, 3});
  EXPECT_EQ(DagFingerprint(permuted), DagFingerprint(base));
  EXPECT_NE(permuted, base);

  OpDag extra_edge = PayloadDiamond();
  extra_edge.AddEdge(1, 2);
  EXPECT_NE(extra_edge, base);

  OpDag changed_dims = PayloadDiamond();
  changed_dims.Node(2).out_dims[3] = 17;
  EXPECT_NE(changed_dims, base);

  OpDag changed_kind = PayloadDiamond();
  changed_kind.Node(0).kind = NodeKind::kLiteral;
  EXPECT_NE(changed_kind, base);
}

TEST(OpDag, TopologicalOrderRespectsEdges) {
  Rng rng(1);
  const OpDag dag = RandomDag(30, 0.15, rng);
  const auto order = dag.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  std::vector<std::int32_t> position(30);
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = static_cast<std::int32_t>(i);
  for (const auto& [u, v] : dag.Edges()) EXPECT_LT(position[u], position[v]);
}

TEST(ReachabilityClosure, SelfAndDirectEdges) {
  const OpDag dag = ChainDag(4);
  const ReachabilityClosure closure(dag);
  for (std::int32_t i = 0; i < 4; ++i) EXPECT_TRUE(closure.Reaches(i, i));
  EXPECT_TRUE(closure.Reaches(0, 3));   // transitive
  EXPECT_FALSE(closure.Reaches(3, 0));  // directed
}

TEST(ReachabilityClosure, MatchesDfsOnRandomDags) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const OpDag dag = RandomDag(24, 0.12, rng);
    const ReachabilityClosure closure(dag);
    // Reference: DFS from each node.
    for (std::int32_t s = 0; s < 24; ++s) {
      std::set<std::int32_t> visited{s};
      std::vector<std::int32_t> stack{s};
      while (!stack.empty()) {
        const std::int32_t u = stack.back();
        stack.pop_back();
        for (const std::int32_t v : dag.Successors(u)) {
          if (visited.insert(v).second) stack.push_back(v);
        }
      }
      for (std::int32_t t = 0; t < 24; ++t) {
        EXPECT_EQ(closure.Reaches(s, t), visited.count(t) > 0) << s << "->" << t;
      }
    }
  }
}

TEST(ReachabilityClosure, TransitivityProperty) {
  Rng rng(3);
  const OpDag dag = RandomDag(20, 0.2, rng);
  const ReachabilityClosure closure(dag);
  for (std::int32_t a = 0; a < 20; ++a) {
    for (std::int32_t b = 0; b < 20; ++b) {
      if (!closure.Reaches(a, b)) continue;
      for (std::int32_t c = 0; c < 20; ++c) {
        if (closure.Reaches(b, c)) {
          EXPECT_TRUE(closure.Reaches(a, c));
        }
      }
    }
  }
}

TEST(DagraMask, SymmetricAndCoversEdges) {
  Rng rng(4);
  const OpDag dag = RandomDag(16, 0.2, rng);
  const tensor::Tensor mask = BuildDagraMask(dag);
  for (std::int32_t u = 0; u < 16; ++u) {
    EXPECT_EQ(mask.at(u, u), 0.0f);  // self-attention always allowed
    for (std::int32_t v = 0; v < 16; ++v) {
      EXPECT_EQ(mask.at(u, v), mask.at(v, u));  // mutual relevance
    }
  }
  for (const auto& [u, v] : dag.Edges()) EXPECT_EQ(mask.at(u, v), 0.0f);
}

TEST(DagraMask, BlocksParallelBranches) {
  // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Nodes 1 and 2 are not on a
  // common path, so they must not attend to each other.
  OpDag dag;
  for (int i = 0; i < 4; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 3);
  dag.AddEdge(2, 3);
  const tensor::Tensor mask = BuildDagraMask(dag);
  EXPECT_TRUE(std::isinf(mask.at(1, 2)));
  EXPECT_TRUE(std::isinf(mask.at(2, 1)));
  EXPECT_EQ(mask.at(0, 3), 0.0f);
}

TEST(ReachabilityClosure, ReverseIsTheTranspose) {
  Rng rng(2);
  for (const std::int32_t n : {24, 64, 130}) {
    const OpDag dag = RandomDag(n, 0.12, rng);
    const ReachabilityClosure forward(dag);
    const ReachabilityClosure reverse(dag, ReachabilityClosure::Direction::kReverse);
    for (std::int32_t u = 0; u < n; ++u) {
      for (std::int32_t v = 0; v < n; ++v) {
        ASSERT_EQ(reverse.Reaches(u, v), forward.Reaches(v, u)) << u << "<-" << v;
      }
    }
  }
}

TEST(DagraMask, WordwiseMaskIsBitEqualToPairwiseDefinition) {
  // The random DAGs of MatchesDfsOnRandomDags, plus sizes that end mid-word
  // and span several 64-bit words.
  Rng rng(2);
  std::vector<OpDag> dags;
  for (int trial = 0; trial < 5; ++trial) dags.push_back(RandomDag(24, 0.12, rng));
  for (const std::int32_t n : {1, 63, 64, 65, 130}) dags.push_back(RandomDag(n, 0.05, rng));
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (const OpDag& dag : dags) {
    const auto n = static_cast<std::int32_t>(dag.NumNodes());
    const ReachabilityClosure closure(dag);
    const tensor::Tensor mask = BuildDagraMask(dag);
    ASSERT_EQ(mask.dim(0), n);
    ASSERT_EQ(mask.dim(1), n);
    for (std::int32_t u = 0; u < n; ++u) {
      for (std::int32_t v = 0; v < n; ++v) {
        const float want = closure.Reaches(u, v) || closure.Reaches(v, u) ? 0.0f : kNegInf;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(mask.at(u, v)), std::bit_cast<std::uint32_t>(want))
            << "n=" << n << " " << u << "," << v;
      }
    }
  }
}

TEST(NodeDepths, LongestPathSemantics) {
  // 0 -> 1 -> 3 and 0 -> 3: depth(3) must be 2 (longest path).
  OpDag dag;
  for (int i = 0; i < 4; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 3);
  dag.AddEdge(0, 3);
  dag.AddEdge(0, 2);
  const auto depths = NodeDepths(dag);
  EXPECT_EQ(depths[0], 0);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[2], 1);
  EXPECT_EQ(depths[3], 2);
}

TEST(NodeDepths, MonotoneAlongEdges) {
  Rng rng(5);
  const OpDag dag = RandomDag(25, 0.15, rng);
  const auto depths = NodeDepths(dag);
  for (const auto& [u, v] : dag.Edges()) {
    EXPECT_LT(depths[u], depths[v]);
  }
}

TEST(SinusoidalEncoding, ShapeAndRange) {
  const tensor::Tensor pe = SinusoidalEncoding({0, 1, 5, 100}, 16);
  EXPECT_EQ(pe.dim(0), 4);
  EXPECT_EQ(pe.dim(1), 16);
  for (const float v : pe.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
  // Position 0: sin terms are 0, cos terms are 1.
  EXPECT_FLOAT_EQ(pe.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(pe.at(0, 1), 1.0f);
}

TEST(SinusoidalEncoding, RequiresEvenDim) {
  EXPECT_THROW(SinusoidalEncoding({0}, 7), std::invalid_argument);
}

// ---- pruning ----

DagNode OpNode(std::int32_t op_type) {
  DagNode node;
  node.kind = NodeKind::kOperator;
  node.op_type = op_type;
  return node;
}

TEST(Prune, CollapsesChainsOfRemovableNodes) {
  // in -> A -> r1 -> r2 -> B -> out, where r1/r2 are prunable: expect
  // A -> B directly in the result.
  OpDag dag;
  const auto in = dag.AddNode({NodeKind::kInput, 0, 0, {1, 1, 1, 1}});
  const auto a = dag.AddNode(OpNode(1));
  const auto r1 = dag.AddNode(OpNode(99));
  const auto r2 = dag.AddNode(OpNode(99));
  const auto b = dag.AddNode(OpNode(2));
  const auto out = dag.AddNode({NodeKind::kOutput, 0, 0, {1, 1, 1, 1}});
  dag.AddEdge(in, a);
  dag.AddEdge(a, r1);
  dag.AddEdge(r1, r2);
  dag.AddEdge(r2, b);
  dag.AddEdge(b, out);
  const PruneResult result =
      PruneDag(dag, [](const DagNode& n) { return n.op_type == 99; });
  EXPECT_EQ(result.removed, 2);
  EXPECT_EQ(result.dag.NumNodes(), 4);
  EXPECT_TRUE(result.dag.IsAcyclic());
  // A -> B edge exists through the collapsed chain.
  const std::int32_t new_a = result.remap[static_cast<std::size_t>(a)];
  const std::int32_t new_b = result.remap[static_cast<std::size_t>(b)];
  const auto& succ = result.dag.Successors(new_a);
  EXPECT_NE(std::find(succ.begin(), succ.end(), new_b), succ.end());
  EXPECT_EQ(result.remap[static_cast<std::size_t>(r1)], -1);
}

TEST(Prune, NeverRemovesInputsOrOutputs) {
  OpDag dag;
  const auto in = dag.AddNode({NodeKind::kInput, 99, 0, {1, 1, 1, 1}});
  const auto out = dag.AddNode({NodeKind::kOutput, 99, 0, {1, 1, 1, 1}});
  dag.AddEdge(in, out);
  const PruneResult result = PruneDag(dag, [](const DagNode&) { return true; });
  EXPECT_EQ(result.dag.NumNodes(), 2);
  EXPECT_EQ(result.removed, 0);
}

TEST(Prune, PreservesReachabilityAmongSurvivors) {
  Rng rng(6);
  for (int trial = 0; trial < 4; ++trial) {
    OpDag dag;
    for (int i = 0; i < 30; ++i) {
      dag.AddNode(OpNode(static_cast<std::int32_t>(rng.NextBelow(4))));
    }
    for (std::int32_t u = 0; u < 30; ++u) {
      for (std::int32_t v = u + 1; v < 30; ++v) {
        if (rng.NextDouble() < 0.1) dag.AddEdge(u, v);
      }
    }
    const ReachabilityClosure before(dag);
    const PruneResult result =
        PruneDag(dag, [](const DagNode& n) { return n.op_type == 0; });
    ASSERT_TRUE(result.dag.IsAcyclic());
    const ReachabilityClosure after(result.dag);
    for (std::int32_t u = 0; u < 30; ++u) {
      if (result.remap[static_cast<std::size_t>(u)] < 0) continue;
      for (std::int32_t v = 0; v < 30; ++v) {
        if (result.remap[static_cast<std::size_t>(v)] < 0) continue;
        EXPECT_EQ(after.Reaches(result.remap[static_cast<std::size_t>(u)],
                                result.remap[static_cast<std::size_t>(v)]),
                  before.Reaches(u, v))
            << u << "->" << v;
      }
    }
  }
}

// ---- features / encoding ----

TEST(Features, OneHotLayoutPerPaperTable1) {
  OpDag dag;
  DagNode node;
  node.kind = NodeKind::kLiteral;
  node.op_type = 2;
  node.dtype = 1;
  node.out_dims = {1, 1, 3, 7};
  dag.AddNode(node);
  const std::int32_t ops = 5, dtypes = 3;
  const tensor::Tensor f = EncodeNodeFeatures(dag, ops, dtypes);
  EXPECT_EQ(f.dim(1), NodeFeatureWidth(ops, dtypes));
  // op one-hot at index 2
  EXPECT_EQ(f.at(0, 2), 1.0f);
  EXPECT_EQ(f.at(0, 0), 0.0f);
  // log-scaled dims after the op block
  EXPECT_FLOAT_EQ(f.at(0, ops + 2), std::log2(4.0f));
  EXPECT_FLOAT_EQ(f.at(0, ops + 3), std::log2(8.0f));
  // dtype one-hot
  EXPECT_EQ(f.at(0, ops + 4 + 1), 1.0f);
  // node-kind one-hot (literal = 1)
  EXPECT_EQ(f.at(0, ops + 4 + dtypes + 1), 1.0f);
}

TEST(Features, RejectsOutOfVocabulary) {
  OpDag dag;
  DagNode node;
  node.op_type = 9;
  dag.AddNode(node);
  EXPECT_THROW(EncodeNodeFeatures(dag, 5, 3), std::out_of_range);
}

TEST(EncodeGraph, ProducesConsistentArtifacts) {
  Rng rng(7);
  const OpDag dag = RandomDag(12, 0.2, rng);
  const EncodedGraph g = EncodeGraph(dag, 4, 3);
  EXPECT_EQ(g.num_nodes, 12);
  EXPECT_EQ(g.features.dim(0), 12);
  EXPECT_EQ(g.dagra_mask.dim(0), 12);
  EXPECT_EQ(g.dagra_mask.dim(1), 12);
  EXPECT_EQ(g.depths.size(), 12u);
  // GCN adjacency: symmetric and rows indexable.
  ASSERT_NE(g.adj_norm, nullptr);
  EXPECT_EQ(g.adj_norm->rows, 12);
  // GAT edges: 2 per DAG edge + self-loops.
  EXPECT_EQ(g.edge_src.size(), static_cast<std::size_t>(2 * dag.NumEdges() + 12));
  EXPECT_EQ(g.edge_src.size(), g.edge_dst.size());
}

TEST(EncodeGraph, GcnAdjacencyIsSymmetricallyNormalized) {
  // Path 0 - 1: degrees with self-loops are 2 and 2; entry = 1/2.
  OpDag dag;
  dag.AddNode({});
  dag.AddNode({});
  dag.AddEdge(0, 1);
  const EncodedGraph g = EncodeGraph(dag, 1, 1);
  // Row 0: entries (0,0) = 1/2, (0,1) = 1/2.
  const auto& adj = *g.adj_norm;
  EXPECT_EQ(adj.Nnz(), 4u);
  for (const float v : adj.values) EXPECT_NEAR(v, 0.5f, 1e-6f);
}

TEST(EncodeGraph, CachesFingerprint) {
  Rng rng(8);
  EncodedGraph g = EncodeGraph(RandomDag(16, 0.2, rng, 5, 3), 5, 3);
  EXPECT_NE(g.fingerprint, 0u);
  const std::uint64_t cached = EncodedGraphFingerprint(g);
  EXPECT_EQ(cached, g.fingerprint);
  g.fingerprint = 0;  // force recompute: must agree with the cached value
  EXPECT_EQ(EncodedGraphFingerprint(g), cached);
}

TEST(Fingerprint, GoldenValuesOfFig10StageGraphs) {
  // The service and cluster caches key on these values (and cluster workers
  // route on them), so a faster fingerprint must reproduce them exactly.
  struct Golden {
    const char* model;
    ir::StageSlice slice;
    std::uint64_t dag;
    std::uint64_t encoded;
  };
  const Golden goldens[] = {
      {"gpt3", {0, 1}, 0xffb3138b6a588cb2ULL, 0xa5b80a3344983f6bULL},
      {"gpt3", {3, 7}, 0x1cfcd2ed49d3e162ULL, 0x23ff417452b89654ULL},
      {"gpt3", {15, 24}, 0xcd1fd6b894d49115ULL, 0x5770f59075687a4bULL},
      {"moe", {0, 2}, 0x51a33b455a8740fcULL, 0x91f5f7a05556ce3dULL},
      {"moe", {5, 9}, 0xbe1f345385707271ULL, 0xef1ad8c3afc5b768ULL},
      {"moe", {21, 32}, 0x77c9ed2e23c93bdbULL, 0xe1baed59430f7547ULL},
  };
  const core::BenchmarkModel gpt3 = core::Gpt3Benchmark();
  const core::BenchmarkModel moe = core::MoeBenchmark();
  for (const Golden& golden : goldens) {
    const core::BenchmarkModel& model = golden.model == std::string("gpt3") ? gpt3 : moe;
    const OpDag dag = ir::BuildPrunedOpDag(model.build_stage(golden.slice));
    EXPECT_EQ(DagFingerprint(dag), golden.dag)
        << golden.model << "[" << golden.slice.first_layer << "," << golden.slice.last_layer
        << ")";
    EncodedGraph g = core::EncodeStage(model.build_stage(golden.slice));
    EXPECT_EQ(g.fingerprint, golden.encoded)
        << golden.model << "[" << golden.slice.first_layer << "," << golden.slice.last_layer
        << ")";
    g.fingerprint = 0;  // the on-demand path computes the same value
    EXPECT_EQ(EncodedGraphFingerprint(g), golden.encoded);
  }
}

TEST(Fingerprint, DagFingerprintIgnoresNodeOrder) {
  Rng rng(23);
  for (const double density : {0.0, 0.05, 0.2, 0.6}) {
    for (const std::int32_t n : {1, 2, 7, 40, 150}) {
      const OpDag dag = RandomDag(n, density, rng, 23, 5);
      const std::uint64_t want = DagFingerprint(dag);
      for (int permutation = 0; permutation < 3; ++permutation) {
        const OpDag permuted = PermutedDag(dag, rng);
        ASSERT_EQ(permuted.NumEdges(), dag.NumEdges());
        EXPECT_EQ(DagFingerprint(permuted), want) << "n=" << n << " density=" << density;
      }
    }
  }
}

}  // namespace
}  // namespace predtop::graph
