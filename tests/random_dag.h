#pragma once
// Seeded random operator DAGs shared by the graph and inference tests.

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/op_dag.h"
#include "util/rng.h"

namespace predtop::graph {

/// Node payload drawn from the given vocabularies: random kind, op type,
/// dtype and output dims (1..4096 per dim).
inline DagNode RandomNode(std::int32_t num_op_types, std::int32_t num_dtypes,
                          util::Rng& rng) {
  DagNode node;
  node.kind = static_cast<NodeKind>(rng.NextBelow(static_cast<std::uint64_t>(kNumNodeKinds)));
  node.op_type = static_cast<std::int32_t>(rng.NextBelow(static_cast<std::uint64_t>(num_op_types)));
  node.dtype = static_cast<std::int32_t>(rng.NextBelow(static_cast<std::uint64_t>(num_dtypes)));
  for (std::int64_t& d : node.out_dims) d = 1 + static_cast<std::int64_t>(rng.NextBelow(4096));
  return node;
}

/// Random DAG: edges only from lower to higher indices (guaranteed acyclic),
/// each present with probability `edge_prob`. Nodes carry the default
/// payload unless vocabularies are given, in which case RandomNode draws
/// each node's payload before any edge is drawn.
inline OpDag RandomDag(std::int32_t n, double edge_prob, util::Rng& rng,
                       std::int32_t num_op_types = 0, std::int32_t num_dtypes = 0) {
  OpDag dag;
  for (std::int32_t i = 0; i < n; ++i) {
    dag.AddNode(num_op_types > 0 ? RandomNode(num_op_types, num_dtypes, rng) : DagNode{});
  }
  for (std::int32_t u = 0; u < n; ++u) {
    for (std::int32_t v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < edge_prob) dag.AddEdge(u, v);
    }
  }
  return dag;
}

/// The same graph with its nodes placed in a seeded random index order:
/// node i of `dag` becomes node order[i] of the result, and every edge keeps
/// its endpoints.
inline OpDag PermutedDag(const OpDag& dag, util::Rng& rng) {
  const auto n = static_cast<std::int32_t>(dag.NumNodes());
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(std::span<std::int32_t>(order));
  std::vector<std::int32_t> original(order.size());
  for (std::int32_t i = 0; i < n; ++i) original[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  OpDag permuted;
  for (const std::int32_t i : original) permuted.AddNode(dag.Node(i));
  for (const auto& [u, v] : dag.Edges()) {
    permuted.AddEdge(order[static_cast<std::size_t>(u)], order[static_cast<std::size_t>(v)]);
  }
  return permuted;
}

}  // namespace predtop::graph
