#pragma once
// Directed acyclic graph of tensor-level operations — the input artifact of
// the black-box stage-latency predictors (paper §IV-B2). Node payloads carry
// exactly the features of paper Tbl. I: operator type, output tensor
// dimensions, output data type, and node kind (input / literal / operator /
// output). Op-type and dtype are stored as small integer codes so the graph
// module stays independent of the IR that produces it.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace predtop::graph {

/// Paper Tbl. I "Node Type".
enum class NodeKind : std::uint8_t { kInput = 0, kLiteral = 1, kOperator = 2, kOutput = 3 };
inline constexpr int kNumNodeKinds = 4;

/// Output tensor dimensions padded/truncated to a fixed feature width.
inline constexpr std::size_t kMaxFeatureDims = 4;

struct DagNode {
  NodeKind kind = NodeKind::kOperator;
  std::int32_t op_type = 0;  // vocabulary index (see ir::OpType)
  std::int32_t dtype = 0;    // vocabulary index (see ir::DType)
  std::array<std::int64_t, kMaxFeatureDims> out_dims{1, 1, 1, 1};

  friend bool operator==(const DagNode&, const DagNode&) = default;
};

class OpDag {
 public:
  /// Returns the new node's index.
  std::int32_t AddNode(DagNode node);

  /// Add edge u -> v. Requires valid, distinct indices; duplicate edges are
  /// ignored. No cycle check here — validate with IsAcyclic().
  void AddEdge(std::int32_t u, std::int32_t v);

  [[nodiscard]] std::int64_t NumNodes() const noexcept {
    return static_cast<std::int64_t>(nodes_.size());
  }
  [[nodiscard]] std::int64_t NumEdges() const noexcept { return num_edges_; }

  [[nodiscard]] const DagNode& Node(std::int32_t i) const { return nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] DagNode& Node(std::int32_t i) { return nodes_[static_cast<std::size_t>(i)]; }

  [[nodiscard]] const std::vector<std::int32_t>& Successors(std::int32_t i) const {
    return succ_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::vector<std::int32_t>& Predecessors(std::int32_t i) const {
    return pred_[static_cast<std::size_t>(i)];
  }

  /// Topological order (Kahn); empty optional if the graph has a cycle.
  [[nodiscard]] std::optional<std::vector<std::int32_t>> TopologicalOrder() const;
  [[nodiscard]] bool IsAcyclic() const { return TopologicalOrder().has_value(); }

  /// All (u, v) edges, u -> v.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::int32_t>> Edges() const;

  /// Exact structural equality: the same nodes in the same index order with
  /// the same successor (and predecessor) lists. Every encoding is a function
  /// of exactly this, so equal DAGs encode bit-identically.
  friend bool operator==(const OpDag&, const OpDag&) = default;

 private:
  std::vector<DagNode> nodes_;
  std::vector<std::vector<std::int32_t>> succ_;
  std::vector<std::vector<std::int32_t>> pred_;
  std::int64_t num_edges_ = 0;
};

}  // namespace predtop::graph
