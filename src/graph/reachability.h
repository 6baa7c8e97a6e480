#pragma once
// DAG reachability-based attention (DAGRA, paper §IV-A): a node attends to
// another iff a directed path connects them (in either direction) or they
// are the same node. The closure is computed with bitset rows in topological
// order, O(V·E/64).

#include <cstdint>
#include <vector>

#include "graph/op_dag.h"
#include "tensor/tensor.h"

namespace predtop::graph {

/// Row-major bitset: bit v of row u set iff u reaches v via >= 0 edges
/// (every node reaches itself). The kReverse closure is its transpose: bit v
/// of row u set iff v reaches u.
class ReachabilityClosure {
 public:
  enum class Direction { kForward, kReverse };

  explicit ReachabilityClosure(const OpDag& dag, Direction direction = Direction::kForward);

  [[nodiscard]] bool Reaches(std::int32_t u, std::int32_t v) const noexcept {
    const std::size_t bit = static_cast<std::size_t>(v);
    return (Row(u)[bit / 64] >> (bit % 64)) & 1ULL;
  }
  [[nodiscard]] std::int64_t NumNodes() const noexcept { return n_; }

  /// Row u as WordsPerRow() 64-bit words; bit v is word v / 64, bit v % 64.
  [[nodiscard]] const std::uint64_t* Row(std::int32_t u) const noexcept {
    return rows_.data() + static_cast<std::size_t>(u) * words_;
  }
  [[nodiscard]] std::size_t WordsPerRow() const noexcept { return words_; }

  /// Number of ordered reachable pairs, including self-pairs.
  [[nodiscard]] std::int64_t CountReachablePairs() const noexcept;

 private:
  std::int64_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> rows_;
};

/// Additive attention mask (n, n): 0 where u and v are mutually relevant
/// (path between them in either direction, or u == v), -inf otherwise
/// (paper Eqn. 1 with the neighborhood range k = infinity).
[[nodiscard]] tensor::Tensor BuildDagraMask(const OpDag& dag);

}  // namespace predtop::graph
