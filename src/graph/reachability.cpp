#include "graph/reachability.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace predtop::graph {

ReachabilityClosure::ReachabilityClosure(const OpDag& dag, Direction direction) {
  n_ = dag.NumNodes();
  words_ = static_cast<std::size_t>((n_ + 63) / 64);
  rows_.assign(static_cast<std::size_t>(n_) * words_, 0ULL);
  auto order = dag.TopologicalOrder();
  if (!order) throw std::invalid_argument("ReachabilityClosure: graph has a cycle");
  // Forward: reverse topological order, each row = self-bit | OR of the
  // successors' rows. Reverse: topological order over predecessors.
  const bool forward = direction == Direction::kForward;
  if (forward) std::reverse(order->begin(), order->end());
  for (const std::int32_t u : *order) {
    std::uint64_t* row = rows_.data() + static_cast<std::size_t>(u) * words_;
    row[static_cast<std::size_t>(u) / 64] |= 1ULL << (static_cast<std::size_t>(u) % 64);
    for (const std::int32_t v : forward ? dag.Successors(u) : dag.Predecessors(u)) {
      const std::uint64_t* vrow = Row(v);
      for (std::size_t w = 0; w < words_; ++w) row[w] |= vrow[w];
    }
  }
}

std::int64_t ReachabilityClosure::CountReachablePairs() const noexcept {
  std::int64_t count = 0;
  for (const std::uint64_t w : rows_) count += std::popcount(w);
  return count;
}

tensor::Tensor BuildDagraMask(const OpDag& dag) {
  const ReachabilityClosure forward(dag, ReachabilityClosure::Direction::kForward);
  const ReachabilityClosure reverse(dag, ReachabilityClosure::Direction::kReverse);
  const std::int64_t n = dag.NumNodes();
  const std::size_t words = forward.WordsPerRow();
  tensor::Tensor mask({n, n});
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  float* out = mask.data().data();
  for (std::int32_t u = 0; u < n; ++u) {
    // Row u allows v iff u reaches v or v reaches u: one OR per 64 columns.
    const std::uint64_t* fwd = forward.Row(u);
    const std::uint64_t* rev = reverse.Row(u);
    float* mask_row = out + static_cast<std::int64_t>(u) * n;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t allowed = fwd[w] | rev[w];
      const std::int64_t base = static_cast<std::int64_t>(w) * 64;
      const std::int64_t count = std::min<std::int64_t>(64, n - base);
      for (std::int64_t b = 0; b < count; ++b) {
        mask_row[base + b] = (allowed >> b) & 1ULL ? 0.0f : kNegInf;
      }
    }
  }
  return mask;
}

}  // namespace predtop::graph
