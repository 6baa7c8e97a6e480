#pragma once
// One store of encoded predictor inputs, shared by graph structure. Interior
// slices of the same span build the same layer stack, so most stage slices
// prune to a DAG that another slice already produced (GPT-3 with spans <= 9:
// 180 slices, 27 distinct DAGs; MoE with spans <= 11: 297 slices, 44). Each
// slice's pruned DAG is built once, bucketed by a cheap index-order hash and
// confirmed by exact OpDag equality. A hit returns the encoding already made;
// a miss runs graph::EncodeGraph once. Equality is exact, not a fingerprint
// match, so every shared encoding is bit-identical to a fresh EncodeStage.
//
// Each PlanSearch, GreyBoxEstimator and cluster::Worker owns one store; none
// is shared across them. Not thread-safe: a caller that shares one store
// across threads serializes access (cluster::Worker holds a mutex).

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "graph/encode.h"
#include "ir/models.h"
#include "ir/to_dag.h"

namespace predtop::core {

class StageEncodings {
 public:
  StageEncodings() = default;
  // A copy's slice index would point into the source's entries.
  StageEncodings(const StageEncodings&) = delete;
  StageEncodings& operator=(const StageEncodings&) = delete;
  StageEncodings(StageEncodings&&) = default;
  StageEncodings& operator=(StageEncodings&&) = default;

  /// Encoding of `slice`. `build(slice)` returns the slice's stage program
  /// (by value or by reference) and is called only the first time the slice
  /// is seen. The reference stays valid for the store's lifetime.
  template <typename BuildProgram>
  [[nodiscard]] const graph::EncodedGraph& For(ir::StageSlice slice, BuildProgram&& build) {
    const auto key = std::make_pair(slice.first_layer, slice.last_layer);
    if (const auto it = by_slice_.find(key); it != by_slice_.end()) return *it->second;
    const graph::EncodedGraph& encoded = Share(ir::BuildPrunedOpDag(build(slice)));
    by_slice_.emplace(key, &encoded);
    return encoded;
  }

  /// Encoding of a pruned DAG: the stored one if an equal DAG was seen
  /// before, otherwise a new one made by graph::EncodeGraph.
  [[nodiscard]] const graph::EncodedGraph& Share(graph::OpDag dag);

  [[nodiscard]] std::size_t NumDistinct() const noexcept { return by_structure_.size(); }

 private:
  struct Entry {
    graph::OpDag dag;
    graph::EncodedGraph encoded;
  };
  /// Structure hash -> entries; node-based, so entry addresses are stable.
  std::unordered_multimap<std::uint64_t, Entry> by_structure_;
  std::map<std::pair<std::int32_t, std::int32_t>, const graph::EncodedGraph*> by_slice_;
};

}  // namespace predtop::core
