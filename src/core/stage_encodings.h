#pragma once
// One store of encoded predictor inputs, shared by stage program. Interior
// slices of the same span build the same layer stack, so most stage slices
// share their encoding with a slice already seen (GPT-3 with spans <= 9: 180
// slices, 27 distinct programs and DAGs; MoE with spans <= 11: 297 slices,
// 44). Sharing has two levels:
//  1. Program. A slice's ir::StageProgram is bucketed by ir::OpDagInputHash
//     and confirmed by ir::SameOpDagInputs, which compares exactly the fields
//     ir::BuildOpDag reads (not the name or layer bounds). A hit returns the
//     stored encoding without building a DAG.
//  2. DAG. On a program miss the pruned OpDag is built once, bucketed by an
//     index-order hash and confirmed by exact OpDag equality, so programs that
//     differ only in pruned-away ops still share. A miss here runs
//     graph::EncodeGraph once.
// Both levels compare exactly, never by fingerprint, so every shared encoding
// is bit-identical to a fresh EncodeStage of the slice's program. The store
// keeps its own copy of each distinct program: callers may build temporaries.
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
    const graph::EncodedGraph& encoded = Share(build(slice));
    by_slice_.emplace(key, &encoded);
    return encoded;
  }

  /// Encoding of a stage program: the stored one if a program with the same
  /// OpDag inputs was seen before, otherwise Share(ir::BuildPrunedOpDag(program)).
  [[nodiscard]] const graph::EncodedGraph& Share(const ir::StageProgram& program);

  /// Encoding of a pruned DAG: the stored one if an equal DAG was seen
  /// before, otherwise a new one made by graph::EncodeGraph.
  [[nodiscard]] const graph::EncodedGraph& Share(graph::OpDag dag);

  /// Distinct encodings (pruned DAGs) made.
  [[nodiscard]] std::size_t NumDistinct() const noexcept { return by_structure_.size(); }
  /// Distinct programs seen, each of which built one pruned DAG.
  [[nodiscard]] std::size_t NumPrograms() const noexcept { return by_program_.size(); }

 private:
  struct Entry {
    graph::OpDag dag;
    graph::EncodedGraph encoded;
  };
  struct ProgramEntry {
    ir::StageProgram program;
    const graph::EncodedGraph* encoded;
  };
  /// Structure hash -> entries; node-based, so entry addresses are stable.
  std::unordered_multimap<std::uint64_t, Entry> by_structure_;
  /// ir::OpDagInputHash -> programs and the encoding each maps to.
  std::unordered_multimap<std::uint64_t, ProgramEntry> by_program_;
  std::map<std::pair<std::int32_t, std::int32_t>, const graph::EncodedGraph*> by_slice_;
};

}  // namespace predtop::core
