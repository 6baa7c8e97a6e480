#include "core/stage_encodings.h"

#include "ir/types.h"

namespace predtop::core {

namespace {

constexpr std::uint64_t Combine(std::uint64_t h, std::uint64_t v) noexcept {
  // splitmix64 step over the running hash xor the next value.
  std::uint64_t x = (h ^ v) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Index-order hash of node payloads and successor lists. Only buckets
/// candidates: a hit is always confirmed by OpDag equality.
std::uint64_t StructureHash(const graph::OpDag& dag) noexcept {
  std::uint64_t h = static_cast<std::uint64_t>(dag.NumNodes());
  for (std::int32_t i = 0; i < dag.NumNodes(); ++i) {
    const graph::DagNode& node = dag.Node(i);
    h = Combine(h, (static_cast<std::uint64_t>(node.kind) << 48) ^
                       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node.op_type)) << 24) ^
                       static_cast<std::uint64_t>(static_cast<std::uint32_t>(node.dtype)));
    for (const std::int64_t d : node.out_dims) h = Combine(h, static_cast<std::uint64_t>(d));
    const auto& succ = dag.Successors(i);
    h = Combine(h, succ.size());
    for (const std::int32_t v : succ) h = Combine(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

}  // namespace

const graph::EncodedGraph& StageEncodings::Share(const ir::StageProgram& program) {
  const std::uint64_t hash = ir::OpDagInputHash(program);
  const auto [first, last] = by_program_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (ir::SameOpDagInputs(it->second.program, program)) return *it->second.encoded;
  }
  const graph::EncodedGraph& encoded = Share(ir::BuildPrunedOpDag(program));
  by_program_.emplace(hash, ProgramEntry{program, &encoded});
  return encoded;
}

const graph::EncodedGraph& StageEncodings::Share(graph::OpDag dag) {
  const std::uint64_t hash = StructureHash(dag);
  const auto [first, last] = by_structure_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second.dag == dag) return it->second.encoded;
  }
  graph::EncodedGraph encoded = graph::EncodeGraph(dag, ir::kNumOpTypes, ir::kNumDTypes);
  return by_structure_.emplace(hash, Entry{std::move(dag), std::move(encoded)})->second.encoded;
}

}  // namespace predtop::core
