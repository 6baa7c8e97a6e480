#include "ir/to_dag.h"

#include <algorithm>
#include <bit>

#include "graph/prune.h"
#include "util/rng.h"

namespace predtop::ir {

namespace {

graph::DagNode MakeNode(graph::NodeKind kind, OpType op, const TensorSpec& spec) {
  graph::DagNode node;
  node.kind = kind;
  node.op_type = static_cast<std::int32_t>(op);
  node.dtype = static_cast<std::int32_t>(spec.dtype);
  node.out_dims = {1, 1, 1, 1};
  // Right-align trailing dims into the fixed feature slots; fold any leading
  // overflow into slot 0 so the element count is preserved.
  const std::size_t rank = spec.dims.size();
  if (rank <= graph::kMaxFeatureDims) {
    for (std::size_t i = 0; i < rank; ++i) {
      node.out_dims[graph::kMaxFeatureDims - rank + i] = spec.dims[i];
    }
  } else {
    const std::size_t overflow = rank - graph::kMaxFeatureDims;
    for (std::size_t i = 0; i <= overflow; ++i) node.out_dims[0] *= spec.dims[i];
    for (std::size_t i = 1; i < graph::kMaxFeatureDims; ++i) {
      node.out_dims[i] = spec.dims[overflow + i];
    }
  }
  return node;
}

/// One multiply per word (FxHash-style): the hash only buckets programs, and
/// SameOpDagInputs confirms every hit, so speed matters more than avalanche.
std::uint64_t Combine(std::uint64_t h, std::uint64_t v) noexcept {
  return (std::rotl(h, 5) ^ v) * 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Combine(std::uint64_t h, std::span<const ValueId> ids) noexcept {
  h = Combine(h, ids.size());
  for (const ValueId id : ids) h = Combine(h, static_cast<std::uint64_t>(id));
  return h;
}

bool SameValue(const Value& a, const Value& b) noexcept {
  return a.spec == b.spec && a.kind == b.kind && a.defining_equation == b.defining_equation;
}

bool SameEquation(const Equation& a, const Equation& b) noexcept {
  return a.op == b.op && a.operands == b.operands && a.result == b.result;
}

}  // namespace

graph::OpDag BuildOpDag(const StageProgram& program) {
  graph::OpDag dag;
  std::vector<std::int32_t> value_node(static_cast<std::size_t>(program.NumValues()), -1);

  for (ValueId v = 0; v < program.NumValues(); ++v) {
    const Value& value = program.value(v);
    switch (value.kind) {
      case ValueKind::kInput:
        value_node[static_cast<std::size_t>(v)] =
            dag.AddNode(MakeNode(graph::NodeKind::kInput, OpType::kNone, value.spec));
        break;
      case ValueKind::kLiteral:
        value_node[static_cast<std::size_t>(v)] =
            dag.AddNode(MakeNode(graph::NodeKind::kLiteral, OpType::kNone, value.spec));
        break;
      case ValueKind::kEquationResult: {
        const Equation& eqn =
            program.equations()[static_cast<std::size_t>(value.defining_equation)];
        const std::int32_t node =
            dag.AddNode(MakeNode(graph::NodeKind::kOperator, eqn.op, value.spec));
        value_node[static_cast<std::size_t>(v)] = node;
        for (const ValueId operand : eqn.operands) {
          dag.AddEdge(value_node[static_cast<std::size_t>(operand)], node);
        }
        break;
      }
    }
  }
  for (const ValueId out : program.outputs()) {
    const std::int32_t marker =
        dag.AddNode(MakeNode(graph::NodeKind::kOutput, OpType::kNone, program.value(out).spec));
    dag.AddEdge(value_node[static_cast<std::size_t>(out)], marker);
  }
  return dag;
}

graph::OpDag BuildPrunedOpDag(const StageProgram& program) {
  const graph::OpDag raw = BuildOpDag(program);
  auto result = graph::PruneDag(raw, [](const graph::DagNode& node) {
    return node.kind == graph::NodeKind::kOperator &&
           IsPrunableOp(static_cast<OpType>(node.op_type));
  });
  return std::move(result.dag);
}

std::uint64_t OpDagInputHash(const StageProgram& program) noexcept {
  std::uint64_t h = Combine(0x6f70646167ULL, static_cast<std::uint64_t>(program.NumValues()));
  for (const Value& value : program.values()) {
    h = Combine(h, (static_cast<std::uint64_t>(value.kind) << 40) ^
                       (static_cast<std::uint64_t>(value.spec.dtype) << 32) ^
                       static_cast<std::uint32_t>(value.defining_equation));
    h = Combine(h, value.spec.dims.size());
    for (const std::int64_t d : value.spec.dims) h = Combine(h, static_cast<std::uint64_t>(d));
  }
  h = Combine(h, static_cast<std::uint64_t>(program.NumEquations()));
  for (const Equation& eqn : program.equations()) {
    h = Combine(h, (static_cast<std::uint64_t>(eqn.op) << 32) ^
                       static_cast<std::uint32_t>(eqn.result));
    h = Combine(h, eqn.operands);
  }
  return util::SplitMix64(Combine(h, program.outputs()));
}

bool SameOpDagInputs(const StageProgram& a, const StageProgram& b) noexcept {
  return std::ranges::equal(a.values(), b.values(), SameValue) &&
         std::ranges::equal(a.equations(), b.equations(), SameEquation) &&
         std::ranges::equal(a.outputs(), b.outputs());
}

}  // namespace predtop::ir
