#pragma once
// Bridge from the IR to the predictor-facing graph representation (paper
// §IV-B2/§IV-B4): one DAG node per input/literal value and per equation,
// plus explicit output nodes, then optional pruning of shape-only ops.

#include <cstdint>

#include "graph/op_dag.h"
#include "ir/program.h"

namespace predtop::ir {

/// Convert a stage program into an operator DAG carrying the Tbl. I node
/// features. Nodes: inputs and literals (kind input/literal, op "none"),
/// one node per equation (kind operator), and one output node per program
/// output.
[[nodiscard]] graph::OpDag BuildOpDag(const StageProgram& program);

/// BuildOpDag followed by pruning of reshape / broadcast /
/// convert_element_type nodes (paper §IV-B4).
[[nodiscard]] graph::OpDag BuildPrunedOpDag(const StageProgram& program);

/// Hash of exactly the program fields BuildOpDag reads: each value's spec,
/// kind and defining equation, each equation's op, operands and result, and
/// the outputs. The name, layer bounds and other metadata do not enter, so
/// interior slices that build the same layer stack hash equally.
[[nodiscard]] std::uint64_t OpDagInputHash(const StageProgram& program) noexcept;

/// True iff `a` and `b` agree on every field OpDagInputHash reads, which
/// makes BuildOpDag(a) == BuildOpDag(b) (and so their pruned DAGs equal).
[[nodiscard]] bool SameOpDagInputs(const StageProgram& a, const StageProgram& b) noexcept;

}  // namespace predtop::ir
