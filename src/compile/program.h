#pragma once
// Compiled inference programs (the tentpole of predtop::compile).
//
// A predictor's inference forward is a fixed op sequence once the graph's
// shape class (node count, edge count) is known. Instead of building an
// autograd tape — a fresh tensor per op, re-decided kernel tiers, a node per
// op kept alive for a backward that never runs — we *record* that sequence
// once into an InferProgram:
//
//  - ProgramBuilder records the unfused module-level ops of the predictor's
//    Forward (one Step per Linear / activation / norm / graph op, each
//    mirroring the autograd op of the same name);
//  - the fusion pass (fuse.h) pattern-matches Linear+activation,
//    Linear+residual+LayerNorm, and the attention projection chain into
//    single fused steps backed by the kernels in tensor/fused.h;
//  - the static planner (planner.h) computes first-use/last-use intervals
//    per intermediate and assigns fixed offsets in one flat buffer, so a
//    warm forward performs zero allocation and zero cursor arithmetic;
//  - weight snapshots (per-step shared_ptr into nn::Linear's epoch-keyed
//    packs, plus a combined q|k|v pack per attention) are revalidated with a
//    single epoch check per forward instead of one mutex per Linear.
//
// Programs are cached per (predictor instance, shape class) in a global LRU
// (cache.h) and invalidated by nn::ParameterEpoch exactly like the
// per-Linear packs. The compiled program and the tape are the only two
// inference paths: StagePredictor::Infer answers an input the builder
// refuses on the tape, and the tape stays the parity reference (<= 1e-6).

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/encode.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "tensor/fused.h"

namespace predtop::compile {

/// Index into InferProgram::values. Values are SSA-ish: each is defined by
/// exactly one step; in-place steps (kScale, kAdd, ...) reuse their input id
/// as `out`, which extends the value's live range instead of minting a new
/// one.
using ValueId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

/// External input slots resolved at execution time (never planned).
enum class External : std::int8_t {
  kNone = -1,
  kFeatures = 0,  // g.features, (n, feature_dim)
  kDepthPe = 1,   // ExecInputs::pe, (n, dagt_dim)
};

struct ValueInfo {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  External external = External::kNone;

  [[nodiscard]] std::int64_t size() const noexcept { return rows * cols; }
};

enum class OpKind : std::uint8_t {
  // Linear family (weight snapshots; tier resolved at build time).
  kLinear,             // out = a W + b(ias)
  kLinearAct,          // fused: out = act(a W + bias)
  kLinearResidualNorm, // fused: out = LayerNorm(a W + bias + b, gain, beta)
  kFusedAttention,     // fused: out = multihead(a) pre-W_o (combined qkv pack)
  // Unfused building blocks (in-place ops keep out == a).
  kScale,         // a *= scalar
  kAdd,           // a += b
  kRelu,          // a = relu(a)
  kLeakyRelu,     // a = leaky_relu(a, scalar)
  kLayerNorm,     // out = LayerNorm(a, gain, bias)
  kAttnHeads,     // out = per-head softmax(q k^T + mask) v; a=q, b=k, c=v
  // Graph / pooling ops.
  kSpmm,          // out = g.adj_norm * a
  kPool,          // out = column sums of a, (1, cols)
  kConcat2,       // out = [a | b], rows must match
  kMatVec,        // out(i, 0) = dot(a.row(i), gain)   [GAT attention scores]
  kEdgeScores,    // out(e, 0) = a[edge_src[e]] + b[edge_dst[e]]
  kSegmentSoftmax,// out = softmax of a grouped by edge_dst (rows = edges)
  kGatherRows,    // out = a[edge list selected by edge_sel]
  kRowScale,      // a(i, :) *= b(i, 0)
  kSegmentSum,    // out = sum of a rows grouped by edge_dst
  kAddRowVector,  // a += gain broadcast over rows
};

/// GEMM tier resolved at build time from the (m, k, n) the step will always
/// see — the same predicates tensor::MatMul (the tape's Linear) evaluates
/// per call.
enum class GemmTier : std::uint8_t { kPacked, kNarrow, kNaive };

struct Step {
  OpKind kind{};
  ValueId out = kNoValue;
  ValueId a = kNoValue;
  ValueId b = kNoValue;
  ValueId c = kNoValue;
  const nn::Linear* linear = nullptr;
  const nn::MultiheadMaskedAttention* attn = nullptr;
  /// LayerNorm gain / MatVec vector / AddRowVector bias, depending on kind.
  const autograd::Variable* gain = nullptr;
  const autograd::Variable* bias = nullptr;
  tensor::fused::Act act = tensor::fused::Act::kNone;
  float scalar = 0.0f;
  GemmTier tier = GemmTier::kNaive;
  bool use_mask = false;
  std::uint8_t edge_sel = 0;  // kGatherRows: 0 = edge_src, 1 = edge_dst
  std::int32_t aux = -1;      // kFusedAttention: index into Snapshot::attn
};

/// Execution-time inputs. `mask` / `pe` are supplied by the predictor that
/// owns the program (it knows its ablation flags and per-graph caches).
struct ExecInputs {
  const graph::EncodedGraph* g = nullptr;
  const tensor::Tensor* mask = nullptr;  // additive (n, n) reachability mask
  const float* pe = nullptr;             // depth positional encoding rows
};

class InferProgram {
 public:
  /// Shape class the program was recorded for; Execute() refuses others.
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  std::int64_t feature_dim = 0;

  std::vector<ValueInfo> values;
  std::vector<Step> steps;
  ValueId output = kNoValue;

  /// Static plan: per-value offsets into one flat buffer (kNoOffset for
  /// externals and dead values), the planned activation floats, the shared
  /// scratch region appended after them, and the buffer total.
  static constexpr std::int64_t kNoOffset = -1;
  std::vector<std::int64_t> offsets;
  std::int64_t arena_floats = 0;
  std::int64_t scratch_floats = 0;
  [[nodiscard]] std::int64_t PlanFloats() const noexcept {
    return arena_floats + scratch_floats;
  }

  /// Per-epoch weight snapshot shared by every thread executing the program.
  struct AttnSnap {
    tensor::PackedB qkv;        // combined [Wq | Wk | Wv] pack
    std::vector<float> bias;    // bq | bk | bv, 3 * dim
  };
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::vector<std::shared_ptr<const nn::Linear::InferWeights>> lin;  // per step
    std::vector<AttnSnap> attn;  // indexed by Step::aux
  };

  /// Current snapshot, rebuilt when ParameterEpoch moved since the last call (one lock + one atomic check per forward).
  [[nodiscard]] std::shared_ptr<const Snapshot> CurrentSnapshot() const;

 private:
  mutable std::mutex snap_mutex_;
  mutable std::shared_ptr<const Snapshot> snap_;
};

/// Records the unfused op sequence for one predictor forward. The builder
/// validates shapes as it goes (mirroring the checks the live kernels throw
/// on), so a recorded program never faults at execution time.
class ProgramBuilder {
 public:
  ProgramBuilder(std::int64_t num_nodes, std::int64_t num_edges, std::int64_t feature_dim);

  [[nodiscard]] ValueId Input(External slot, std::int64_t rows, std::int64_t cols);
  [[nodiscard]] ValueId Linear(const nn::Linear& layer, ValueId x);
  void Scale(ValueId a, float s);
  void Add(ValueId a, ValueId b);
  void Relu(ValueId a);
  void LeakyRelu(ValueId a, float negative_slope);
  [[nodiscard]] ValueId LayerNorm(ValueId x, const autograd::Variable& gain,
                                  const autograd::Variable& bias);
  [[nodiscard]] ValueId AttnHeads(const nn::MultiheadMaskedAttention& attn, ValueId q,
                                  ValueId k, ValueId v, bool use_mask);
  [[nodiscard]] ValueId Spmm(ValueId x);
  [[nodiscard]] ValueId Pool(ValueId x);
  [[nodiscard]] ValueId Concat2(ValueId a, ValueId b);
  [[nodiscard]] ValueId MatVec(ValueId x, const autograd::Variable& vec);
  [[nodiscard]] ValueId EdgeScores(ValueId src_scores, ValueId dst_scores);
  [[nodiscard]] ValueId SegmentSoftmax(ValueId e);
  [[nodiscard]] ValueId GatherRows(ValueId x, bool by_dst);
  void RowScale(ValueId x, ValueId s);
  [[nodiscard]] ValueId SegmentSum(ValueId x);
  void AddRowVector(ValueId x, const autograd::Variable& bias);

  /// Run the fusion pass, resolve GEMM tiers, plan the buffer, and seal the
  /// program. A pattern the fuser declines stays as its unfused steps, so
  /// every recorded sequence compiles.
  [[nodiscard]] std::shared_ptr<InferProgram> Finish(ValueId output);

 private:
  [[nodiscard]] ValueId NewValue(std::int64_t rows, std::int64_t cols,
                                 External external = External::kNone);
  [[nodiscard]] const ValueInfo& Info(ValueId v) const;

  std::shared_ptr<InferProgram> p_;
};

/// Run the program. Returns false (without touching `out`) when the inputs'
/// shape class does not match the program; the caller falls back. A warm call
/// performs no allocation: activations and scratch live in a thread-local
/// grow-only buffer at the planner's fixed offsets.
[[nodiscard]] bool Execute(const InferProgram& p, const ExecInputs& in, float* out);

/// Size in floats of the calling thread's plan buffer (test hook: warm
/// forwards must never grow it).
[[nodiscard]] std::int64_t ThreadPlanBufferFloats() noexcept;

}  // namespace predtop::compile
