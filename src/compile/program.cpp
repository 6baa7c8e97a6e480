#include "compile/program.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "compile/fuse.h"
#include "compile/planner.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace predtop::compile {

namespace {

/// The same tier predicates tensor::MatMul (the tape's Linear) evaluates per
/// call, resolved once at build time from the row count the step will always
/// see.
[[nodiscard]] GemmTier ResolveLinearTier(std::int64_t m, std::int64_t k, std::int64_t n) {
  if (tensor::UsePackedGemm(m, k, n)) return GemmTier::kPacked;
  if (tensor::UseNarrowGemm(k, n)) return GemmTier::kNarrow;
  return GemmTier::kNaive;
}

/// Scratch floats a step needs while it runs (lifetime = that one step, so
/// one shared region sized for the hungriest step serves the whole program).
[[nodiscard]] std::int64_t StepScratchFloats(const InferProgram& p, const Step& s) {
  switch (s.kind) {
    case OpKind::kFusedAttention: {
      const std::int64_t n = p.num_nodes;
      const std::int64_t d = s.attn->Dim();
      const std::int64_t hd = s.attn->HeadDim();
      const std::int64_t pack = std::max(tensor::PackedBFloats(hd, n),   // k^T pack
                                         tensor::PackedBFloats(n, hd));  // v pack
      return n * 3 * d  // combined q|k|v activation block
             + n * n    // per-head logits / deferred softmax weights
             + n        // per-row 1/sum factors
             + pack;
    }
    case OpKind::kAttnHeads: {
      // Covers both executor branches: slice-based (per-head q/k/v slices, a
      // transpose temp for the non-packed tiers) and strided-deferred (a
      // second (n, n) region so the softmax retry can reread pristine
      // logits), plus the pack buffer for the packed tiers.
      const std::int64_t n = p.num_nodes;
      const std::int64_t hd = s.attn->HeadDim();
      const std::int64_t pack = std::max(tensor::PackedBFloats(hd, n),
                                         tensor::PackedBFloats(n, hd));
      return 4 * n * hd + 2 * n * n + 2 * n + pack;
    }
    case OpKind::kSegmentSoftmax:
      // Per-segment max and denominator accumulators.
      return 2 * p.num_nodes * p.values[static_cast<std::size_t>(s.a)].cols;
    default:
      return 0;
  }
}

}  // namespace

ProgramBuilder::ProgramBuilder(std::int64_t num_nodes, std::int64_t num_edges,
                               std::int64_t feature_dim)
    : p_(std::make_shared<InferProgram>()) {
  p_->num_nodes = num_nodes;
  p_->num_edges = num_edges;
  p_->feature_dim = feature_dim;
}

ValueId ProgramBuilder::NewValue(std::int64_t rows, std::int64_t cols, External external) {
  p_->values.push_back({rows, cols, external});
  return static_cast<ValueId>(p_->values.size() - 1);
}

const ValueInfo& ProgramBuilder::Info(ValueId v) const {
  return p_->values.at(static_cast<std::size_t>(v));
}

ValueId ProgramBuilder::Input(External slot, std::int64_t rows, std::int64_t cols) {
  return NewValue(rows, cols, slot);
}

ValueId ProgramBuilder::Linear(const nn::Linear& layer, ValueId x) {
  const ValueInfo& xi = Info(x);
  if (xi.cols != layer.InFeatures()) {
    throw std::invalid_argument("ProgramBuilder::Linear: feature width mismatch");
  }
  const ValueId out = NewValue(xi.rows, layer.OutFeatures());
  p_->steps.push_back({.kind = OpKind::kLinear, .out = out, .a = x, .linear = &layer});
  return out;
}

void ProgramBuilder::Scale(ValueId a, float s) {
  p_->steps.push_back({.kind = OpKind::kScale, .out = a, .a = a, .scalar = s});
}

void ProgramBuilder::Add(ValueId a, ValueId b) {
  if (Info(a).rows != Info(b).rows || Info(a).cols != Info(b).cols) {
    throw std::invalid_argument("ProgramBuilder::Add: shape mismatch");
  }
  p_->steps.push_back({.kind = OpKind::kAdd, .out = a, .a = a, .b = b});
}

void ProgramBuilder::Relu(ValueId a) {
  p_->steps.push_back({.kind = OpKind::kRelu, .out = a, .a = a});
}

void ProgramBuilder::LeakyRelu(ValueId a, float negative_slope) {
  p_->steps.push_back(
      {.kind = OpKind::kLeakyRelu, .out = a, .a = a, .scalar = negative_slope});
}

ValueId ProgramBuilder::LayerNorm(ValueId x, const autograd::Variable& gain,
                                  const autograd::Variable& bias) {
  const ValueInfo& xi = Info(x);
  const ValueId out = NewValue(xi.rows, xi.cols);
  p_->steps.push_back(
      {.kind = OpKind::kLayerNorm, .out = out, .a = x, .gain = &gain, .bias = &bias});
  return out;
}

ValueId ProgramBuilder::AttnHeads(const nn::MultiheadMaskedAttention& attn, ValueId q,
                                  ValueId k, ValueId v, bool use_mask) {
  const std::int64_t n = Info(q).rows;
  if (Info(q).cols != attn.Dim() || Info(k).cols != attn.Dim() ||
      Info(v).cols != attn.Dim() || Info(k).rows != n || Info(v).rows != n) {
    throw std::invalid_argument("ProgramBuilder::AttnHeads: shape mismatch");
  }
  const ValueId out = NewValue(n, attn.Dim());
  p_->steps.push_back({.kind = OpKind::kAttnHeads,
                       .out = out,
                       .a = q,
                       .b = k,
                       .c = v,
                       .attn = &attn,
                       .use_mask = use_mask});
  return out;
}

ValueId ProgramBuilder::Spmm(ValueId x) {
  if (Info(x).rows != p_->num_nodes) {
    throw std::invalid_argument("ProgramBuilder::Spmm: operand must have one row per node");
  }
  const ValueId out = NewValue(p_->num_nodes, Info(x).cols);
  p_->steps.push_back({.kind = OpKind::kSpmm, .out = out, .a = x});
  return out;
}

ValueId ProgramBuilder::Pool(ValueId x) {
  const ValueId out = NewValue(1, Info(x).cols);
  p_->steps.push_back({.kind = OpKind::kPool, .out = out, .a = x});
  return out;
}

ValueId ProgramBuilder::Concat2(ValueId a, ValueId b) {
  if (Info(a).rows != Info(b).rows) {
    throw std::invalid_argument("ProgramBuilder::Concat2: row count mismatch");
  }
  const ValueId out = NewValue(Info(a).rows, Info(a).cols + Info(b).cols);
  p_->steps.push_back({.kind = OpKind::kConcat2, .out = out, .a = a, .b = b});
  return out;
}

ValueId ProgramBuilder::MatVec(ValueId x, const autograd::Variable& vec) {
  if (vec.value().rank() != 2 || vec.value().dim(0) != Info(x).cols ||
      vec.value().dim(1) != 1) {
    throw std::invalid_argument("ProgramBuilder::MatVec: vector must be (cols, 1)");
  }
  const ValueId out = NewValue(Info(x).rows, 1);
  p_->steps.push_back({.kind = OpKind::kMatVec, .out = out, .a = x, .gain = &vec});
  return out;
}

ValueId ProgramBuilder::EdgeScores(ValueId src_scores, ValueId dst_scores) {
  if (Info(src_scores).cols != 1 || Info(dst_scores).cols != 1) {
    throw std::invalid_argument("ProgramBuilder::EdgeScores: scores must be (n, 1)");
  }
  const ValueId out = NewValue(p_->num_edges, 1);
  p_->steps.push_back(
      {.kind = OpKind::kEdgeScores, .out = out, .a = src_scores, .b = dst_scores});
  return out;
}

ValueId ProgramBuilder::SegmentSoftmax(ValueId e) {
  const ValueInfo& ei = Info(e);
  const ValueId out = NewValue(ei.rows, ei.cols);
  p_->steps.push_back({.kind = OpKind::kSegmentSoftmax, .out = out, .a = e});
  return out;
}

ValueId ProgramBuilder::GatherRows(ValueId x, bool by_dst) {
  const ValueId out = NewValue(p_->num_edges, Info(x).cols);
  p_->steps.push_back({.kind = OpKind::kGatherRows,
                       .out = out,
                       .a = x,
                       .edge_sel = static_cast<std::uint8_t>(by_dst ? 1 : 0)});
  return out;
}

void ProgramBuilder::RowScale(ValueId x, ValueId s) {
  if (Info(s).cols != 1 || Info(s).rows != Info(x).rows) {
    throw std::invalid_argument("ProgramBuilder::RowScale: expected x(m,c) and s(m,1)");
  }
  p_->steps.push_back({.kind = OpKind::kRowScale, .out = x, .a = x, .b = s});
}

ValueId ProgramBuilder::SegmentSum(ValueId x) {
  const ValueId out = NewValue(p_->num_nodes, Info(x).cols);
  p_->steps.push_back({.kind = OpKind::kSegmentSum, .out = out, .a = x});
  return out;
}

void ProgramBuilder::AddRowVector(ValueId x, const autograd::Variable& bias) {
  if (bias.value().rank() != 1 || bias.value().dim(0) != Info(x).cols) {
    throw std::invalid_argument("ProgramBuilder::AddRowVector: bias width mismatch");
  }
  p_->steps.push_back({.kind = OpKind::kAddRowVector, .out = x, .a = x, .gain = &bias});
}

std::shared_ptr<InferProgram> ProgramBuilder::Finish(ValueId output) {
  InferProgram& p = *p_;
  p.output = output;
  FusePatterns(p);

  // Resolve GEMM tiers now that the step list is final.
  for (Step& s : p.steps) {
    if (s.linear == nullptr) continue;
    const std::int64_t m = p.values[static_cast<std::size_t>(s.a)].rows;
    s.tier = ResolveLinearTier(m, s.linear->InFeatures(), s.linear->OutFeatures());
  }

  // Live ranges: a value is born at its first defining write and dies at its
  // last read. In-place steps (out == a) both read and write, so they extend
  // the range naturally. Externals and fusion-orphaned values get no range
  // and are never planned.
  const std::int32_t num_steps = static_cast<std::int32_t>(p.steps.size());
  std::vector<Lifetime> lifetimes(p.values.size());
  std::vector<bool> defined(p.values.size(), false);
  for (std::int32_t i = 0; i < num_steps; ++i) {
    const Step& s = p.steps[static_cast<std::size_t>(i)];
    for (const ValueId v : {s.out, s.a, s.b, s.c}) {
      if (v == kNoValue) continue;
      const auto vi = static_cast<std::size_t>(v);
      if (p.values[vi].external != External::kNone) continue;
      if (!defined[vi]) {
        defined[vi] = true;
        lifetimes[vi].first = i;
        lifetimes[vi].floats = p.values[vi].size();
      }
      lifetimes[vi].last = i;
    }
  }
  // The program output must survive past the final step so Execute can read
  // it after the loop.
  if (output != kNoValue && defined[static_cast<std::size_t>(output)]) {
    lifetimes[static_cast<std::size_t>(output)].last = num_steps;
  }
  for (std::size_t v = 0; v < lifetimes.size(); ++v) {
    if (!defined[v]) lifetimes[v].floats = 0;
  }

  const PlanLayout layout = PlanOffsets(lifetimes);
  p.offsets.assign(p.values.size(), InferProgram::kNoOffset);
  for (std::size_t v = 0; v < p.values.size(); ++v) {
    if (defined[v] && lifetimes[v].floats > 0) p.offsets[v] = layout.offsets[v];
  }
  p.arena_floats = layout.total_floats;

  for (const Step& s : p.steps) {
    p.scratch_floats = std::max(p.scratch_floats, StepScratchFloats(p, s));
  }
  return std::move(p_);
}

std::shared_ptr<const InferProgram::Snapshot> InferProgram::CurrentSnapshot() const {
  const std::uint64_t epoch = nn::ParameterEpoch();
  {
    std::lock_guard<std::mutex> lock(snap_mutex_);
    if (snap_ != nullptr && snap_->epoch == epoch) return snap_;
  }
  // Rebuild outside the lock: snapshots are immutable, so a racing rebuild
  // just wastes one pack pass and the last writer wins.
  auto fresh = std::make_shared<Snapshot>();
  fresh->epoch = epoch;
  fresh->lin.resize(steps.size());
  std::int32_t attn_slots = 0;
  for (const Step& s : steps) {
    if (s.kind == OpKind::kFusedAttention) attn_slots = std::max(attn_slots, s.aux + 1);
  }
  fresh->attn.resize(static_cast<std::size_t>(attn_slots));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (s.linear != nullptr) fresh->lin[i] = s.linear->SnapshotInferWeights();
    if (s.kind != OpKind::kFusedAttention) continue;
    // Combined [Wq | Wk | Wv] pack: column-concatenating the three (d, d)
    // weights before packing yields the identical panel stream as three
    // separate packs (d is a panel multiple, enforced by the fuser).
    AttnSnap& as = fresh->attn[static_cast<std::size_t>(s.aux)];
    const std::int64_t d = s.attn->Dim();
    const nn::Linear* proj[3] = {&s.attn->Wq(), &s.attn->Wk(), &s.attn->Wv()};
    std::vector<float> combined(static_cast<std::size_t>(d * 3 * d));
    for (int w = 0; w < 3; ++w) {
      const float* src = proj[w]->Weight().value().data().data();
      for (std::int64_t r = 0; r < d; ++r) {
        std::memcpy(combined.data() + r * 3 * d + w * d, src + r * d,
                    static_cast<std::size_t>(d) * sizeof(float));
      }
    }
    tensor::PackBInto(combined.data(), d, 3 * d, as.qkv);
    as.bias.resize(static_cast<std::size_t>(3 * d));
    for (int w = 0; w < 3; ++w) {
      const autograd::Variable* bv = proj[w]->Bias();
      if (bv != nullptr) {
        std::memcpy(as.bias.data() + w * d, bv->value().data().data(),
                    static_cast<std::size_t>(d) * sizeof(float));
      } else {
        std::fill(as.bias.begin() + w * d, as.bias.begin() + (w + 1) * d, 0.0f);
      }
    }
  }
  std::lock_guard<std::mutex> lock(snap_mutex_);
  snap_ = std::move(fresh);
  return snap_;
}

}  // namespace predtop::compile
