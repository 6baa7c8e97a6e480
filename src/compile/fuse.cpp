#include "compile/fuse.h"

#include <algorithm>
#include <vector>

#include "tensor/ops.h"

namespace predtop::compile {

namespace {

/// Steps reading value v (as a, b, or c). Defining writes (out) with
/// out == a count as reads too, which is what in-place ops are.
[[nodiscard]] std::vector<std::size_t> ReadersOf(const std::vector<Step>& steps, ValueId v) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (s.a == v || s.b == v || s.c == v) out.push_back(i);
  }
  return out;
}

[[nodiscard]] bool IsLinearOf(const Step& s, const nn::Linear* lin, ValueId out) {
  return s.kind == OpKind::kLinear && s.linear == lin && s.out == out;
}

void Erase(std::vector<Step>& steps, const std::vector<std::size_t>& sorted_indices) {
  for (auto it = sorted_indices.rbegin(); it != sorted_indices.rend(); ++it) {
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(*it));
  }
}

/// Pattern 1: the five-step attention chain ending in kAttnHeads.
void FuseAttention(std::vector<Step>& steps, std::int64_t num_nodes) {
  for (std::size_t i = 4; i < steps.size(); ++i) {
    Step& s = steps[i];
    if (s.kind != OpKind::kAttnHeads || s.attn == nullptr) continue;
    // The combined pack is bit-identical to three separate packs only when
    // each projection's columns land on whole panels.
    if (s.attn->Dim() % tensor::kGemmPanel != 0) continue;
    // The fused kernel runs every GEMM packed; fuse only the shape classes
    // where tensor::MatMul would pick the packed tier for the q/k/v
    // projections AND both per-head multiplies (the same gates the unfused
    // kAttnHeads executor takes its strided branch on). Below these floors
    // the unfused executor's slice-based branch runs tensor::MatMul's tiers
    // instead.
    const std::int64_t n = num_nodes;
    const std::int64_t d = s.attn->Dim();
    const std::int64_t hd = s.attn->HeadDim();
    if (!tensor::UsePackedGemm(n, d, d) || !tensor::UsePackedGemm(n, hd, n) ||
        !tensor::UsePackedGemm(n, n, hd)) {
      continue;
    }
    const Step& lq = steps[i - 4];
    const Step& lk = steps[i - 3];
    const Step& lv = steps[i - 2];
    const Step& sc = steps[i - 1];
    if (!IsLinearOf(lq, &s.attn->Wq(), s.a) || !IsLinearOf(lk, &s.attn->Wk(), s.b) ||
        !IsLinearOf(lv, &s.attn->Wv(), s.c)) {
      continue;
    }
    if (sc.kind != OpKind::kScale || sc.out != s.a) continue;
    if (lq.a != lk.a || lq.a != lv.a) continue;  // one shared input x
    // q is read only by its scale and the attention; k/v only by the
    // attention — otherwise eliding them would change some other step.
    if (ReadersOf(steps, s.a) != std::vector<std::size_t>{i - 1, i}) continue;
    if (ReadersOf(steps, s.b) != std::vector<std::size_t>{i}) continue;
    if (ReadersOf(steps, s.c) != std::vector<std::size_t>{i}) continue;

    s.kind = OpKind::kFusedAttention;
    s.a = lq.a;
    s.b = kNoValue;
    s.c = kNoValue;
    s.scalar = sc.scalar;  // 1/sqrt(dk), applied to the q columns post-bias
    Erase(steps, {i - 4, i - 3, i - 2, i - 1});
    i -= 4;
  }
}

/// Pattern 2: Linear -> in-place residual Add -> LayerNorm.
void FuseResidualNorm(std::vector<Step>& steps) {
  for (std::size_t i = 2; i < steps.size(); ++i) {
    Step& ln = steps[i];
    if (ln.kind != OpKind::kLayerNorm) continue;
    const Step& add = steps[i - 1];
    const Step& lin = steps[i - 2];
    if (add.kind != OpKind::kAdd || add.out != ln.a) continue;
    if (lin.kind != OpKind::kLinear || lin.out != ln.a) continue;
    if (ReadersOf(steps, ln.a) != std::vector<std::size_t>{i - 1, i}) continue;

    ln.kind = OpKind::kLinearResidualNorm;
    ln.linear = lin.linear;
    ln.a = lin.a;      // GEMM input
    ln.b = add.b;      // residual
    Erase(steps, {i - 2, i - 1});
    i -= 2;
  }
}

/// Pattern 3: Linear -> in-place activation.
void FuseLinearAct(std::vector<Step>& steps) {
  for (std::size_t i = 1; i < steps.size(); ++i) {
    const Step& act = steps[i];
    if (act.kind != OpKind::kRelu) continue;
    Step& lin = steps[i - 1];
    if (lin.kind != OpKind::kLinear || lin.out != act.out) continue;
    // The activated value may have any number of later readers; only the
    // *pre-activation* value must be unobserved, and it is: the in-place
    // Relu is its sole possible reader before this step rewrites it.
    if (ReadersOf(steps, act.out).front() != i) continue;

    lin.kind = OpKind::kLinearAct;
    lin.act = tensor::fused::Act::kRelu;
    Erase(steps, {i});
    --i;
  }
}

}  // namespace

void FusePatterns(InferProgram& p) {
  FuseAttention(p.steps, p.num_nodes);
  FuseResidualNorm(p.steps);
  FuseLinearAct(p.steps);
  // Assign snapshot slots to the surviving fused attention steps.
  std::int32_t attn_count = 0;
  for (Step& s : p.steps) {
    if (s.kind == OpKind::kFusedAttention) s.aux = attn_count++;
  }
}

}  // namespace predtop::compile
