#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "compile/program.h"
#include "tensor/fused.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

namespace predtop::compile {

namespace {

/// Lanes below this are treated as -inf masked (matches the autograd mask
/// builder's -1e30 sentinel with headroom).
constexpr float kNegInfCut = -1e30f;

/// Per-graph open-lane structure of the DAGRA reachability mask, shared by
/// every attention step of one forward (the mask is identical across layers
/// and heads). Grow-only members so a warm rebuild never allocates.
struct MaskRuns {
  /// Per-row window hull: lanes outside [win_lo[i], win_hi[i]) are -inf.
  std::vector<std::int32_t> win_lo;
  std::vector<std::int32_t> win_hi;
  /// Open-lane runs, CSR over rows: row i's [lo, hi) pairs live at
  /// chunk_bounds[2 * chunk_start[i] .. 2 * chunk_start[i + 1]).
  std::vector<std::int32_t> chunk_start;
  std::vector<std::int32_t> chunk_bounds;
  /// Per GEMM row block (kGemmMr rows): the block's row runs merged and
  /// rounded out to packed-panel granularity — the column ranges the logits
  /// GEMM must actually compute.
  std::vector<std::int32_t> brun_start;
  std::vector<std::int32_t> brun_bounds;
  std::vector<std::int32_t> brun_scratch;
};

/// Thread-local execution state: the flat plan buffer and the per-row mask
/// windows. Grow-only so a warm forward never allocates.
struct ExecState {
  std::vector<float> buf;
  MaskRuns runs;
};

ExecState& ThreadExecState() {
  thread_local ExecState state;
  return state;
}

/// True when the program contains a fused-attention step (the only consumer
/// of MaskRuns).
bool NeedsMaskRuns(const InferProgram& p) noexcept {
  for (const Step& s : p.steps) {
    if (s.kind == OpKind::kFusedAttention) return true;
  }
  return false;
}

/// The shape/presence checks Execute performs before touching the plan
/// buffer: graph shape class, feature dims, mask/pe presence when the
/// program wants them. False = caller must fall back.
bool ValidateInputs(const InferProgram& p, const ExecInputs& in) noexcept {
  if (in.g == nullptr || p.output == kNoValue) return false;
  const graph::EncodedGraph& g = *in.g;
  if (g.num_nodes != p.num_nodes) return false;
  if (static_cast<std::int64_t>(g.edge_src.size()) != p.num_edges) return false;
  if (g.features.rank() != 2 || g.features.dim(0) != p.num_nodes ||
      g.features.dim(1) != p.feature_dim) {
    return false;
  }

  bool wants_mask = false;
  bool wants_pe = false;
  for (const Step& s : p.steps) {
    if ((s.kind == OpKind::kFusedAttention || s.kind == OpKind::kAttnHeads) && s.use_mask) {
      wants_mask = true;
    }
  }
  for (const ValueInfo& v : p.values) {
    if (v.external == External::kDepthPe) wants_pe = true;
  }
  if (wants_mask && (in.mask == nullptr || in.mask->rank() != 2 ||
                     in.mask->dim(0) != p.num_nodes || in.mask->dim(1) != p.num_nodes)) {
    return false;
  }
  if (wants_pe && in.pe == nullptr) return false;
  return true;
}

/// y(m, n) = x(m, k) * W with the tier resolved at build time — the same
/// kernels as the tape's tensor::MatMul at that shape, against the Linear's
/// cached packs, minus the per-call dispatch.
void LinearGemm(const Step& s, const std::shared_ptr<const nn::Linear::InferWeights>& w,
                const float* x, std::int64_t m, float* y) {
  const nn::Linear& lin = *s.linear;
  const std::int64_t k = lin.InFeatures();
  const std::int64_t n = lin.OutFeatures();
  switch (s.tier) {
    case GemmTier::kPacked:
      tensor::MatMulPackedInto(x, m, w->pack, y);
      break;
    case GemmTier::kNarrow: {
      const float* wt = w->weight_t.data().data();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* xrow = x + i * k;
        float* yrow = y + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          yrow[j] = tensor::simd::Dot(xrow, wt + j * k, k);
        }
      }
      break;
    }
    case GemmTier::kNaive: {
      std::fill(y, y + m * n, 0.0f);
      const float* pw = lin.Weight().value().data().data();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* xrow = x + i * k;
        float* yrow = y + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = xrow[kk];
          if (av == 0.0f) continue;  // same skip as the training kernel
          const float* wrow = pw + kk * n;
          for (std::int64_t j = 0; j < n; ++j) yrow[j] += av * wrow[j];
        }
      }
      break;
    }
  }
}

const float* LinearBias(const Step& s) {
  const autograd::Variable* b = s.linear->Bias();
  return b != nullptr ? b->value().data().data() : nullptr;
}

/// Scan in.mask (or synthesize full windows when the program's attention is
/// unmasked) into `state`. Warm calls reuse the vectors' capacity.
void BuildMaskRuns(const InferProgram& p, const ExecInputs& in, MaskRuns& state) {
  bool wants_mask = false;
  for (const Step& s : p.steps) {
    if (s.kind == OpKind::kFusedAttention && s.use_mask) wants_mask = true;
  }
  const std::int64_t n = p.num_nodes;
  if (static_cast<std::int64_t>(state.win_lo.size()) < n) {
    state.win_lo.resize(static_cast<std::size_t>(n));
    state.win_hi.resize(static_cast<std::size_t>(n));
  }
  state.chunk_start.resize(static_cast<std::size_t>(n) + 1);
  state.chunk_bounds.clear();
  state.chunk_start[0] = 0;
  if (wants_mask && in.mask != nullptr) {
    const float* m = in.mask->data().data();
    for (std::int64_t i = 0; i < n; ++i) {
      const float* mrow = m + i * n;
      std::int64_t j = 0;
      while (j < n) {
        while (j < n && mrow[j] < kNegInfCut) ++j;
        if (j >= n) break;
        const std::int64_t lo = j;
        while (j < n && mrow[j] >= kNegInfCut) ++j;
        state.chunk_bounds.push_back(static_cast<std::int32_t>(lo));
        state.chunk_bounds.push_back(static_cast<std::int32_t>(j));
      }
      const std::int32_t end = static_cast<std::int32_t>(state.chunk_bounds.size() / 2);
      const std::int32_t begin = state.chunk_start[static_cast<std::size_t>(i)];
      state.chunk_start[static_cast<std::size_t>(i) + 1] = end;
      // Row window = hull of the row's runs (empty rows keep lo == hi == n,
      // matching the historical two-ended scan).
      if (end > begin) {
        state.win_lo[static_cast<std::size_t>(i)] = state.chunk_bounds[2 * begin];
        state.win_hi[static_cast<std::size_t>(i)] = state.chunk_bounds[2 * end - 1];
      } else {
        state.win_lo[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(n);
        state.win_hi[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(n);
      }
    }
  } else {
    std::fill(state.win_lo.begin(), state.win_lo.begin() + n, 0);
    std::fill(state.win_hi.begin(), state.win_hi.begin() + n,
              static_cast<std::int32_t>(p.num_nodes));
    for (std::int64_t i = 0; i < n; ++i) {
      state.chunk_bounds.push_back(0);
      state.chunk_bounds.push_back(static_cast<std::int32_t>(n));
      state.chunk_start[static_cast<std::size_t>(i) + 1] =
          static_cast<std::int32_t>(i) + 1;
    }
  }
  // Merge each GEMM row block's runs at packed-panel granularity: the
  // logits GEMM computes only these column ranges (a panel in a gap is
  // provably outside every block row's open runs).
  const std::int64_t blocks = (n + tensor::kGemmMr - 1) / tensor::kGemmMr;
  state.brun_start.resize(static_cast<std::size_t>(blocks) + 1);
  state.brun_bounds.clear();
  state.brun_start[0] = 0;
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t r0 = b * tensor::kGemmMr;
    const std::int64_t r1 = std::min<std::int64_t>(n, r0 + tensor::kGemmMr);
    auto& runs = state.brun_scratch;
    runs.clear();
    for (std::int64_t i = r0; i < r1; ++i) {
      for (std::int32_t c = state.chunk_start[static_cast<std::size_t>(i)];
           c < state.chunk_start[static_cast<std::size_t>(i) + 1]; ++c) {
        const std::int32_t lo =
            state.chunk_bounds[2 * c] / tensor::kGemmPanel * tensor::kGemmPanel;
        const std::int32_t hi = static_cast<std::int32_t>(std::min<std::int64_t>(
            n, (state.chunk_bounds[2 * c + 1] + tensor::kGemmPanel - 1) /
                   tensor::kGemmPanel * tensor::kGemmPanel));
        runs.push_back(lo);
        runs.push_back(hi);
      }
    }
    // Sort run pairs by lo, then sweep-merge overlapping/adjacent ranges.
    const std::int64_t pairs = static_cast<std::int64_t>(runs.size()) / 2;
    for (std::int64_t a = 1; a < pairs; ++a) {  // insertion sort; runs are few
      const std::int32_t lo = runs[2 * a], hi = runs[2 * a + 1];
      std::int64_t t = a - 1;
      while (t >= 0 && runs[2 * t] > lo) {
        runs[2 * t + 2] = runs[2 * t];
        runs[2 * t + 3] = runs[2 * t + 1];
        --t;
      }
      runs[2 * t + 2] = lo;
      runs[2 * t + 3] = hi;
    }
    for (std::int64_t a = 0; a < pairs; ++a) {
      const std::int32_t lo = runs[2 * a], hi = runs[2 * a + 1];
      const std::size_t sz = state.brun_bounds.size();
      if (sz > state.brun_start[static_cast<std::size_t>(b)] * 2ull &&
          lo <= state.brun_bounds[sz - 1]) {
        state.brun_bounds[sz - 1] = std::max(state.brun_bounds[sz - 1], hi);
      } else {
        state.brun_bounds.push_back(lo);
        state.brun_bounds.push_back(hi);
      }
    }
    state.brun_start[static_cast<std::size_t>(b) + 1] =
        static_cast<std::int32_t>(state.brun_bounds.size() / 2);
  }
}

/// Mask-aware fused attention: combined q|k|v projection, per-head windowed
/// logits GEMM, deferred softmax restricted to each row's open-lane window,
/// and a k-windowed weights*V GEMM written straight into the head's column
/// block of the output. Lanes outside a row's window are provably -inf
/// masked, so their weights are exact zeros and skipping them leaves every
/// surviving accumulation term bit-identical.
void RunFusedAttention(const InferProgram& p, const Step& s,
                       const InferProgram::Snapshot& snap, const float* x, float* y,
                       float* scratch, const MaskRuns& state) {
  const nn::MultiheadMaskedAttention& at = *s.attn;
  const std::int64_t n = p.num_nodes;
  const std::int64_t d = at.Dim();
  const std::int64_t hd = at.HeadDim();
  const std::int64_t d3 = 3 * d;
  const InferProgram::AttnSnap& as = snap.attn[static_cast<std::size_t>(s.aux)];

  float* qkv = scratch;
  float* logits = qkv + n * d3;
  float* invs = logits + n * n;
  float* packbuf = invs + n;

  tensor::MatMulPackedViewStridedInto(x, n, d, tensor::ViewOf(as.qkv), qkv, d3);
  tensor::fused::BiasActRows(qkv, n, d3, d3, as.bias.data(), tensor::fused::Act::kNone);
  // Fold 1/sqrt(dk) into the q columns (post-bias, exactly like the
  // recorded Scale step on the q projection and the tape's attention node,
  // which scales each query row before its logits).
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = qkv + i * d3;
    for (std::int64_t j = 0; j < d; ++j) row[j] *= s.scalar;
  }

  const std::int32_t* wlo = state.win_lo.data();
  const std::int32_t* whi = state.win_hi.data();
  const std::int32_t* cstart = state.chunk_start.data();
  const std::int32_t* cbounds = state.chunk_bounds.data();
  const std::int32_t* bstart = state.brun_start.data();
  const std::int32_t* bbounds = state.brun_bounds.data();

  for (std::int64_t h = 0; h < at.Heads(); ++h) {
    const std::int64_t off = h * hd;
    // logits = q_h k_h^T over each row block's merged panel runs (the chunked
    // softmax never reads the gaps between runs).
    tensor::PackBTransposedIntoBuf(qkv + d + off, hd, n, packbuf, d3);
    const tensor::PackedBView kview{packbuf, hd, n};
    for (std::int64_t i = 0; i < n; i += tensor::kGemmMr) {
      const int mr = static_cast<int>(std::min<std::int64_t>(tensor::kGemmMr, n - i));
      const std::int64_t b = i / tensor::kGemmMr;
      for (std::int32_t r = bstart[b]; r < bstart[b + 1]; ++r) {
        tensor::PackedViewTile(qkv + i * d3 + off, d3, kview, logits + i * n, n, mr,
                               bbounds[2 * r], bbounds[2 * r + 1], 0, hd);
      }
    }
    for (std::int64_t i = 0; i < n; ++i) {
      tensor::fused::DeferredSoftmaxRowChunks(logits + i * n, logits + i * n, n,
                                              cbounds + 2 * cstart[i],
                                              cstart[i + 1] - cstart[i], &invs[i]);
    }
    // y[:, off:off+hd] = weights * v_h, restricted to each block's union of
    // open k lanes (the zeroed lanes outside contribute exact zeros anyway).
    tensor::PackBIntoBuf(qkv + 2 * d + off, n, hd, packbuf, d3);
    const tensor::PackedBView vview{packbuf, n, hd};
    for (std::int64_t i = 0; i < n; i += tensor::kGemmMr) {
      const int mr = static_cast<int>(std::min<std::int64_t>(tensor::kGemmMr, n - i));
      std::int64_t blo = n, bhi = 0;
      for (int r = 0; r < mr; ++r) {
        blo = std::min<std::int64_t>(blo, wlo[i + r]);
        bhi = std::max<std::int64_t>(bhi, whi[i + r]);
      }
      tensor::PackedViewTile(logits + i * n, n, vview, y + i * d + off, d, mr, 0, hd,
                             std::min(blo, bhi), bhi);
    }
    for (std::int64_t i = 0; i < n; ++i) {
      const float inv = invs[i];
      float* row = y + i * d + off;
      for (std::int64_t j = 0; j < hd; ++j) row[j] *= inv;
    }
  }
}

/// Unfused attention heads at the shape classes the fuser declines. The
/// tape's counterpart is the fused autograd::MaskedAttention node
/// (tensor/attention.h). When both per-head GEMMs take the packed tier the
/// strided-deferred branch reads each head's columns in place and defers
/// softmax normalization to the (n, head_dim) output; otherwise the
/// slice-based branch materializes each head's slices, runs
/// tensor::MatMul's packed/narrow/naive tier order per GEMM and normalizes
/// the softmax in place, the node's exact per-row sequence, so the two are
/// bit-identical there. Both fold 1/sqrt(dk) into q (the recorded Scale
/// step). Head outputs land directly in their column block of `y`.
void RunAttnHeads(const InferProgram& p, const Step& s, const ExecInputs& in,
                  const float* q, const float* k, const float* v, float* y,
                  float* scratch) {
  const nn::MultiheadMaskedAttention& at = *s.attn;
  const std::int64_t n = p.num_nodes;
  const std::int64_t d = at.Dim();
  const std::int64_t hd = at.HeadDim();
  const float* mask =
      (s.use_mask && in.mask != nullptr) ? in.mask->data().data() : nullptr;

  if (tensor::UsePackedGemm(n, hd, n) && tensor::UsePackedGemm(n, n, hd)) {
    // Strided fast branch: per-head packs read q/k/v columns in place and the
    // softmax defers normalization to the (n, hd) output.
    float* logits = scratch;
    float* weights = logits + n * n;  // kept apart so the retry rereads logits
    float* maxes = weights + n * n;
    float* invs = maxes + n;
    float* packbuf = invs + n;
    for (std::int64_t h = 0; h < at.Heads(); ++h) {
      const std::int64_t off = h * hd;
      tensor::PackBTransposedIntoBuf(k + off, hd, n, packbuf, d);
      tensor::MatMulPackedViewStridedInto(q + off, n, d, {packbuf, hd, n}, logits, n);
      // Deferred softmax: unmasked row max as the exp shift (two separate
      // streaming phases), masked-max retry on underflow.
      for (std::int64_t i = 0; i < n; ++i) {
        maxes[i] = tensor::simd::MaskedRowMax(logits + i * n, nullptr, n);
      }
      for (std::int64_t i = 0; i < n; ++i) {
        const float* lrow = logits + i * n;
        const float* mrow = mask != nullptr ? mask + i * n : nullptr;
        float* orow = weights + i * n;
        const float total =
            tensor::simd::ExpShiftedNonPositiveSumN(lrow, mrow, maxes[i], orow, n);
        invs[i] = total > 0.0f
                      ? 1.0f / total
                      : tensor::fused::MaskedSoftmaxRetryRow(lrow, mrow, orow, n);
      }
      tensor::PackBIntoBuf(v + off, n, hd, packbuf, d);
      tensor::MatMulPackedViewStridedInto(weights, n, n, {packbuf, n, hd}, y + off, d);
      for (std::int64_t i = 0; i < n; ++i) {
        const float inv = invs[i];
        float* row = y + i * d + off;
        for (std::int64_t j = 0; j < hd; ++j) row[j] *= inv;
      }
    }
    return;
  }

  // Slice-based branch: materialized per-head slices, normalized masked
  // softmax, tensor::MatMul tier dispatch per GEMM.
  float* qh = scratch;
  float* kh = qh + n * hd;
  float* vh = kh + n * hd;
  float* logits = vh + n * hd;
  float* tmp = logits + n * n;  // materialized transposes for naive/narrow tiers
  float* packbuf = tmp + n * hd;
  for (std::int64_t h = 0; h < at.Heads(); ++h) {
    const std::int64_t off = h * hd;
    for (std::int64_t i = 0; i < n; ++i) {
      std::memcpy(qh + i * hd, q + i * d + off, static_cast<std::size_t>(hd) * sizeof(float));
      std::memcpy(kh + i * hd, k + i * d + off, static_cast<std::size_t>(hd) * sizeof(float));
      std::memcpy(vh + i * hd, v + i * d + off, static_cast<std::size_t>(hd) * sizeof(float));
    }
    // logits = qh * kh^T (m=n, k=hd, n=n).
    if (tensor::UsePackedGemm(n, hd, n)) {
      tensor::PackBTransposedIntoBuf(kh, hd, n, packbuf, hd);
      tensor::MatMulPackedViewStridedInto(qh, n, hd, {packbuf, hd, n}, logits, n);
    } else if (tensor::UseNarrowGemm(hd, n)) {
      // Narrow tier: B is kh^T, whose transpose is kh itself — Dot over hd.
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          logits[i * n + j] = tensor::simd::Dot(qh + i * hd, kh + j * hd, hd);
        }
      }
    } else {
      // Naive i-k-j against a materialized kh^T (hd, n), zero-skip like
      // tensor::MatMulNaive.
      for (std::int64_t kk = 0; kk < hd; ++kk) {
        for (std::int64_t i = 0; i < n; ++i) tmp[kk * n + i] = kh[i * hd + kk];
      }
      std::fill(logits, logits + n * n, 0.0f);
      tensor::GemmNaiveAccumulate(qh, hd, tmp, n, logits, n, n, hd, n);
    }
    // attn = masked row softmax, normalized in place (tensor::RowSoftmax's
    // pass structure; lane-wise, so in-place is safe).
    for (std::int64_t i = 0; i < n; ++i) {
      float* lrow = logits + i * n;
      const float* mrow = mask != nullptr ? mask + i * n : nullptr;
      const float maxv = tensor::simd::MaskedRowMax(lrow, mrow, n);
      if (maxv < kNegInfCut) {  // fully masked row
        std::fill(lrow, lrow + n, 0.0f);
        continue;
      }
      tensor::simd::ExpShiftedNonPositiveN(lrow, mrow, maxv, lrow, n);
      const float inv = 1.0f / tensor::simd::Sum(lrow, n);
      for (std::int64_t j = 0; j < n; ++j) lrow[j] *= inv;
    }
    // y[:, off:off+hd] = attn * vh (m=n, k=n, n=hd).
    if (tensor::UsePackedGemm(n, n, hd)) {
      tensor::PackBIntoBuf(vh, n, hd, packbuf, hd);
      tensor::MatMulPackedViewStridedInto(logits, n, n, {packbuf, n, hd}, y + off, d);
    } else if (tensor::UseNarrowGemm(n, hd)) {
      // Narrow tier: Dot over the long k dimension against vh^T.
      for (std::int64_t kk = 0; kk < n; ++kk) {
        for (std::int64_t j = 0; j < hd; ++j) tmp[j * n + kk] = vh[kk * hd + j];
      }
      for (std::int64_t i = 0; i < n; ++i) {
        float* row = y + i * d + off;
        for (std::int64_t j = 0; j < hd; ++j) {
          row[j] = tensor::simd::Dot(logits + i * n, tmp + j * n, n);
        }
      }
    } else {
      for (std::int64_t i = 0; i < n; ++i) {
        std::fill(y + i * d + off, y + i * d + off + hd, 0.0f);
      }
      tensor::GemmNaiveAccumulate(logits, n, vh, hd, y + off, d, n, n, hd);
    }
  }
}

void RunSegmentSoftmax(const InferProgram& p, const ExecInputs& in, const float* x,
                       std::int64_t rows, std::int64_t cols, float* y, float* scratch) {
  // Mirror of autograd::SegmentSoftmax: per-segment max, exp + denominator,
  // normalize (same std::exp, same pass structure).
  const std::vector<std::int32_t>& seg = in.g->edge_dst;
  const std::int64_t n = p.num_nodes;
  float* maxv = scratch;
  float* denom = scratch + n * cols;
  std::fill(maxv, maxv + n * cols, -std::numeric_limits<float>::infinity());
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t s = seg[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) {
      maxv[s * cols + j] = std::max(maxv[s * cols + j], x[i * cols + j]);
    }
  }
  std::fill(denom, denom + n * cols, 0.0f);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t s = seg[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(x[i * cols + j] - maxv[s * cols + j]);
      y[i * cols + j] = e;
      denom[s * cols + j] += e;
    }
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t s = seg[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) y[i * cols + j] /= denom[s * cols + j];
  }
}

/// Operand `v` of a step: the caller's inputs for externals, else its block
/// of the plan buffer at the planner's fixed offset.
const float* Operand(const InferProgram& p, const ExecInputs& in, const float* base,
                     ValueId v) {
  if (v == kNoValue) return nullptr;
  switch (p.values[static_cast<std::size_t>(v)].external) {
    case External::kFeatures: return in.g->features.data().data();
    case External::kDepthPe: return in.pe;
    case External::kNone: break;
  }
  return base + p.offsets[static_cast<std::size_t>(v)];
}

/// Execute step `si` of `p` against the plan buffer `base`. `scratch` must
/// hold p.scratch_floats floats.
void RunStep(const InferProgram& p, std::size_t si, const InferProgram::Snapshot& snap,
             const ExecInputs& in, float* base, float* scratch, const MaskRuns& runs) {
  const Step& s = p.steps[si];
  const std::int64_t rows = p.values[static_cast<std::size_t>(s.out)].rows;
  const std::int64_t cols = p.values[static_cast<std::size_t>(s.out)].cols;
  const float* in_a = Operand(p, in, base, s.a);
  const float* in_b = Operand(p, in, base, s.b);
  const float* in_c = Operand(p, in, base, s.c);
  float* res = base + p.offsets[static_cast<std::size_t>(s.out)];
  const graph::EncodedGraph& g = *in.g;
  switch (s.kind) {
    case OpKind::kLinear:
    case OpKind::kLinearAct: {
      LinearGemm(s, snap.lin[si], in_a, rows, res);
      tensor::fused::BiasActRows(res, rows, cols, cols, LinearBias(s), s.act);
      break;
    }
    case OpKind::kLinearResidualNorm: {
      float* y = res;
      LinearGemm(s, snap.lin[si], in_a, rows, y);
      const float* bias = LinearBias(s);
      const float* r = in_b;
      const float* gain = s.gain->value().data().data();
      const float* beta = s.bias->value().data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        float* row = y + i * cols;
        const float* rrow = r + i * cols;
        // Same per-element order as the unfused chain: (+bias), +residual,
        // then the LayerNorm row kernel in place.
        if (bias != nullptr) {
          for (std::int64_t j = 0; j < cols; ++j) row[j] = (row[j] + bias[j]) + rrow[j];
        } else {
          for (std::int64_t j = 0; j < cols; ++j) row[j] += rrow[j];
        }
        tensor::fused::LayerNormRow(row, gain, beta, row, cols);
      }
      break;
    }
    case OpKind::kFusedAttention:
      RunFusedAttention(p, s, snap, in_a, res, scratch, runs);
      break;
    case OpKind::kScale: {
      float* a = res;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) a[i] *= s.scalar;
      break;
    }
    case OpKind::kAdd: {
      float* a = res;
      const float* b = in_b;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) a[i] += b[i];
      break;
    }
    case OpKind::kRelu: {
      float* a = res;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
      break;
    }
    case OpKind::kLeakyRelu: {
      float* a = res;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) {
        a[i] = a[i] > 0.0f ? a[i] : s.scalar * a[i];
      }
      break;
    }
    case OpKind::kLayerNorm: {
      const float* x = in_a;
      float* y = res;
      const float* gain = s.gain->value().data().data();
      const float* beta = s.bias->value().data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        tensor::fused::LayerNormRow(x + i * cols, gain, beta, y + i * cols, cols);
      }
      break;
    }
    case OpKind::kAttnHeads:
      RunAttnHeads(p, s, in, in_a, in_b, in_c, res, scratch);
      break;
    case OpKind::kSpmm: {
      const tensor::Csr& a = *g.adj_norm;
      const float* x = in_a;
      float* y = res;
      std::fill(y, y + rows * cols, 0.0f);
      for (std::int64_t i = 0; i < a.rows; ++i) {
        float* yrow = y + i * cols;
        for (std::int64_t e = a.row_ptr[static_cast<std::size_t>(i)];
             e < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
          const float av = a.values[static_cast<std::size_t>(e)];
          const float* xrow =
              x + static_cast<std::int64_t>(a.col_idx[static_cast<std::size_t>(e)]) * cols;
          for (std::int64_t j = 0; j < cols; ++j) yrow[j] += av * xrow[j];
        }
      }
      break;
    }
    case OpKind::kPool: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const float* x = in_a;
      float* y = res;
      std::fill(y, y + cols, 0.0f);
      for (std::int64_t i = 0; i < av.rows; ++i) {
        const float* xrow = x + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) y[j] += xrow[j];
      }
      break;
    }
    case OpKind::kConcat2: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const ValueInfo& bv = p.values[static_cast<std::size_t>(s.b)];
      const float* a = in_a;
      const float* b = in_b;
      float* y = res;
      for (std::int64_t i = 0; i < rows; ++i) {
        std::memcpy(y + i * cols, a + i * av.cols,
                    static_cast<std::size_t>(av.cols) * sizeof(float));
        std::memcpy(y + i * cols + av.cols, b + i * bv.cols,
                    static_cast<std::size_t>(bv.cols) * sizeof(float));
      }
      break;
    }
    case OpKind::kMatVec: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const std::int64_t k = av.cols;
      const float* x = in_a;
      const float* vec = s.gain->value().data().data();
      float* y = res;
      if (k >= 16) {
        // tensor::MatMul's narrow-output tier (n == 1 < 16, k >= 16).
        for (std::int64_t i = 0; i < rows; ++i) {
          y[i] = tensor::simd::Dot(x + i * k, vec, k);
        }
      } else {
        // Mirror the naive tier's sequential ascending-k accumulation.
        for (std::int64_t i = 0; i < rows; ++i) {
          const float* xrow = x + i * k;
          float acc = 0.0f;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            if (xrow[kk] == 0.0f) continue;
            acc += xrow[kk] * vec[kk];
          }
          y[i] = acc;
        }
      }
      break;
    }
    case OpKind::kEdgeScores: {
      const float* ss = in_a;
      const float* ds = in_b;
      float* y = res;
      const std::vector<std::int32_t>& src = g.edge_src;
      const std::vector<std::int32_t>& dst = g.edge_dst;
      for (std::int64_t e = 0; e < rows; ++e) {
        y[e] = ss[src[static_cast<std::size_t>(e)]] + ds[dst[static_cast<std::size_t>(e)]];
      }
      break;
    }
    case OpKind::kSegmentSoftmax:
      RunSegmentSoftmax(p, in, in_a, rows, cols, res, scratch);
      break;
    case OpKind::kGatherRows: {
      const float* x = in_a;
      float* y = res;
      const std::vector<std::int32_t>& idx = s.edge_sel == 0 ? g.edge_src : g.edge_dst;
      for (std::int64_t e = 0; e < rows; ++e) {
        std::memcpy(y + e * cols, x + idx[static_cast<std::size_t>(e)] * cols,
                    static_cast<std::size_t>(cols) * sizeof(float));
      }
      break;
    }
    case OpKind::kRowScale: {
      float* x = res;
      const float* sc = in_b;
      for (std::int64_t i = 0; i < rows; ++i) {
        float* row = x + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) row[j] *= sc[i];
      }
      break;
    }
    case OpKind::kSegmentSum: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const float* x = in_a;
      float* y = res;
      std::fill(y, y + rows * cols, 0.0f);
      const std::vector<std::int32_t>& seg = g.edge_dst;
      for (std::int64_t e = 0; e < av.rows; ++e) {
        const float* xrow = x + e * cols;
        float* yrow = y + seg[static_cast<std::size_t>(e)] * cols;
        for (std::int64_t j = 0; j < cols; ++j) yrow[j] += xrow[j];
      }
      break;
    }
    case OpKind::kAddRowVector: {
      float* x = res;
      const float* bias = s.gain->value().data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        float* row = x + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) row[j] += bias[j];
      }
      break;
    }
  }
}

}  // namespace

std::int64_t ThreadPlanBufferFloats() noexcept {
  return static_cast<std::int64_t>(ThreadExecState().buf.size());
}

bool Execute(const InferProgram& p, const ExecInputs& in, float* out) {
  if (out == nullptr || !ValidateInputs(p, in)) return false;

  ExecState& state = ThreadExecState();
  const std::int64_t need = p.PlanFloats();
  if (static_cast<std::int64_t>(state.buf.size()) < need) {
    state.buf.resize(static_cast<std::size_t>(need));
  }
  float* base = state.buf.data();
  float* scratch = base + p.arena_floats;

  // Per-row open-lane windows of the reachability mask, shared by every
  // attention step (the mask is identical across layers and heads). A lane
  // outside [lo, hi) is -inf masked; lanes inside may still be masked and
  // are handled by the windowed softmax.
  if (NeedsMaskRuns(p)) BuildMaskRuns(p, in, state.runs);

  const auto snap = p.CurrentSnapshot();
  for (std::size_t si = 0; si < p.steps.size(); ++si) {
    RunStep(p, si, *snap, in, base, scratch, state.runs);
  }

  *out = base[p.offsets[static_cast<std::size_t>(p.output)]];
  return true;
}

}  // namespace predtop::compile
