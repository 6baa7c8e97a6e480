#include "tensor/attention.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/simd.h"

namespace predtop::tensor {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr float kNegInfCut = -1e30f;

/// out[j] = sum over c < rows of a[c] * b[c * n + j], for j in [0, n): each
/// lane a chain of FMAs in ascending c from zero, the per-lane order of the
/// packed GEMM tier, register-blocked over 32 lanes.
void CombineRows(const float* a, std::int64_t rows, const float* b, std::int64_t n,
                 float* out) noexcept {
  std::int64_t j = 0;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  using simd::F8;
  const auto load = [](const float* p) {
    F8 v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  const auto store = [out](F8 v, std::int64_t at) { std::memcpy(out + at, &v, sizeof v); };
  for (; j + 32 <= n; j += 32) {
    F8 acc0 = simd::Broadcast(0.0f), acc1 = acc0, acc2 = acc0, acc3 = acc0;
    for (std::int64_t c = 0; c < rows; ++c) {
      const F8 ac = simd::Broadcast(a[c]);
      const float* bc = b + c * n + j;
      acc0 += ac * load(bc);
      acc1 += ac * load(bc + 8);
      acc2 += ac * load(bc + 16);
      acc3 += ac * load(bc + 24);
    }
    store(acc0, j);
    store(acc1, j + 8);
    store(acc2, j + 16);
    store(acc3, j + 24);
  }
  for (; j + 8 <= n; j += 8) {
    F8 acc = simd::Broadcast(0.0f);
    for (std::int64_t c = 0; c < rows; ++c) acc += simd::Broadcast(a[c]) * load(b + c * n + j);
    store(acc, j);
  }
#endif
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (std::int64_t c = 0; c < rows; ++c) acc += a[c] * b[c * n + j];
    out[j] = acc;
  }
}

/// row[j] = -inf for every lane j < n whose open bit is clear.
void CloseLanes(const std::uint64_t* bits, std::int64_t n, float* row) noexcept {
  std::int64_t j = 0;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  using simd::F8;
  using simd::I8;
  const I8 lane_bit{1, 2, 4, 8, 16, 32, 64, 128};
  for (; j + 8 <= n; j += 8) {
    const auto byte = static_cast<std::int32_t>((bits[j / 64] >> (j % 64)) & 0xffULL);
    if (byte == 0xff) continue;
    F8 x;
    std::memcpy(&x, row + j, sizeof x);
    const I8 open = ((I8{} + byte) & lane_bit) != 0;
    x = open ? x : simd::Broadcast(kNegInf);
    std::memcpy(row + j, &x, sizeof x);
  }
#endif
  for (; j < n; ++j) {
    if (((bits[j / 64] >> (j % 64)) & 1ULL) == 0) row[j] = kNegInf;
  }
}

/// dst (cols, rows) = src (rows, cols)^T.
void TransposeInto(const float* __restrict src, std::int64_t rows, std::int64_t cols,
                   float* __restrict dst) noexcept {
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + i] = src[i * cols + c];
  }
}

/// Per-thread scratch: the transposed (dim, n) K / V panels, their gradient
/// panels, and two n-long rows. Sized by the largest call seen on the thread.
struct Scratch {
  std::vector<float> kt, vt, dkt, dvt, row, drow, qs;
};

Scratch& ThreadScratch(AttentionShape shape, bool backward) {
  thread_local Scratch s;
  const auto panel = static_cast<std::size_t>(shape.Dim() * shape.n);
  s.kt.resize(panel);
  s.vt.resize(panel);
  if (backward) {
    s.dkt.assign(panel, 0.0f);
    s.dvt.assign(panel, 0.0f);
    s.drow.resize(static_cast<std::size_t>(shape.n));
  }
  s.row.resize(static_cast<std::size_t>(shape.n));
  s.qs.resize(static_cast<std::size_t>(shape.head_dim));
  return s;
}

/// Row i's logits for head h, scale * (q_i . k_j) with closed lanes at -inf,
/// into s.row; the scaled query stays in s.qs for dk. Each logit accumulates
/// in the order of the tier tensor::MatMul picks for (n, head_dim) x
/// (head_dim, n), the tier the compiled executor's unfused attention runs:
/// ascending-k FMA chains when packed, one simd::Dot per key when narrow,
/// GemmNaiveAccumulate otherwise.
void HeadLogits(const float* q, const float* k, AttentionShape shape, const AttentionMask& mask,
                float scale, std::int64_t i, std::int64_t h, Scratch& s) noexcept {
  const std::int64_t n = shape.n, d = shape.Dim(), hd = shape.head_dim;
  const float* qi = q + i * d + h * hd;
  float* row = s.row.data();
  for (std::int64_t c = 0; c < hd; ++c) s.qs[static_cast<std::size_t>(c)] = qi[c] * scale;
  if (UsePackedGemm(n, hd, n)) {
    CombineRows(s.qs.data(), hd, s.kt.data() + h * hd * n, n, row);
  } else if (UseNarrowGemm(hd, n)) {
    for (std::int64_t j = 0; j < n; ++j) row[j] = simd::Dot(s.qs.data(), k + j * d + h * hd, hd);
  } else {
    std::fill(row, row + n, 0.0f);
    GemmNaiveAccumulate(s.qs.data(), hd, s.kt.data() + h * hd * n, n, row, n, 1, hd, n);
  }
  CloseLanes(mask.Row(i), n, row);
}

void RequireMask(const AttentionMask& mask, AttentionShape shape) {
  if (mask.NumNodes() != shape.n) {
    throw std::invalid_argument("MaskedAttention: mask must be (n, n)");
  }
}

}  // namespace

AttentionMask AttentionMask::FromAdditive(const Tensor& additive_mask) {
  if (additive_mask.rank() != 2 || additive_mask.dim(0) != additive_mask.dim(1)) {
    throw std::invalid_argument("AttentionMask: additive mask must be (n, n)");
  }
  AttentionMask out;
  out.n_ = additive_mask.dim(0);
  out.words_ = (out.n_ + 63) / 64;
  out.bits_.assign(static_cast<std::size_t>(out.n_ * out.words_), 0ULL);
  const float* pm = additive_mask.data().data();
  for (std::int64_t i = 0; i < out.n_; ++i) {
    std::uint64_t* row = out.bits_.data() + i * out.words_;
    for (std::int64_t j = 0; j < out.n_; ++j) {
      const float m = pm[i * out.n_ + j];
      if (m == 0.0f) {
        row[j / 64] |= 1ULL << (j % 64);
      } else if (m != kNegInf) {
        throw std::invalid_argument("AttentionMask: additive mask entries must be 0 or -inf");
      }
    }
  }
  return out;
}

AttentionMask AttentionMask::AllOpen(std::int64_t n) {
  AttentionMask out;
  out.n_ = n;
  out.words_ = (n + 63) / 64;
  out.bits_.assign(static_cast<std::size_t>(n * out.words_), ~0ULL);
  return out;
}

void MaskedAttentionForward(const float* q, const float* k, const float* v,
                            AttentionShape shape, const AttentionMask& mask, float scale,
                            float* out, float* row_max, float* row_inv) {
  RequireMask(mask, shape);
  const std::int64_t n = shape.n, d = shape.Dim(), hd = shape.head_dim;
  if (n == 0) return;
  Scratch& s = ThreadScratch(shape, /*backward=*/false);
  TransposeInto(k, n, d, s.kt.data());
  TransposeInto(v, n, d, s.vt.data());
  float* p = s.row.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t h = 0; h < shape.heads; ++h) {
      float* oi = out + i * d + h * hd;
      HeadLogits(q, k, shape, mask, scale, i, h, s);
      const float maxv = simd::MaskedRowMax(p, nullptr, n);
      row_max[h * n + i] = maxv;
      if (maxv < kNegInfCut) {  // no open lane
        std::fill(oi, oi + hd, 0.0f);
        row_inv[h * n + i] = 0.0f;
        continue;
      }
      // tensor::RowSoftmax's passes (exp, Sum, normalize), then P.V: one
      // simd::Dot per column at tensor::MatMul's narrow tier, ascending-j
      // accumulation otherwise. The compiled executor's slice-based attention
      // runs this exact sequence, which keeps whole-model compiled-vs-tape
      // parity inside its 1e-6 contract.
      simd::ExpShiftedNonPositiveN(p, nullptr, maxv, p, n);
      const float inv = 1.0f / simd::Sum(p, n);
      row_inv[h * n + i] = inv;
      for (std::int64_t j = 0; j < n; ++j) p[j] *= inv;
      if (UseNarrowGemm(n, hd)) {
        const float* vh = s.vt.data() + h * hd * n;
        for (std::int64_t c = 0; c < hd; ++c) oi[c] = simd::Dot(p, vh + c * n, n);
      } else {
        std::fill(oi, oi + hd, 0.0f);
        GemmNaiveAccumulate(p, n, v + h * hd, d, oi, hd, 1, n, hd);
      }
    }
  }
}

void MaskedAttentionBackward(const float* q, const float* k, const float* v,
                             const float* out, const float* dout, AttentionShape shape,
                             const AttentionMask& mask, float scale, const float* row_max,
                             const float* row_inv, float* dq, float* dk, float* dv) {
  RequireMask(mask, shape);
  const std::int64_t n = shape.n, d = shape.Dim(), hd = shape.head_dim;
  if (n == 0) return;
  Scratch& s = ThreadScratch(shape, /*backward=*/true);
  TransposeInto(k, n, d, s.kt.data());
  TransposeInto(v, n, d, s.vt.data());
  float* p = s.row.data();
  float* ds = s.drow.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t h = 0; h < shape.heads; ++h) {
      const std::int64_t off = i * d + h * hd;
      const float inv = row_inv[h * n + i];
      if (inv == 0.0f) {
        std::fill(dq + off, dq + off + hd, 0.0f);
        continue;
      }
      // P_i, recomputed: the forward's logits, shift and exp, then 1/sum.
      HeadLogits(q, k, shape, mask, scale, i, h, s);
      simd::ExpShiftedNonPositiveN(p, nullptr, row_max[h * n + i], p, n);
      for (std::int64_t j = 0; j < n; ++j) p[j] *= inv;
      const float* doi = dout + off;
      const float di = simd::Dot(doi, out + off, hd);
      const float* vh = s.vt.data() + h * hd * n;
      const float* kh = s.kt.data() + h * hd * n;
      // dS_ij = P_ij (dout_i . v_j - D_i).
      CombineRows(doi, hd, vh, n, ds);
      for (std::int64_t j = 0; j < n; ++j) ds[j] = p[j] * (ds[j] - di);
      // dv_h^T += dout_i^T P_i and dk_h^T += (scale q_i)^T dS_i (rank-1).
      GemmNaiveAccumulate(doi, 1, p, n, s.dvt.data() + h * hd * n, n, hd, 1, n);
      for (std::int64_t c = 0; c < hd; ++c) dq[off + c] = scale * simd::Dot(ds, kh + c * n, n);
      GemmNaiveAccumulate(s.qs.data(), 1, ds, n, s.dkt.data() + h * hd * n, n, hd, 1, n);
    }
  }
  TransposeInto(s.dkt.data(), d, n, dk);
  TransposeInto(s.dvt.data(), d, n, dv);
}

}  // namespace predtop::tensor
