#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tensor/simd.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace predtop::tensor {

namespace {

void Require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

void Require2D(const Tensor& t, const char* msg) { Require(t.rank() == 2, msg); }

}  // namespace

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  Require2D(a, "MatMul: a must be 2-D");
  Require2D(b, "MatMul: b must be 2-D");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Require(b.dim(0) == k, "MatMul: inner dimension mismatch");
  Tensor c({m, n});
  const float* __restrict pa = a.data().data();
  const float* __restrict pb = b.data().data();
  float* __restrict pc = c.data().data();
  if (UseNarrowGemm(k, n)) {
    // Narrow outputs (per-head attention context, dW slices): the i-k-j
    // kernel's inner loop is too short to vectorize, so transpose B once and
    // use explicit-SIMD dot products over the long k dimension instead.
    const Tensor bt = Transpose2D(b);
    const float* __restrict pbt = bt.data().data();
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] = simd::Dot(arow, pbt + j * k, k);
    }
    return c;
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // masks/one-hots make zero rows common
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

void GemmNaiveAccumulate(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                         float* c, std::int64_t ldc, std::int64_t m, std::int64_t k,
                         std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* __restrict crow = c + i * ldc;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* __restrict brow = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

namespace {

// ---- packed GEMM: kGemmMr x kGemmPanel register-tiled micro-kernel ----
//
// The packed layout stores B panel-major (see ops.h), so the micro-kernel's
// inner loop is a pure stream: load two 8-wide vectors of B, broadcast one A
// scalar per row of the tile, and FMA into 2*MR vector accumulators that live
// in registers for the whole k loop. The tile is stored once at the end, so
// C needs no pre-zeroing and the kernel overwrites rather than accumulates.
// Each output element is accumulated in ascending-k order by exactly one
// thread, which keeps results bit-identical across dispatch tiers and thread
// counts (the threaded variant only partitions rows).

#ifdef PREDTOP_HAVE_VECTOR_EXT

template <int MR>
void MicroKernelPanel(const float* __restrict a, std::int64_t lda, const float* __restrict bp,
                      std::int64_t k, float* __restrict c, std::int64_t ldc) {
  simd::F8 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = simd::Broadcast(0.0f);
    acc1[r] = simd::Broadcast(0.0f);
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    simd::F8 b0, b1;
    std::memcpy(&b0, bp + kk * kGemmPanel, sizeof b0);
    std::memcpy(&b1, bp + kk * kGemmPanel + 8, sizeof b1);
    for (int r = 0; r < MR; ++r) {
      const simd::F8 av = simd::Broadcast(a[r * lda + kk]);
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  for (int r = 0; r < MR; ++r) {
    std::memcpy(c + r * ldc, &acc0[r], sizeof(simd::F8));
    std::memcpy(c + r * ldc + 8, &acc1[r], sizeof(simd::F8));
  }
}

#if defined(__AVX512F__)
/// 12x16 tile, the one AVX-512 builds run: one 16-float vector per panel row,
/// up to 12 accumulators. This halves the FMA instruction count per k step
/// against the 6x16 tile and fills the FMA pipeline from a single B load; per
/// output lane the accumulation sequence is identical to the 6x16 tile, so
/// results match it bit for bit.
template <int MR>
void MicroKernelPanelWide(const float* __restrict a, std::int64_t lda,
                          const float* __restrict bp, std::int64_t k,
                          float* __restrict c, std::int64_t ldc) {
  simd::F16 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = simd::Broadcast16(0.0f);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    simd::F16 b;
    std::memcpy(&b, bp + kk * kGemmPanel, sizeof b);
    for (int r = 0; r < MR; ++r) acc[r] += simd::Broadcast16(a[r * lda + kk]) * b;
  }
  for (int r = 0; r < MR; ++r) std::memcpy(c + r * ldc, &acc[r], sizeof(simd::F16));
}
#endif

#else  // scalar fallback for compilers without vector extensions

template <int MR>
void MicroKernelPanel(const float* __restrict a, std::int64_t lda, const float* __restrict bp,
                      std::int64_t k, float* __restrict c, std::int64_t ldc) {
  float acc[MR][kGemmPanel] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * kGemmPanel;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      for (int j = 0; j < kGemmPanel; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < MR; ++r) std::memcpy(c + r * ldc, acc[r], sizeof acc[r]);
}

#endif

#if defined(PREDTOP_HAVE_VECTOR_EXT) && defined(__AVX512F__)

void DispatchMicroKernel(int mr, const float* a, std::int64_t lda, const float* bp,
                         std::int64_t k, float* c, std::int64_t ldc) {
  switch (mr) {
    case 12: MicroKernelPanelWide<12>(a, lda, bp, k, c, ldc); break;
    case 11: MicroKernelPanelWide<11>(a, lda, bp, k, c, ldc); break;
    case 10: MicroKernelPanelWide<10>(a, lda, bp, k, c, ldc); break;
    case 9: MicroKernelPanelWide<9>(a, lda, bp, k, c, ldc); break;
    case 8: MicroKernelPanelWide<8>(a, lda, bp, k, c, ldc); break;
    case 7: MicroKernelPanelWide<7>(a, lda, bp, k, c, ldc); break;
    case 6: MicroKernelPanelWide<6>(a, lda, bp, k, c, ldc); break;
    case 5: MicroKernelPanelWide<5>(a, lda, bp, k, c, ldc); break;
    case 4: MicroKernelPanelWide<4>(a, lda, bp, k, c, ldc); break;
    case 3: MicroKernelPanelWide<3>(a, lda, bp, k, c, ldc); break;
    case 2: MicroKernelPanelWide<2>(a, lda, bp, k, c, ldc); break;
    default: MicroKernelPanelWide<1>(a, lda, bp, k, c, ldc); break;
  }
}

#else

void DispatchNarrow(int mr, const float* a, std::int64_t lda, const float* bp,
                    std::int64_t k, float* c, std::int64_t ldc) {
  switch (mr) {
    case 6: MicroKernelPanel<6>(a, lda, bp, k, c, ldc); break;
    case 5: MicroKernelPanel<5>(a, lda, bp, k, c, ldc); break;
    case 4: MicroKernelPanel<4>(a, lda, bp, k, c, ldc); break;
    case 3: MicroKernelPanel<3>(a, lda, bp, k, c, ldc); break;
    case 2: MicroKernelPanel<2>(a, lda, bp, k, c, ldc); break;
    default: MicroKernelPanel<1>(a, lda, bp, k, c, ldc); break;
  }
}

/// The 6x16 tile handles at most 6 rows; larger tiles split row-wise, which
/// leaves every output element's accumulation order untouched.
void DispatchMicroKernel(int mr, const float* a, std::int64_t lda, const float* bp,
                         std::int64_t k, float* c, std::int64_t ldc) {
  while (mr > 6) {
    DispatchNarrow(6, a, lda, bp, k, c, ldc);
    a += 6 * lda;
    c += 6 * ldc;
    mr -= 6;
  }
  DispatchNarrow(mr, a, lda, bp, k, c, ldc);
}

#endif

/// Rows [row_begin, row_end) of C = A * packed(B), with row strides lda/ldc
/// (the contiguous case passes b.k / b.n). row_begin must be a multiple of
/// kGemmMr (threaded chunks honor this) so tiles never straddle a partition
/// boundary.
void PackedRowRange(const float* __restrict a, std::int64_t lda, PackedBView b,
                    float* __restrict c, std::int64_t ldc, std::int64_t row_begin,
                    std::int64_t row_end) {
  const std::int64_t k = b.k, n = b.n;
  const std::int64_t num_panels = (n + kGemmPanel - 1) / kGemmPanel;
  const float* pb = b.data;
  for (std::int64_t i = row_begin; i < row_end; i += kGemmMr) {
    const int mr = static_cast<int>(std::min<std::int64_t>(kGemmMr, row_end - i));
    const float* ablock = a + i * lda;
    float* cblock = c + i * ldc;
    for (std::int64_t p = 0; p < num_panels; ++p) {
      const float* bp = pb + p * k * kGemmPanel;
      const std::int64_t j0 = p * kGemmPanel;
      const std::int64_t w = std::min<std::int64_t>(kGemmPanel, n - j0);
      if (w == kGemmPanel) {
        DispatchMicroKernel(mr, ablock, lda, bp, k, cblock + j0, ldc);
      } else {
        // Ragged last panel: compute the full zero-padded tile into scratch,
        // then copy only the live columns.
        float tmp[kGemmMr * kGemmPanel];
        DispatchMicroKernel(mr, ablock, lda, bp, k, tmp, kGemmPanel);
        for (int r = 0; r < mr; ++r) {
          std::memcpy(cblock + r * ldc + j0, tmp + r * kGemmPanel,
                      static_cast<std::size_t>(w) * sizeof(float));
        }
      }
    }
  }
}

/// Worker count the shared GEMM pool would be built with; reading it does not
/// construct the pool (UseThreadedGemm must stay cheap and noexcept).
std::size_t GemmThreadTarget() noexcept {
  static const std::size_t target = [] {
    const long env = util::EnvInt("PREDTOP_GEMM_THREADS", 0);
    if (env > 0) return static_cast<std::size_t>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return target;
}

/// m*k*n at which the packed GEMM fans row panels across the shared pool.
constexpr std::int64_t kGemmParMinElems = std::int64_t{4} << 20;  // 4Mi MACs

/// Shared process-wide pool for threaded GEMMs, built on first threaded
/// multiply. Serving-size forwards stay below the threading threshold, so the
/// pool never competes with PredictMany's own fan-out for those.
util::ThreadPool& GemmPool() {
  static util::ThreadPool pool(GemmThreadTarget());
  return pool;
}

}  // namespace

void PackBIntoBuf(const float* b, std::int64_t k, std::int64_t n, float* out,
                  std::int64_t ldb) {
  if (ldb < 0) ldb = n;
  const std::int64_t num_panels = (n + kGemmPanel - 1) / kGemmPanel;
  for (std::int64_t p = 0; p < num_panels; ++p) {
    const std::int64_t j0 = p * kGemmPanel;
    const std::int64_t w = std::min<std::int64_t>(kGemmPanel, n - j0);
    float* panel = out + p * k * kGemmPanel;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      std::memcpy(panel + kk * kGemmPanel, b + kk * ldb + j0,
                  static_cast<std::size_t>(w) * sizeof(float));
      for (std::int64_t j = w; j < kGemmPanel; ++j) panel[kk * kGemmPanel + j] = 0.0f;
    }
  }
}

void PackBInto(const float* b, std::int64_t k, std::int64_t n, PackedB& out,
               std::int64_t ldb) {
  out.k = k;
  out.n = n;
  out.data.resize(static_cast<std::size_t>(PackedBFloats(k, n)));
  PackBIntoBuf(b, k, n, out.data.data(), ldb);
}

PackedB PackB(const Tensor& b) {
  Require2D(b, "PackB: b must be 2-D");
  PackedB out;
  PackBInto(b.data().data(), b.dim(0), b.dim(1), out);
  return out;
}

void PackBTransposedIntoBuf(const float* bt, std::int64_t k, std::int64_t n, float* out,
                            std::int64_t ldb) {
  if (ldb < 0) ldb = k;
  const std::int64_t num_panels = (n + kGemmPanel - 1) / kGemmPanel;
  for (std::int64_t p = 0; p < num_panels; ++p) {
    const std::int64_t j0 = p * kGemmPanel;
    const std::int64_t w = std::min<std::int64_t>(kGemmPanel, n - j0);
    float* panel = out + p * k * kGemmPanel;
    if (w < kGemmPanel) {
      std::memset(panel, 0, static_cast<std::size_t>(k * kGemmPanel) * sizeof(float));
    }
    for (std::int64_t j = 0; j < w; ++j) {
      const float* src = bt + (j0 + j) * ldb;  // column j0+j of B is row j0+j of B^T
      for (std::int64_t kk = 0; kk < k; ++kk) panel[kk * kGemmPanel + j] = src[kk];
    }
  }
}

void PackBTransposedInto(const float* bt, std::int64_t k, std::int64_t n, PackedB& out,
                         std::int64_t ldb) {
  out.k = k;
  out.n = n;
  out.data.resize(static_cast<std::size_t>(PackedBFloats(k, n)));
  PackBTransposedIntoBuf(bt, k, n, out.data.data(), ldb);
}

std::size_t GemmThreads() noexcept { return GemmThreadTarget(); }

bool UsePackedGemm(std::int64_t m, std::int64_t k, std::int64_t n) noexcept {
  // Packing costs O(k*n); below ~256Ki multiply-accumulates the i-k-j kernel
  // wins. Narrow outputs stay on the simd::Dot path and short k gives the
  // micro-kernel nothing to stream. The floor is kGemmRowFloor, not kGemmMr:
  // tier selection must not move when the register tile height changes.
  if (n < kGemmPanel || k < 8 || m < kGemmRowFloor) return false;
  return m * k * n >= (std::int64_t{1} << 18);
}

bool UseThreadedGemm(std::int64_t m, std::int64_t k, std::int64_t n) noexcept {
  if (GemmThreadTarget() <= 1) return false;
  if (m < 4 * kGemmMr) return false;  // too few row tiles to split
  return m * k * n >= kGemmParMinElems;
}

void MatMulPackedStridedInto(const float* a, std::int64_t m, std::int64_t lda,
                             const PackedB& b, float* c, std::int64_t ldc,
                             bool allow_threads) {
  MatMulPackedViewStridedInto(a, m, lda, ViewOf(b), c, ldc, allow_threads);
}

void MatMulPackedViewStridedInto(const float* a, std::int64_t m, std::int64_t lda,
                                 PackedBView b, float* c, std::int64_t ldc,
                                 bool allow_threads) {
  if (m <= 0 || b.n <= 0) return;
  if (allow_threads && UseThreadedGemm(m, b.k, b.n)) {
    util::ThreadPool& pool = GemmPool();
    // Chunk rows in multiples of kGemmMr, ~2 chunks per worker (the caller
    // participates in ParallelFor) for load balance without tiny tasks.
    const std::int64_t row_blocks = (m + kGemmMr - 1) / kGemmMr;
    const std::int64_t target_tasks = static_cast<std::int64_t>(2 * (pool.ThreadCount() + 1));
    const std::int64_t chunk =
        std::max<std::int64_t>(1, (row_blocks + target_tasks - 1) / target_tasks) * kGemmMr;
    const std::size_t tasks = static_cast<std::size_t>((m + chunk - 1) / chunk);
    if (tasks > 1) {
      pool.ParallelFor(tasks, [&](std::size_t t) {
        const std::int64_t r0 = static_cast<std::int64_t>(t) * chunk;
        PackedRowRange(a, lda, b, c, ldc, r0, std::min<std::int64_t>(m, r0 + chunk));
      });
      return;
    }
  }
  PackedRowRange(a, lda, b, c, ldc, 0, m);
}

void MatMulPackedInto(const float* a, std::int64_t m, const PackedB& b, float* c,
                      bool allow_threads) {
  MatMulPackedStridedInto(a, m, b.k, b, c, b.n, allow_threads);
}

void PackedViewTile(const float* a, std::int64_t lda, PackedBView b, float* c,
                    std::int64_t ldc, int mr, std::int64_t col_begin, std::int64_t col_end,
                    std::int64_t k_begin, std::int64_t k_end) {
  if (mr <= 0 || col_end <= col_begin || b.n <= 0) return;
  col_begin = std::max<std::int64_t>(0, col_begin);
  col_end = std::min(col_end, b.n);
  k_begin = std::max<std::int64_t>(0, k_begin);
  k_end = std::min(k_end, b.k);
  const std::int64_t kw = k_end - k_begin;
  const std::int64_t p_begin = col_begin / kGemmPanel;
  const std::int64_t p_end = (col_end + kGemmPanel - 1) / kGemmPanel;
  for (std::int64_t p = p_begin; p < p_end; ++p) {
    // Panels store kGemmPanel floats per k step, so the k window is a simple
    // offset into the panel stream; skipped k lanes never enter the
    // accumulator (their weights are exact zeros in the masked callers).
    const float* bp = b.data + p * b.k * kGemmPanel + k_begin * kGemmPanel;
    const std::int64_t j0 = p * kGemmPanel;
    const std::int64_t w = std::min<std::int64_t>(kGemmPanel, b.n - j0);
    if (kw <= 0) {
      // Empty accumulation window: the tile is exactly zero.
      for (int r = 0; r < mr; ++r) {
        for (std::int64_t j = 0; j < w; ++j) c[r * ldc + j0 + j] = 0.0f;
      }
      continue;
    }
    const float* ablock = a + k_begin;
    if (w == kGemmPanel) {
      DispatchMicroKernel(mr, ablock, lda, bp, kw, c + j0, ldc);
    } else {
      float tmp[kGemmMr * kGemmPanel];
      DispatchMicroKernel(mr, ablock, lda, bp, kw, tmp, kGemmPanel);
      for (int r = 0; r < mr; ++r) {
        std::memcpy(c + r * ldc + j0, tmp + r * kGemmPanel,
                    static_cast<std::size_t>(w) * sizeof(float));
      }
    }
  }
}

Tensor MatMulPacked(const Tensor& a, const PackedB& b, bool allow_threads) {
  Require2D(a, "MatMulPacked: a must be 2-D");
  Require(a.dim(1) == b.k, "MatMulPacked: inner dimension mismatch");
  Tensor c({a.dim(0), b.n});
  MatMulPackedInto(a.data().data(), a.dim(0), b, c.data().data(), allow_threads);
  return c;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Require2D(a, "MatMul: a must be 2-D");
  Require2D(b, "MatMul: b must be 2-D");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Require(b.dim(0) == k, "MatMul: inner dimension mismatch");
  if (UsePackedGemm(m, k, n)) {
    // Pack into a per-thread scratch so back-to-back training GEMMs reuse the
    // allocation; compiled inference instead multiplies against packs
    // cached per nn::Linear, hitting the identical kernel (and therefore the
    // identical bits) without the per-call packing.
    thread_local PackedB scratch;
    PackBInto(b.data().data(), k, n, scratch);
    Tensor c({m, n});
    MatMulPackedInto(a.data().data(), m, scratch, c.data().data());
    return c;
  }
  return MatMulNaive(a, b);
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  Require2D(a, "MatMulTransA: a must be 2-D");
  Require2D(b, "MatMulTransA: b must be 2-D");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Require(b.dim(0) == k, "MatMulTransA: leading dimension mismatch");
  Tensor c({m, n});
  const float* __restrict pa = a.data().data();
  const float* __restrict pb = b.data().data();
  float* __restrict pc = c.data().data();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  Require2D(a, "MatMulTransB: a must be 2-D");
  Require2D(b, "MatMulTransB: b must be 2-D");
  Require(b.dim(1) == a.dim(1), "MatMulTransB: trailing dimension mismatch");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (UsePackedGemm(m, k, n)) {
    // Pack straight from the transposed layout — packing is a gather either
    // way, so materializing B^T first would just be an extra O(k*n) copy.
    thread_local PackedB scratch;
    PackBTransposedInto(b.data().data(), k, n, scratch);
    Tensor c({m, n});
    MatMulPackedInto(a.data().data(), m, scratch, c.data().data());
    return c;
  }
  // Materializing B^T keeps the multiply in the vectorizable i-k-j kernel —
  // a dot-product formulation is a float reduction the compiler will not
  // vectorize without fast-math. The transpose is O(k*n) vs O(m*k*n).
  return MatMulNaive(a, Transpose2D(b));
}

namespace {

template <typename F>
Tensor ZipSameShape(const Tensor& a, const Tensor& b, const char* name, F&& f) {
  Require(a.SameShape(b), name);
  Tensor out(a.shape());
  const auto da = a.data();
  const auto db = b.data();
  auto dout = out.data();
  for (std::size_t i = 0; i < da.size(); ++i) dout[i] = f(da[i], db[i]);
  return out;
}

template <typename F>
Tensor MapElems(const Tensor& a, F&& f) {
  Tensor out(a.shape());
  const auto da = a.data();
  auto dout = out.data();
  for (std::size_t i = 0; i < da.size(); ++i) dout[i] = f(da[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ZipSameShape(a, b, "Add: shape mismatch", [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ZipSameShape(a, b, "Sub: shape mismatch", [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ZipSameShape(a, b, "Mul: shape mismatch", [](float x, float y) { return x * y; });
}

Tensor Scale(const Tensor& a, float s) {
  return MapElems(a, [s](float x) { return x * s; });
}

Tensor AddRowVector(const Tensor& m, const Tensor& bias) {
  Require2D(m, "AddRowVector: m must be 2-D");
  Require(bias.rank() == 1 && bias.dim(0) == m.dim(1), "AddRowVector: bias shape mismatch");
  Tensor out(m.shape());
  const std::int64_t rows = m.dim(0), cols = m.dim(1);
  const float* __restrict pm = m.data().data();
  const float* __restrict pb = bias.data().data();
  float* __restrict po = out.data().data();
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) po[i * cols + j] = pm[i * cols + j] + pb[j];
  }
  return out;
}

Tensor RowSoftmax(const Tensor& logits, const Tensor* additive_mask) {
  Require2D(logits, "RowSoftmax: logits must be 2-D");
  if (additive_mask != nullptr) {
    Require(additive_mask->SameShape(logits), "RowSoftmax: mask shape mismatch");
  }
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(logits.shape());
  const float* pl = logits.data().data();
  const float* pm = additive_mask != nullptr ? additive_mask->data().data() : nullptr;
  float* po = out.data().data();
  constexpr float kNegInfCut = -1e30f;
  std::vector<float> shifted(static_cast<std::size_t>(cols));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* lrow = pl + i * cols;
    const float* mrow = pm != nullptr ? pm + i * cols : nullptr;
    float* orow = po + i * cols;
    float maxv = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < cols; ++j) {
      const float v = lrow[j] + (mrow != nullptr ? mrow[j] : 0.0f);
      maxv = std::max(maxv, v);
    }
    if (maxv < kNegInfCut) {  // fully masked row
      std::fill(orow, orow + cols, 0.0f);
      continue;
    }
    for (std::int64_t j = 0; j < cols; ++j) {
      const float v = lrow[j] + (mrow != nullptr ? mrow[j] : 0.0f);
      shifted[static_cast<std::size_t>(j)] = v - maxv;  // -inf stays -inf
    }
    simd::ExpNonPositiveN(shifted.data(), orow, cols);
    const float inv = 1.0f / simd::Sum(orow, cols);
    for (std::int64_t j = 0; j < cols; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  return MapElems(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return MapElems(a, [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; });
}

Tensor Gelu(const Tensor& a) {
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  return MapElems(a, [](float x) {
    const float inner = kC * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.0f + std::tanh(inner));
  });
}

Tensor Tanh(const Tensor& a) {
  return MapElems(a, [](float x) { return std::tanh(x); });
}

Tensor Transpose2D(const Tensor& a) {
  Require2D(a, "Transpose2D: a must be 2-D");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  }
  return out;
}

Tensor SumRows(const Tensor& a) {
  Require2D(a, "SumRows: a must be 2-D");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  const float* pa = a.data().data();
  float* po = out.data().data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) po[j] += pa[i * n + j];
  }
  return out;
}

Tensor SumCols(const Tensor& a) {
  Require2D(a, "SumCols: a must be 2-D");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({m});
  const float* pa = a.data().data();
  float* po = out.data().data();
  for (std::int64_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) acc += pa[i * n + j];
    po[i] = acc;
  }
  return out;
}

float SumAll(const Tensor& a) noexcept {
  float s = 0.0f;
  for (float v : a.data()) s += v;
  return s;
}

}  // namespace predtop::tensor
