#pragma once
// Raw numeric kernels over Tensor. These are the forward/backward building
// blocks wrapped by predtop::autograd; they carry no gradient logic.
//
// Matrix kernels come in three tiers:
//  - an i-k-j kernel over contiguous rows that the compiler auto-vectorizes
//    (AVX2/AVX-512 with -march=native) — the small-shape default;
//  - a register-blocked kernel over a B matrix packed into column panels
//    (PackB / MatMulPacked), which keeps a kGemmMr x kGemmPanel accumulator
//    tile in registers and streams packed panels — ~3-4x the i-k-j kernel at
//    256^3 and the backbone of the compiled inference programs (packed
//    weights are cached per nn::Linear);
//  - a ParallelFor-over-row-panels variant of the packed kernel on a shared
//    process-wide util::ThreadPool for large m (at least 4Mi MACs; the pool
//    size is capped by PREDTOP_GEMM_THREADS).
// MatMul / MatMulTransB dispatch between the tiers by shape (UsePackedGemm /
// UseThreadedGemm); results are deterministic across tiers and thread counts
// because each output element is always accumulated in ascending-k order by
// exactly one thread.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace predtop::tensor {

// ---- packed GEMM (register-blocked, B pre-packed into column panels) ----

/// Columns per packed panel (two 8-wide SIMD vectors, or one 16-wide).
inline constexpr std::int64_t kGemmPanel = 16;
/// Rows per register tile of the packed micro-kernel. The tile shape is a
/// build-time choice: AVX-512 builds run a 12x16 tile (one 16-float vector
/// per panel row, 12 accumulators); other builds run a 6x16 two-vector tile
/// and split each 12-row block in two. Either way each output element
/// accumulates in ascending-k order in its own lane, so the tile shape never
/// changes a single result bit.
inline constexpr std::int64_t kGemmMr = 12;
/// Minimum m for the packed tier (tier *selection* floor — kept at the
/// historical tile height so shapes keep dispatching to the same kernels).
inline constexpr std::int64_t kGemmRowFloor = 6;

/// B(k, n) packed panel-major: panel p holds columns [p*kGemmPanel, ...) laid
/// out k-major (kGemmPanel contiguous floats per k step), the last panel
/// zero-padded to full width. Reusable across many multiplies — nn::Linear
/// caches one per weight matrix for the compiled inference programs.
struct PackedB {
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::vector<float> data;
};

/// Non-owning view of a packed B. The compiled inference executor keeps pack
/// storage inside its statically planned buffer, so the kernels below accept
/// views rather than requiring the std::vector-backed PackedB.
struct PackedBView {
  const float* data = nullptr;
  std::int64_t k = 0;
  std::int64_t n = 0;
};

[[nodiscard]] inline PackedBView ViewOf(const PackedB& b) noexcept {
  return {b.data.data(), b.k, b.n};
}

/// Floats of panel-major storage a (k, n) pack occupies (last panel padded).
[[nodiscard]] constexpr std::int64_t PackedBFloats(std::int64_t k, std::int64_t n) noexcept {
  return (n + kGemmPanel - 1) / kGemmPanel * k * kGemmPanel;
}

/// Pack row-major b (k, n); reuses `out.data` capacity across calls. `ldb` is
/// b's row stride (-1 means n, i.e. contiguous) so a column block of a wider
/// matrix packs without a slice copy.
void PackBInto(const float* b, std::int64_t k, std::int64_t n, PackedB& out,
               std::int64_t ldb = -1);
[[nodiscard]] PackedB PackB(const Tensor& b);
/// Pack B = bt^T from row-major bt (n, k) without materializing the transpose.
/// `ldb` is bt's row stride (-1 means k).
void PackBTransposedInto(const float* bt, std::int64_t k, std::int64_t n, PackedB& out,
                         std::int64_t ldb = -1);

/// PackBInto / PackBTransposedInto writing into caller-provided storage of
/// PackedBFloats(k, n) floats. Pad lanes of a ragged last panel are re-zeroed
/// on every call, so a reused plan-buffer region never leaks stale values.
void PackBIntoBuf(const float* b, std::int64_t k, std::int64_t n, float* out,
                  std::int64_t ldb = -1);
void PackBTransposedIntoBuf(const float* bt, std::int64_t k, std::int64_t n, float* out,
                            std::int64_t ldb = -1);

/// C(m, n) = A(m, k) * B with B pre-packed; `c` is fully overwritten (no
/// accumulate, no pre-zeroing needed). `allow_threads` additionally gates the
/// row-panel fan-out across the shared GEMM pool (see UseThreadedGemm).
void MatMulPackedInto(const float* a, std::int64_t m, const PackedB& b, float* c,
                      bool allow_threads = true);
/// Strided MatMulPackedInto: A has row stride `lda` (>= b.k) and C row stride
/// `ldc` (>= b.n), so attention can read a head's slice of a wider activation
/// and write its output at a column offset of the merged matrix in place.
void MatMulPackedStridedInto(const float* a, std::int64_t m, std::int64_t lda,
                             const PackedB& b, float* c, std::int64_t ldc,
                             bool allow_threads = true);
/// View-based MatMulPackedStridedInto (identical kernel and therefore
/// identical bits; the PackedB overload delegates here).
void MatMulPackedViewStridedInto(const float* a, std::int64_t m, std::int64_t lda,
                                 PackedBView b, float* c, std::int64_t ldc,
                                 bool allow_threads = true);
/// One register tile (`mr` <= kGemmMr rows starting at `a` / `c`) of
/// C = A * packed(B), restricted to the output columns whose panels intersect
/// [col_begin, col_end) and to the accumulation window [k_begin, k_end) of the
/// k dimension. The compiled attention kernel uses the windows to skip work
/// that a DAG reachability mask provably zeroes: skipped k lanes carry exact
/// zero weights, so windowed results equal the full multiply. Columns outside
/// the touched panels are left unwritten; an empty window writes nothing.
void PackedViewTile(const float* a, std::int64_t lda, PackedBView b, float* c,
                    std::int64_t ldc, int mr, std::int64_t col_begin, std::int64_t col_end,
                    std::int64_t k_begin, std::int64_t k_end);
[[nodiscard]] Tensor MatMulPacked(const Tensor& a, const PackedB& b,
                                  bool allow_threads = true);

/// Reference i-k-j kernel (the historical MatMul); kept callable for
/// benchmarking and as the small-shape dispatch target.
[[nodiscard]] Tensor MatMulNaive(const Tensor& a, const Tensor& b);
/// c(m, n) += a(m, k) * b(k, n) over strided rows with the i-k-j loop of
/// MatMulNaive (ascending k per output, zero entries of a skipped). Results
/// depend only on the row being computed, never on m. The attention node
/// (tensor/attention.h) and the compiled executor's unfused attention both
/// call this one definition, so their per-head products agree bit for bit.
void GemmNaiveAccumulate(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                         float* c, std::int64_t ldc, std::int64_t m, std::int64_t k,
                         std::int64_t n) noexcept;

/// True when MatMul dispatches shape (m, k, n) to the packed kernel.
[[nodiscard]] bool UsePackedGemm(std::int64_t m, std::int64_t k, std::int64_t n) noexcept;
/// True when a non-packed MatMul of inner dimension k and output width n
/// takes the narrow tier: one simd::Dot per output over k (lane-split
/// order) instead of the i-k-j kernel's ascending-k accumulation.
[[nodiscard]] constexpr bool UseNarrowGemm(std::int64_t k, std::int64_t n) noexcept {
  return n < 16 && k >= 16;
}
/// True when the packed kernel additionally spreads row panels across the
/// shared GEMM ThreadPool (m*k*n >= 4Mi).
/// Threading never changes result bits, only where the crossover sits.
[[nodiscard]] bool UseThreadedGemm(std::int64_t m, std::int64_t k, std::int64_t n) noexcept;
/// Worker count the shared GEMM pool runs with (PREDTOP_GEMM_THREADS or
/// hardware_concurrency); reading it never constructs the pool.
[[nodiscard]] std::size_t GemmThreads() noexcept;

/// C = A(m,k) * B(k,n). Dispatches between the kernel tiers; see above.
[[nodiscard]] Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A^T * B where A is (k,m), B is (k,n) -> (m,n). (Gradient helper.)
[[nodiscard]] Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C = A * B^T where A is (m,k), B is (n,k) -> (m,n). (Gradient helper.)
[[nodiscard]] Tensor MatMulTransB(const Tensor& a, const Tensor& b);

[[nodiscard]] Tensor Add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Mul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Scale(const Tensor& a, float s);

/// rows(m,n) + bias(n), broadcast over rows.
[[nodiscard]] Tensor AddRowVector(const Tensor& m, const Tensor& bias);

/// Row-wise softmax of logits(m,n); `additive_mask`, if non-null, must have
/// the same shape and is added to the logits first (DAG reachability masks
/// use -inf entries). Rows that are fully -inf yield all-zero rows rather
/// than NaN.
[[nodiscard]] Tensor RowSoftmax(const Tensor& logits, const Tensor* additive_mask = nullptr);

[[nodiscard]] Tensor Relu(const Tensor& a);
[[nodiscard]] Tensor LeakyRelu(const Tensor& a, float negative_slope);
/// tanh-approximation GELU.
[[nodiscard]] Tensor Gelu(const Tensor& a);
[[nodiscard]] Tensor Tanh(const Tensor& a);

[[nodiscard]] Tensor Transpose2D(const Tensor& a);

/// (m,n) -> (n): sum over rows.
[[nodiscard]] Tensor SumRows(const Tensor& a);
/// (m,n) -> (m): sum over columns.
[[nodiscard]] Tensor SumCols(const Tensor& a);
/// Sum of all elements.
[[nodiscard]] float SumAll(const Tensor& a) noexcept;

}  // namespace predtop::tensor
