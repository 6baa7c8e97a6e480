#pragma once
// Batch-level compiled execution. ExecuteBatch runs an entire same-shape
// query set through one InferProgram with the weight snapshot, the
// DAGRA mask-run CSRs, and the static arena plan resolved ONCE for the whole
// batch, then executes in one of two ways:
//
//  - kBatched: one pass over the step list with every row-wise step (the
//    Linear family, activations, LayerNorm, Concat2, MatVec, RowScale,
//    AddRowVector) run as a single stacked call over all B queries' rows —
//    so each packed weight panel streams through the cache once per batch
//    instead of once per query — while graph-structured steps (attention,
//    Spmm, Pool, edge/segment ops) loop per query. The plan buffer is the
//    sequential plan scaled by B: value v's query-q block lives at
//    offsets[v]*B + q*size(v), which preserves the planner's disjointness
//    proof and keeps every query's blocks contiguous for stacked GEMMs.
//  - kInterleaved: independent sequential forwards fanned across a worker
//    pool, one per query, each on its own thread-local plan buffer.
//
// Both paths are bit-identical to B sequential Execute calls: stacking rows
// into one GEMM never changes a row's bits (each output element accumulates
// in ascending-k order in its own lane, independent of m), and interleaving
// just runs the sequential executor. kAuto picks by a fixed cost heuristic
// (kInterleaveMinBatch / kInterleaveMinFlops below).

#include <cstddef>
#include <cstdint>

#include "compile/program.h"

namespace predtop::util {
class ThreadPool;
}  // namespace predtop::util

namespace predtop::compile {

/// kAuto crossover: interleave only batches of at least this many queries...
inline constexpr std::int64_t kInterleaveMinBatch = 2;
/// ...whose per-query linear-step FLOPs (LinearFlops) reach this; below it a
/// forward is too small to amortize one pool task dispatch.
inline constexpr std::int64_t kInterleaveMinFlops = std::int64_t{1} << 22;

enum class BatchMode {
  kAuto,         ///< cost heuristic (kInterleaveMin*), needs > 1 thread
  kBatched,      ///< stacked row-wise steps, per-query graph steps
  kInterleaved,  ///< independent sequential forwards across a pool
};

struct BatchOptions {
  BatchMode mode = BatchMode::kAuto;
  /// Pool for kInterleaved (null = an internal pool sized like the GEMM
  /// pool). kBatched ignores it: stacked GEMMs fan out through the tensor
  /// layer's own threading when large enough.
  util::ThreadPool* pool = nullptr;
};

/// Run `count` same-shape queries through `p`; `out` receives one scalar per
/// query. Every input must pass the same validation as Execute (same shape
/// class as `p`, mask/pe present when the program wants them) or the whole
/// call returns false and the caller falls back to sequential replay.
/// Results are bit-identical to `count` sequential Execute calls.
bool ExecuteBatch(const InferProgram& p, const ExecInputs* in, std::size_t count,
                  float* out, const BatchOptions& opts = {});

/// Per-query FLOPs of the program's linear steps (2*m*k*n each), the
/// dominant forward cost that kAuto compares against kInterleaveMinFlops.
[[nodiscard]] std::int64_t LinearFlops(const InferProgram& p);

/// Floats held by this thread's batched plan buffer (test hook mirroring
/// ThreadPlanBufferFloats: stable across warm batches = no reallocation).
[[nodiscard]] std::int64_t ThreadBatchBufferFloats() noexcept;

/// Process-wide counters: queries executed through the stacked path /
/// the interleaved path. Surfaced via ServiceStats and cluster StatsBody.
[[nodiscard]] std::uint64_t BatchedForwards() noexcept;
[[nodiscard]] std::uint64_t InterleavedForwards() noexcept;

}  // namespace predtop::compile
