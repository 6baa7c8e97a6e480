#include "compile/batch.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "compile/exec_detail.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace predtop::compile {

namespace {

std::atomic<std::uint64_t>& BatchedCounter() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

std::atomic<std::uint64_t>& InterleavedCounter() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

/// Interleave pool of last resort (immortal: workers may outlive static
/// destruction order, matching the shared GEMM pool's lifetime posture).
util::ThreadPool& SharedBatchPool() {
  static util::ThreadPool* pool = new util::ThreadPool(tensor::GemmThreads());
  return *pool;
}

/// Thread-local batched execution state; grow-only so warm batches of the
/// same (shape, count) never allocate.
struct BatchExecState {
  std::vector<float> buf;
  std::vector<detail::MaskRuns> runs;
  std::vector<std::int64_t> ext_off;  // per-value staging offsets (externals)
};

BatchExecState& ThreadBatchState() {
  thread_local BatchExecState state;
  return state;
}

/// Independent sequential forwards fanned across `pool`, one per query, each
/// on its worker thread's own plan buffer. Bit-identical trivially: it IS
/// the sequential executor.
bool RunInterleaved(const InferProgram& p, const ExecInputs* in, std::size_t count,
                    float* out, util::ThreadPool& pool) {
  std::atomic<bool> ok{true};
  pool.ParallelFor(count, [&](std::size_t q) {
    float v = 0.0f;
    if (Execute(p, in[q], &v)) {
      out[q] = v;
    } else {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  if (!ok.load(std::memory_order_relaxed)) return false;
  InterleavedCounter().fetch_add(count, std::memory_order_relaxed);
  return true;
}

/// One pass over the step list for the whole batch. The plan buffer is the
/// sequential plan scaled by count: value v's query-q block sits at
/// offsets[v]*B + q*size(v). Scaling every offset and size by the same B
/// preserves the planner's disjointness (a + size_a <= b implies
/// a*B + size_a*B <= b*B), and the step-outer loop keeps all queries'
/// lifetimes in lockstep, so no block is clobbered early. External inputs
/// (features, depth PE) are per-query tensors, so they are staged into
/// stacked regions appended after the arena; the copy is O(rows*cols) per
/// query against the O(rows*cols*out) GEMM that reads it.
bool RunBatched(const InferProgram& p, const ExecInputs* in, std::size_t count,
                float* out) {
  const std::int64_t B = static_cast<std::int64_t>(count);
  BatchExecState& state = ThreadBatchState();

  // Staging offsets for external values (cumulative sizes).
  if (state.ext_off.size() < p.values.size()) state.ext_off.resize(p.values.size());
  std::int64_t ext_floats = 0;
  for (std::size_t v = 0; v < p.values.size(); ++v) {
    if (p.values[v].external == External::kNone) {
      state.ext_off[v] = InferProgram::kNoOffset;
      continue;
    }
    state.ext_off[v] = ext_floats;
    ext_floats += p.values[v].size();
  }

  const std::int64_t need = p.arena_floats * B + ext_floats * B + p.scratch_floats;
  if (static_cast<std::int64_t>(state.buf.size()) < need) {
    state.buf.resize(static_cast<std::size_t>(need));
  }
  float* base = state.buf.data();
  float* ext_base = base + p.arena_floats * B;
  float* scratch = ext_base + ext_floats * B;

  // Stage the external inputs: query q's block of external value v is
  // ext_base + ext_off[v]*B + q*size(v), contiguous across q for stacked
  // GEMMs exactly like planned values.
  for (std::size_t v = 0; v < p.values.size(); ++v) {
    const ValueInfo& vi = p.values[v];
    if (vi.external == External::kNone) continue;
    const std::int64_t sz = vi.size();
    float* dst0 = ext_base + state.ext_off[v] * B;
    for (std::int64_t q = 0; q < B; ++q) {
      const float* src = vi.external == External::kFeatures
                             ? in[q].g->features.data().data()
                             : in[q].pe;
      std::memcpy(dst0 + q * sz, src, static_cast<std::size_t>(sz) * sizeof(float));
    }
  }

  // Per-query mask-run CSRs (masks differ per query even at one shape class).
  const bool needs_runs = detail::NeedsMaskRuns(p);
  if (needs_runs) {
    if (state.runs.size() < count) state.runs.resize(count);
    for (std::int64_t q = 0; q < B; ++q) {
      detail::BuildMaskRuns(p, in[q], state.runs[static_cast<std::size_t>(q)]);
    }
  }

  const auto snap = p.CurrentSnapshot();

  const auto q_ptr = [&](ValueId v, std::int64_t q) -> const float* {
    if (v == kNoValue) return nullptr;
    const ValueInfo& vi = p.values[static_cast<std::size_t>(v)];
    const std::int64_t sz = vi.size();
    if (vi.external != External::kNone) {
      return ext_base + state.ext_off[static_cast<std::size_t>(v)] * B + q * sz;
    }
    return base + p.offsets[static_cast<std::size_t>(v)] * B + q * sz;
  };
  const auto q_mut = [&](ValueId v, std::int64_t q) -> float* {
    const ValueInfo& vi = p.values[static_cast<std::size_t>(v)];
    return base + p.offsets[static_cast<std::size_t>(v)] * B + q * vi.size();
  };

  for (std::size_t si = 0; si < p.steps.size(); ++si) {
    const Step& s = p.steps[si];
    const std::int64_t rows = p.values[static_cast<std::size_t>(s.out)].rows;
    if (detail::RowwiseBatchable(s.kind)) {
      // One stacked call over all B queries' rows: operand blocks are
      // contiguous across q (planned and staged values alike), and each of
      // these kinds computes rows independently, so the stacked result is
      // bit-identical per row to B separate calls. For the Linear family
      // this is where the batch amortization lives — packed weight panels
      // stream through the cache once for B*rows rows instead of B times.
      const detail::StepOperands ops{q_ptr(s.a, 0), q_ptr(s.b, 0), q_ptr(s.c, 0),
                                     q_mut(s.out, 0)};
      detail::RunStep(p, si, *snap, in[0], ops, B * rows, scratch, nullptr);
    } else {
      // Graph-structured step: per-query math (adjacency, edges, masks, and
      // pooling semantics are per graph).
      for (std::int64_t q = 0; q < B; ++q) {
        const detail::StepOperands ops{q_ptr(s.a, q), q_ptr(s.b, q), q_ptr(s.c, q),
                                       q_mut(s.out, q)};
        detail::RunStep(p, si, *snap, in[q], ops, rows, scratch,
                        needs_runs ? &state.runs[static_cast<std::size_t>(q)] : nullptr);
      }
    }
  }

  const std::int64_t out_off = p.offsets[static_cast<std::size_t>(p.output)] * B;
  for (std::int64_t q = 0; q < B; ++q) out[q] = base[out_off + q];
  BatchedCounter().fetch_add(count, std::memory_order_relaxed);
  return true;
}

}  // namespace

std::int64_t LinearFlops(const InferProgram& p) {
  std::int64_t flops = 0;
  for (const Step& s : p.steps) {
    if (s.kind != OpKind::kLinear && s.kind != OpKind::kLinearAct &&
        s.kind != OpKind::kLinearResidualNorm) {
      continue;
    }
    const ValueInfo& ov = p.values[static_cast<std::size_t>(s.out)];
    flops += 2 * ov.rows * s.linear->InFeatures() * s.linear->OutFeatures();
  }
  return flops;
}

std::int64_t ThreadBatchBufferFloats() noexcept {
  return static_cast<std::int64_t>(ThreadBatchState().buf.size());
}

std::uint64_t BatchedForwards() noexcept {
  return BatchedCounter().load(std::memory_order_relaxed);
}

std::uint64_t InterleavedForwards() noexcept {
  return InterleavedCounter().load(std::memory_order_relaxed);
}

bool ExecuteBatch(const InferProgram& p, const ExecInputs* in, std::size_t count,
                  float* out, const BatchOptions& opts) {
  if (count == 0) return true;
  if (in == nullptr || out == nullptr) return false;
  for (std::size_t q = 0; q < count; ++q) {
    if (!detail::ValidateInputs(p, in[q])) return false;
  }
  if (count == 1) {
    if (!Execute(p, in[0], out)) return false;
    BatchedCounter().fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  BatchMode mode = opts.mode;
  util::ThreadPool* pool = opts.pool;
  if (mode == BatchMode::kAuto) {
    const std::size_t threads =
        pool != nullptr ? pool->ThreadCount() + 1 : tensor::GemmThreads();
    // Interleave only when there are cores to spread across AND each forward
    // is heavy enough to amortize its task dispatch; otherwise the stacked
    // pass wins (it amortizes snapshot/pack streaming and its large GEMMs
    // still fan out through the tensor layer's own threading).
    mode = (threads > 1 &&
            static_cast<std::int64_t>(count) >= kInterleaveMinBatch &&
            LinearFlops(p) >= kInterleaveMinFlops)
               ? BatchMode::kInterleaved
               : BatchMode::kBatched;
  }

  if (mode == BatchMode::kInterleaved) {
    return RunInterleaved(p, in, count, out,
                          pool != nullptr ? *pool : SharedBatchPool());
  }
  return RunBatched(p, in, count, out);
}

}  // namespace predtop::compile
