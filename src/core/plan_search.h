#pragma once
// The plan-search use case (paper §VIII-B, Fig. 10): generate an optimal
// pipeline-parallel execution plan for a benchmark model on a cluster, with
// stage latencies supplied by one of five approaches —
//   1. full profiling            (vanilla Alpa)
//   2. partial profiling         (vanilla Alpa's stage-imbalance heuristic)
//   3-5. PredTOP with a DAG Transformer / GCN / GAT stage predictor.
// Each run reports the chosen plan's ground-truth iteration latency and the
// optimization cost: modeled profiling cost (compile + measure on the
// simulated cluster) plus measured wall time for predictor training and
// inference.

#include <map>
#include <memory>

#include "core/regressor.h"
#include "core/stage_encodings.h"
#include "parallel/inter_op.h"

namespace predtop::core {

enum class PlanApproach {
  kFullProfiling,
  kPartialProfiling,
  kPredTopDagTransformer,
  kPredTopGcn,
  kPredTopGat,
};
[[nodiscard]] const char* PlanApproachName(PlanApproach approach) noexcept;

struct PlanSearchConfig {
  std::int32_t num_microbatches = 8;
  /// Fraction of enumerable stages profiled per mesh to train PredTOP.
  double sample_fraction = 0.15;
  double val_fraction = 0.10;
  /// Bound on stage span in layers (0 = unbounded).
  std::int32_t max_span = 0;
  /// Vanilla Alpa partial profiling: skip stages whose layer share deviates
  /// from the mesh's device share by more than this tolerance.
  double partial_profiling_tolerance = 0.35;
  nn::TrainConfig train;
  PredictorOptions predictor;  // feature_dim is filled automatically
  TargetTransform transform = TargetTransform::kLinearMeanScaled;
  sim::ProfilerConfig profiler;
  std::uint64_t seed = 0x91aULL;
};

struct PlanSearchResult {
  PlanApproach approach{};
  parallel::PipelinePlan plan;
  /// Plan scored under the noiseless ground-truth oracle.
  double plan_true_latency_s = 0.0;
  /// Total optimization cost and its breakdown.
  double optimization_cost_s = 0.0;
  double profiling_cost_s = 0.0;
  double training_wall_s = 0.0;
  double inference_wall_s = 0.0;
  std::int64_t stages_profiled = 0;
};

/// Per-mesh predictors trained by one profiling+training pass (paper §VI
/// phases 1+2), plus the cost ledger of producing them. The regressors are
/// shared_ptr so callers can hand them to a serving registry without
/// retraining.
struct TrainedMeshPredictors {
  std::vector<std::shared_ptr<LatencyRegressor>> per_mesh;  // parallel to Meshes()
  double profiling_cost_s = 0.0;
  double training_wall_s = 0.0;
  std::int64_t stages_profiled = 0;
};

class PlanSearch {
 public:
  PlanSearch(BenchmarkModel benchmark, sim::ClusterSpec cluster, PlanSearchConfig config);

  [[nodiscard]] PlanSearchResult Run(PlanApproach approach);

  /// Phases 1+2 only: profile a sampled stage subset per mesh and train one
  /// regressor per mesh. Exposed so a serving layer can checkpoint/register
  /// the trained predictors and drive phase 3 through a PredictionService.
  [[nodiscard]] TrainedMeshPredictors TrainPredictors(PredictorKind kind);

  /// Noiseless optimal intra-stage latency of (slice, mesh) — the scoring
  /// oracle (memoized).
  [[nodiscard]] parallel::StageLatencyResult TrueStageLatency(ir::StageSlice slice,
                                                              sim::Mesh mesh);

  [[nodiscard]] const BenchmarkModel& Benchmark() const noexcept { return benchmark_; }
  [[nodiscard]] const std::vector<sim::Mesh>& Meshes() const noexcept { return meshes_; }
  [[nodiscard]] const PlanSearchConfig& Config() const noexcept { return config_; }
  [[nodiscard]] std::int32_t EffectiveMaxSpan() const noexcept;

  /// Stage program / encoded predictor input of a slice (memoized — shared
  /// by the plan-search oracles and the serving integration). Slices whose
  /// pruned DAGs are equal share one encoding (see StageEncodings). Not
  /// thread-safe: encode every slice before sharing the search across
  /// threads.
  [[nodiscard]] const ir::StageProgram& ProgramFor(ir::StageSlice slice);
  [[nodiscard]] const graph::EncodedGraph& EncodedFor(ir::StageSlice slice);

  /// Build the inter-op optimizer this search's plans are produced with.
  [[nodiscard]] parallel::InterOpOptimizer MakeOptimizer() const;

 private:
  [[nodiscard]] PlanSearchResult RunProfiling(PlanApproach approach);
  [[nodiscard]] PlanSearchResult RunPredTop(PlanApproach approach);

  BenchmarkModel benchmark_;
  sim::ClusterSpec cluster_;
  PlanSearchConfig config_;
  std::vector<sim::Mesh> meshes_;
  std::vector<std::unique_ptr<parallel::IntraOpCompiler>> compilers_;  // per mesh
  std::map<std::pair<std::int32_t, std::int32_t>, ir::StageProgram> program_cache_;
  StageEncodings encodings_;
  /// (slice key, mesh index) -> true latency result.
  std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>, parallel::StageLatencyResult>
      truth_cache_;
};

}  // namespace predtop::core
