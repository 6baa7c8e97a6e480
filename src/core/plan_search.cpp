#include "core/plan_search.h"

#include <cmath>
#include <stdexcept>

#include "ir/stages.h"
#include "nn/trainer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace predtop::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::pair<std::int32_t, std::int32_t> SliceKey(ir::StageSlice slice) {
  return {slice.first_layer, slice.last_layer};
}

}  // namespace

const char* PlanApproachName(PlanApproach approach) noexcept {
  switch (approach) {
    case PlanApproach::kFullProfiling: return "Alpa full profiling";
    case PlanApproach::kPartialProfiling: return "Alpa partial profiling";
    case PlanApproach::kPredTopDagTransformer: return "PredTOP (DAG Transformer)";
    case PlanApproach::kPredTopGcn: return "PredTOP (GCN)";
    case PlanApproach::kPredTopGat: return "PredTOP (GAT)";
  }
  return "?";
}

PlanSearch::PlanSearch(BenchmarkModel benchmark, sim::ClusterSpec cluster,
                       PlanSearchConfig config)
    : benchmark_(std::move(benchmark)), cluster_(std::move(cluster)), config_(config) {
  config_.predictor.feature_dim = StageFeatureDim();
  meshes_ = sim::PaperMeshes(cluster_);
  compilers_.reserve(meshes_.size());
  for (const sim::Mesh mesh : meshes_) {
    compilers_.push_back(std::make_unique<parallel::IntraOpCompiler>(cluster_, mesh));
  }
}

std::int32_t PlanSearch::EffectiveMaxSpan() const noexcept {
  return config_.max_span > 0 ? config_.max_span : benchmark_.num_layers;
}

const ir::StageProgram& PlanSearch::ProgramFor(ir::StageSlice slice) {
  const auto key = SliceKey(slice);
  auto it = program_cache_.find(key);
  if (it == program_cache_.end()) {
    it = program_cache_.emplace(key, benchmark_.build_stage(slice)).first;
  }
  return it->second;
}

const graph::EncodedGraph& PlanSearch::EncodedFor(ir::StageSlice slice) {
  return encodings_.For(
      slice, [this](ir::StageSlice s) -> const ir::StageProgram& { return ProgramFor(s); });
}

parallel::StageLatencyResult PlanSearch::TrueStageLatency(ir::StageSlice slice, sim::Mesh mesh) {
  std::int32_t mesh_index = -1;
  for (std::size_t m = 0; m < meshes_.size(); ++m) {
    if (meshes_[m] == mesh) mesh_index = static_cast<std::int32_t>(m);
  }
  if (mesh_index < 0) throw std::invalid_argument("TrueStageLatency: unknown mesh");
  const auto key = std::make_tuple(slice.first_layer, slice.last_layer, mesh_index);
  auto it = truth_cache_.find(key);
  if (it == truth_cache_.end()) {
    const auto configs = parallel::PaperConfigs(mesh);
    const parallel::StagePlan plan =
        compilers_[static_cast<std::size_t>(mesh_index)]->CompileBest(ProgramFor(slice), configs);
    it = truth_cache_.emplace(key, parallel::StageLatencyResult{plan.latency_s, plan.config})
             .first;
  }
  return it->second;
}

PlanSearchResult PlanSearch::Run(PlanApproach approach) {
  switch (approach) {
    case PlanApproach::kFullProfiling:
    case PlanApproach::kPartialProfiling:
      return RunProfiling(approach);
    default:
      return RunPredTop(approach);
  }
}

PlanSearchResult PlanSearch::RunProfiling(PlanApproach approach) {
  PlanSearchResult result;
  result.approach = approach;
  sim::Profiler profiler(config_.profiler, config_.seed ^ 0xf00dULL);
  const std::int32_t max_span = EffectiveMaxSpan();
  const double total_devices = cluster_.TotalDevices();
  const bool partial = approach == PlanApproach::kPartialProfiling;

  const parallel::StageLatencyOracle oracle = [&](ir::StageSlice slice, sim::Mesh mesh) {
    if (slice.NumLayers() > max_span) return parallel::StageLatencyResult{kInf, {}};
    if (partial) {
      // Vanilla Alpa's heuristic: only profile stages whose share of the
      // model roughly matches the mesh's share of the cluster.
      const double layer_share =
          static_cast<double>(slice.NumLayers()) / benchmark_.num_layers;
      const double device_share = mesh.NumDevices() / total_devices;
      if (std::fabs(layer_share - device_share) > config_.partial_profiling_tolerance) {
        return parallel::StageLatencyResult{kInf, {}};
      }
    }
    const parallel::StageLatencyResult truth = TrueStageLatency(slice, mesh);
    if (!std::isfinite(truth.latency_s)) return parallel::StageLatencyResult{kInf, {}};
    const double measured =
        profiler.ProfileStage(truth.latency_s, ProgramFor(slice).NumEquations());
    return parallel::StageLatencyResult{measured, truth.config};
  };

  const parallel::InterOpOptimizer optimizer = MakeOptimizer();
  result.plan = optimizer.Optimize(oracle);
  result.plan_true_latency_s = optimizer.EvaluatePlan(
      result.plan, [&](ir::StageSlice s, sim::Mesh m) { return TrueStageLatency(s, m); });
  result.profiling_cost_s = profiler.TotalCostSeconds();
  result.optimization_cost_s = result.profiling_cost_s;
  result.stages_profiled = profiler.StagesProfiled();
  return result;
}

TrainedMeshPredictors PlanSearch::TrainPredictors(PredictorKind kind) {
  TrainedMeshPredictors trained;
  sim::Profiler profiler(config_.profiler, config_.seed ^ 0xbeefULL);
  const std::int32_t max_span = EffectiveMaxSpan();
  const auto all_slices = ir::EnumerateStageSlices(benchmark_.num_layers, max_span);
  const auto sample_count = static_cast<std::size_t>(
      std::ceil(config_.sample_fraction * static_cast<double>(all_slices.size())));

  trained.per_mesh.reserve(meshes_.size());
  for (std::size_t m = 0; m < meshes_.size(); ++m) {
    const auto configs = parallel::PaperConfigs(meshes_[m]);
    DatasetBuildConfig build;
    build.num_samples = sample_count;
    build.max_span = max_span;
    build.sample_seed = config_.seed + 31 * m;
    const StageDataset dataset = BuildStageDatasetBestConfig(
        benchmark_, *compilers_[m], configs, profiler, build);
    if (dataset.Size() < 4) {
      throw std::runtime_error("PlanSearch: not enough feasible stages to train on");
    }
    util::Rng split_rng(config_.seed + 977 * m);
    const double train_fraction = 1.0 - config_.val_fraction;
    const nn::DataSplit split =
        nn::SplitDataset(dataset.Size(), train_fraction, config_.val_fraction, split_rng);

    auto regressor =
        std::make_shared<LatencyRegressor>(kind, config_.predictor, config_.transform);
    util::Stopwatch train_watch;
    regressor->Fit(dataset, split.train, split.validation, config_.train);
    trained.training_wall_s += train_watch.ElapsedSeconds();
    trained.per_mesh.push_back(std::move(regressor));
  }
  trained.profiling_cost_s = profiler.TotalCostSeconds();
  trained.stages_profiled = profiler.StagesProfiled();
  return trained;
}

PlanSearchResult PlanSearch::RunPredTop(PlanApproach approach) {
  PlanSearchResult result;
  result.approach = approach;
  PredictorKind kind = PredictorKind::kDagTransformer;
  if (approach == PlanApproach::kPredTopGcn) kind = PredictorKind::kGcn;
  if (approach == PlanApproach::kPredTopGat) kind = PredictorKind::kGat;

  const std::int32_t max_span = EffectiveMaxSpan();
  const auto all_slices = ir::EnumerateStageSlices(benchmark_.num_layers, max_span);

  // Phase 1 + 2 per mesh: profile a sampled subset, train a regressor.
  // Phase 3: predict the optimal latency of every candidate stage.
  const TrainedMeshPredictors trained = TrainPredictors(kind);
  result.training_wall_s = trained.training_wall_s;

  std::vector<std::vector<double>> predicted(meshes_.size());
  for (std::size_t m = 0; m < meshes_.size(); ++m) {
    util::Stopwatch infer_watch;
    predicted[m].assign(all_slices.size(), kInf);
    for (std::size_t s = 0; s < all_slices.size(); ++s) {
      predicted[m][s] = trained.per_mesh[m]->PredictSeconds(EncodedFor(all_slices[s]));
    }
    result.inference_wall_s += infer_watch.ElapsedSeconds();
  }

  // Index predictions by slice for the oracle.
  std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> slice_index;
  for (std::size_t s = 0; s < all_slices.size(); ++s) {
    slice_index[SliceKey(all_slices[s])] = s;
  }
  const parallel::StageLatencyOracle oracle = [&](ir::StageSlice slice, sim::Mesh mesh) {
    const auto it = slice_index.find(SliceKey(slice));
    if (it == slice_index.end()) return parallel::StageLatencyResult{kInf, {}};
    for (std::size_t m = 0; m < meshes_.size(); ++m) {
      if (meshes_[m] == mesh) {
        return parallel::StageLatencyResult{predicted[m][it->second], {}};
      }
    }
    return parallel::StageLatencyResult{kInf, {}};
  };

  const parallel::InterOpOptimizer optimizer = MakeOptimizer();
  result.plan = optimizer.Optimize(oracle);
  // The deployed system compiles the chosen stages for real; recover each
  // stage's actual config and latency from the ground-truth compiler.
  for (auto& stage : result.plan.stages) {
    const parallel::StageLatencyResult truth = TrueStageLatency(stage.slice, stage.mesh);
    stage.config = truth.config;
  }
  result.plan_true_latency_s = optimizer.EvaluatePlan(
      result.plan, [&](ir::StageSlice s, sim::Mesh m) { return TrueStageLatency(s, m); });
  result.profiling_cost_s = trained.profiling_cost_s;
  result.stages_profiled = trained.stages_profiled;
  result.optimization_cost_s =
      result.profiling_cost_s + result.training_wall_s + result.inference_wall_s;
  return result;
}

parallel::InterOpOptimizer PlanSearch::MakeOptimizer() const {
  parallel::InterOpOptions options;
  options.num_layers = benchmark_.num_layers;
  options.num_microbatches = config_.num_microbatches;
  options.submeshes = meshes_;
  return parallel::InterOpOptimizer(cluster_, options);
}

}  // namespace predtop::core
