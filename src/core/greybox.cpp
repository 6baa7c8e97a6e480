#include "core/greybox.h"

#include <stdexcept>

#include "parallel/pipeline_model.h"

namespace predtop::core {

GreyBoxEstimator::GreyBoxEstimator(
    BenchmarkModel benchmark,
    std::vector<std::pair<sim::Mesh, std::shared_ptr<LatencyRegressor>>> regressors)
    : benchmark_(std::move(benchmark)), regressors_(std::move(regressors)) {
  if (regressors_.empty()) {
    throw std::invalid_argument("GreyBoxEstimator: at least one regressor required");
  }
}

double GreyBoxEstimator::EstimateStageLatency(ir::StageSlice slice, sim::Mesh mesh) {
  for (auto& [regressor_mesh, regressor] : regressors_) {
    if (regressor_mesh == mesh) {
      return regressor->PredictSeconds(encodings_.For(slice, benchmark_.build_stage));
    }
  }
  throw std::invalid_argument("GreyBoxEstimator: no regressor for the requested mesh");
}

double GreyBoxEstimator::EstimateIterationLatency(const parallel::PipelinePlan& plan) {
  std::vector<double> stage_latencies;
  stage_latencies.reserve(plan.stages.size());
  for (const parallel::PipelineStageChoice& stage : plan.stages) {
    stage_latencies.push_back(EstimateStageLatency(stage.slice, stage.mesh));
  }
  return parallel::PipelineLatency(stage_latencies, plan.num_microbatches);
}

}  // namespace predtop::core
