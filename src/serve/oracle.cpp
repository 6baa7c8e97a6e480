#include "serve/oracle.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace predtop::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

ServingOracle::ServingOracle(PredictionService& service, std::vector<sim::Mesh> meshes,
                             std::vector<ModelKey> mesh_keys, StageEncoder encoder,
                             std::int32_t max_span, ServingOracleOptions options)
    : service_(service),
      meshes_(std::move(meshes)),
      mesh_keys_(std::move(mesh_keys)),
      encoder_(std::move(encoder)),
      max_span_(max_span),
      options_(std::move(options)) {
  if (meshes_.size() != mesh_keys_.size()) {
    throw std::invalid_argument("ServingOracle: meshes/mesh_keys size mismatch");
  }
  if (!encoder_) throw std::invalid_argument("ServingOracle: null encoder");
  if (options_.max_attempts < 1) {
    throw std::invalid_argument("ServingOracle: max_attempts must be >= 1");
  }
}

parallel::StageLatencyResult ServingOracle::PredictOne(std::size_t mesh_index,
                                                       ir::StageSlice slice,
                                                       sim::Mesh mesh) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const graph::EncodedGraph& g = encoder_(slice);
  if (!Hardened()) {
    // Legacy pass-through: no retries, no deadline, exceptions propagate.
    return {service_.Predict(mesh_keys_[mesh_index], g), {}};
  }

  // Ladder rung 1: the learned predictor, up to max_attempts times. Retrying
  // is worthwhile because the service does not cache non-finite answers.
  double late_value = kInf;  // finite answer that missed the deadline, if any
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    try {
      const auto start = std::chrono::steady_clock::now();
      const double value = service_.Predict(mesh_keys_[mesh_index], g);
      const bool late = options_.deadline_ms > 0.0 && ElapsedMs(start) > options_.deadline_ms;
      if (std::isfinite(value) && !late) return {value, {}, false};
      if (late) {
        // The answer is now cached, so a retry would "beat" the deadline
        // vacuously; degrade instead, but remember the value in case there
        // is no fallback to degrade to.
        if (std::isfinite(value)) late_value = value;
        break;
      }
      // Non-finite: fall through and retry.
    } catch (...) {
      // Missing/quarantined model or a (possibly injected) IO failure;
      // retry, then degrade.
    }
  }

  // Ladder rung 2: the analytical fallback. Always finite, tagged degraded.
  degraded_.fetch_add(1, std::memory_order_relaxed);
  if (options_.fallback) return options_.fallback->Estimate(slice, mesh);
  // No fallback configured: a late-but-finite learned answer is still the
  // best available; otherwise surrender the cell to the DP as +inf so the
  // search completes on the remaining cells.
  return {late_value, {}, true};
}

parallel::StageLatencyResult ServingOracle::operator()(ir::StageSlice slice,
                                                       sim::Mesh mesh) const {
  if (max_span_ > 0 && slice.NumLayers() > max_span_) return {kInf, {}};
  for (std::size_t m = 0; m < meshes_.size(); ++m) {
    if (meshes_[m] == mesh) return PredictOne(m, slice, mesh);
  }
  return {kInf, {}};
}

std::vector<parallel::StageLatencyResult> ServingOracle::PredictBatch(
    std::span<const parallel::StageQuery> queries) const {
  std::vector<parallel::StageLatencyResult> results(queries.size(),
                                                    parallel::StageLatencyResult{kInf, {}});
  struct Bucket {
    std::vector<std::size_t> queries;
    std::vector<const graph::EncodedGraph*> graphs;
    std::vector<double> latencies;
    bool failed = false;
  };
  // Phase 1, calling thread: bucket resolvable queries per mesh model and
  // resolve their graphs (the encoder need not be thread-safe). The rest
  // stay at +inf.
  std::vector<Bucket> by_mesh(meshes_.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (max_span_ > 0 && queries[q].slice.NumLayers() > max_span_) continue;
    for (std::size_t m = 0; m < meshes_.size(); ++m) {
      if (meshes_[m] == queries[q].mesh) {
        by_mesh[m].queries.push_back(q);
        by_mesh[m].graphs.push_back(&encoder_(queries[q].slice));
        break;
      }
    }
  }

  // Phase 2: one PredictMany per mesh model, concurrently on the service
  // pool. Unhardened, the first failure propagates; hardened, each bucket
  // records its own failure for phase 3 to re-price.
  const bool hardened = Hardened();
  const auto predict = [&](std::size_t m) {
    Bucket& bucket = by_mesh[m];
    if (bucket.queries.empty()) return;
    try {
      bucket.latencies = service_.PredictMany(mesh_keys_[m], bucket.graphs);
    } catch (...) {
      if (!hardened) throw;
      bucket.failed = true;
    }
  };
  if (util::ThreadPool* pool = service_.ForwardPool()) {
    pool->ParallelFor(by_mesh.size(), predict);
  } else {
    for (std::size_t m = 0; m < by_mesh.size(); ++m) predict(m);
  }

  // Phase 3, calling thread: fill the table. Hardened, a failed bucket (or
  // any individual non-finite answer) is re-priced query-by-query down the
  // scalar ladder; PredictOne counts those queries itself, so only the
  // batch-satisfied remainder is counted here.
  for (std::size_t m = 0; m < by_mesh.size(); ++m) {
    const Bucket& bucket = by_mesh[m];
    for (std::size_t i = 0; i < bucket.queries.size(); ++i) {
      const std::size_t q = bucket.queries[i];
      if (!hardened) {
        queries_.fetch_add(1, std::memory_order_relaxed);
        results[q].latency_s = bucket.latencies[i];
      } else if (!bucket.failed && std::isfinite(bucket.latencies[i])) {
        queries_.fetch_add(1, std::memory_order_relaxed);
        results[q] = {bucket.latencies[i], {}, false};
      } else {
        results[q] = PredictOne(m, queries[q].slice, queries[q].mesh);
      }
    }
  }
  return results;
}

parallel::StageLatencyOracle ServingOracle::AsOracle() const {
  return [this](ir::StageSlice slice, sim::Mesh mesh) { return (*this)(slice, mesh); };
}

parallel::StageLatencyBatchOracle ServingOracle::AsBatchOracle() const {
  return [this](std::span<const parallel::StageQuery> queries) {
    return PredictBatch(queries);
  };
}

OracleStats ServingOracle::Stats() const {
  return {queries_.load(std::memory_order_relaxed), degraded_.load(std::memory_order_relaxed)};
}

void ServingOracle::ResetStats() {
  queries_.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
}

std::vector<ModelKey> RegisterMeshPredictors(ModelRegistry& registry,
                                             const std::string& benchmark,
                                             const std::string& platform,
                                             const std::vector<sim::Mesh>& meshes,
                                             const core::TrainedMeshPredictors& trained) {
  if (meshes.size() != trained.per_mesh.size()) {
    throw std::invalid_argument("RegisterMeshPredictors: meshes/predictors size mismatch");
  }
  std::vector<ModelKey> keys;
  keys.reserve(meshes.size());
  for (std::size_t m = 0; m < meshes.size(); ++m) {
    ModelKey key{benchmark, platform, meshes[m], {}};
    registry.Register(key, trained.per_mesh[m]);
    keys.push_back(std::move(key));
  }
  return keys;
}

}  // namespace predtop::serve
