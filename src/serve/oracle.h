#pragma once
// Plan-search integration: adapt a PredictionService to the
// parallel::StageLatencyOracle interface, so the Alpa-style inter-op DP
// consults the serving layer instead of a raw predictor. The DP queries the
// same (stage, mesh) pair from many enumeration branches; the service's
// fingerprint cache turns those repeats into O(1) hits, which is where the
// optimization-cost reduction beyond plain prediction comes from.
//
// The oracle is also where the serving path degrades instead of failing
// (ServingOracleOptions): a query that throws (model missing or quarantined),
// returns a non-finite latency, or overruns its deadline walks the ladder
//   learned predictor -> bounded retries -> analytical FallbackOracle
// and the answer is tagged degraded so the chosen plan reports which stages
// were priced by the fallback. With default options the oracle is a plain
// pass-through — exceptions propagate and no deadline is enforced — so
// existing callers see bit-identical behavior.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/plan_search.h"
#include "parallel/inter_op.h"
#include "serve/fallback.h"
#include "serve/service.h"

namespace predtop::serve {

/// Resolves a stage slice to its encoded predictor input. Memoization is the
/// resolver's business: core::PlanSearch::EncodedFor resolves slices through
/// a core::StageEncodings store, so slices with equal pruned DAGs return the
/// same encoding. That store takes no lock, so an oracle called from several
/// threads needs every slice encoded beforehand or a serializing encoder.
using StageEncoder = std::function<const graph::EncodedGraph&(ir::StageSlice)>;

struct ServingOracleOptions {
  /// Per-query wall-clock budget for the scalar path, milliseconds (0 = no
  /// deadline). A forward that answers later than this is treated as failed
  /// and the query degrades. The batch path is not deadline-checked — it
  /// degrades on errors and non-finite answers only, since one PredictMany
  /// call prices hundreds of cells and has no per-cell wall clock.
  double deadline_ms = 0.0;
  /// Forward attempts before degrading. Retries make sense because the
  /// service never caches non-finite answers — a transient injected NaN can
  /// succeed on the next attempt.
  int max_attempts = 1;
  /// Bottom of the ladder; null = legacy behavior (exceptions propagate).
  std::shared_ptr<FallbackOracle> fallback;
};

struct OracleStats {
  std::uint64_t queries = 0;   // queries that resolved to a mesh model
  std::uint64_t degraded = 0;  // of those, answered below the top rung
};

class ServingOracle {
 public:
  /// `mesh_keys[i]` names the registered model serving mesh `meshes[i]`.
  /// Slices longer than `max_span` layers (0 = unbounded) and unknown meshes
  /// yield +inf, matching the direct-predictor oracle's pruning (that is
  /// search-space semantics, not degradation — those cells are never counted
  /// degraded).
  ServingOracle(PredictionService& service, std::vector<sim::Mesh> meshes,
                std::vector<ModelKey> mesh_keys, StageEncoder encoder,
                std::int32_t max_span = 0, ServingOracleOptions options = {});

  [[nodiscard]] parallel::StageLatencyResult operator()(ir::StageSlice slice,
                                                        sim::Mesh mesh) const;

  /// Answer a whole stage-latency table at once, in three phases. Queries
  /// are grouped per mesh model and encoded on the calling thread (the
  /// encoder may memoize and need not be thread-safe). The per-mesh
  /// PredictionService::PredictMany calls, which dedupe repeated stages and
  /// run the distinct misses' shape groups on the service pool, then run
  /// concurrently on that pool (PredictionService::ForwardPool). Results
  /// are filled on the calling thread. Unknown meshes / over-span slices
  /// yield +inf, exactly like operator(). When degradation is configured, a
  /// bucket whose batch call fails — and any individual non-finite answer —
  /// is re-priced query-by-query down the ladder on the calling thread;
  /// otherwise the first failure propagates.
  [[nodiscard]] std::vector<parallel::StageLatencyResult> PredictBatch(
      std::span<const parallel::StageQuery> queries) const;

  /// Wrap as the std::function the inter-op optimizer consumes. The oracle
  /// must outlive the returned function.
  [[nodiscard]] parallel::StageLatencyOracle AsOracle() const;

  /// Batched counterpart of AsOracle() for InterOpOptimizer::Optimize's
  /// batch overload. The oracle must outlive the returned function.
  [[nodiscard]] parallel::StageLatencyBatchOracle AsBatchOracle() const;

  [[nodiscard]] OracleStats Stats() const;
  void ResetStats();

 private:
  /// The degradation ladder for one mesh-resolved query.
  [[nodiscard]] parallel::StageLatencyResult PredictOne(std::size_t mesh_index,
                                                        ir::StageSlice slice,
                                                        sim::Mesh mesh) const;
  [[nodiscard]] bool Hardened() const noexcept {
    return options_.fallback != nullptr || options_.max_attempts > 1 ||
           options_.deadline_ms > 0.0;
  }

  PredictionService& service_;
  std::vector<sim::Mesh> meshes_;
  std::vector<ModelKey> mesh_keys_;
  StageEncoder encoder_;
  std::int32_t max_span_;
  ServingOracleOptions options_;
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> degraded_{0};
};

/// Register one trained regressor per mesh of `search` under
/// (benchmark, platform) coordinates and return the per-mesh keys.
[[nodiscard]] std::vector<ModelKey> RegisterMeshPredictors(
    ModelRegistry& registry, const std::string& benchmark, const std::string& platform,
    const std::vector<sim::Mesh>& meshes, const core::TrainedMeshPredictors& trained);

}  // namespace predtop::serve
