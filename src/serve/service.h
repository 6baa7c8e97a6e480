#pragma once
// PredictionService: the in-process serving layer between a plan search (or
// any other latency-query stream) and the trained predictors.
//
// Query path, fastest first:
//   1. sharded LRU cache keyed by Mix(model-key hash, DAG fingerprint) —
//      identical stages queried from different plan-search branches hit here
//      without touching a model;
//   2. in-flight coalescing — concurrent requests for the same (model,
//      stage) join one computation instead of duplicating the forward pass
//      (micro-batching of an identical-query burst into a single forward);
//   3. a predictor forward pass (LatencyRegressor::PredictSeconds →
//      StagePredictor::Infer): the compiled program for the stage's shape
//      class, whose activations live at planned offsets in a per-thread
//      buffer and whose weights are per-epoch packed snapshots; an input the
//      program builder refuses is answered on the autograd tape. Safe to run
//      concurrently across requests: each worker thread owns its plan
//      buffer, the weight snapshots are immutable and swapped under a
//      per-program mutex, and the DAG Transformer's depth-keyed
//      positional-encoding cache takes a short per-model lock only around
//      map lookup/insert (the encoding itself is computed outside the lock).
//
// PredictMany additionally batches a caller-provided query set: duplicates
// inside the batch collapse to one forward each, and the distinct misses run
// through one LatencyRegressor::PredictBatch call whose shape groups fan out
// across the service's ThreadPool. Failures propagate to every waiter (never
// swallowed). The inter-op plan search feeds its whole stage-latency table
// through this path via serve::ServingOracle::AsBatchOracle — one
// PredictMany call per mesh model instead of one Predict per DP table cell.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/encode.h"
#include "serve/lru_cache.h"
#include "serve/registry.h"
#include "util/thread_pool.h"

namespace predtop::serve {

struct ServiceOptions {
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 8;
  /// Worker threads of the service pool (0 = hardware_concurrency). With
  /// more than one, PredictMany runs the shape groups of distinct misses,
  /// and each group's members, as concurrent pool tasks (see
  /// core::LatencyRegressor::PredictBatch) and ServingOracle::PredictBatch
  /// prices its per-mesh buckets concurrently. ParallelFor's calling thread
  /// runs tasks too, so a 1-worker pool would still spread forwards over two
  /// threads: with threads = 1 PredictMany runs every forward on the calling
  /// thread, and no other pool is used in its place.
  std::size_t threads = 1;
  /// Shed headroom for deadline-carrying queries: a forward is skipped (and
  /// the query fails typed kDeadlineExceeded) unless at least this many
  /// microseconds remain before the deadline — a forward that cannot finish
  /// in time is wasted CPU that an overloaded server cannot spare.
  std::uint64_t deadline_margin_us = 0;
};

struct ServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t forwards = 0;   // actual model forward passes
  std::uint64_t coalesced = 0;  // requests that joined an in-flight forward
  std::uint64_t batches = 0;    // PredictMany calls
  std::uint64_t batched_queries = 0;
  std::uint64_t expired = 0;    // queries shed before the forward (deadline)
  std::uint64_t late = 0;       // forwards that finished past their deadline
  CacheStats cache;
  // Program cache outcomes, snapshotted from the process-wide compile layer
  // (not per-service; monotonic across ResetStats).
  std::uint64_t program_cache_hits = 0;
  std::uint64_t program_cache_misses = 0;
};

class PredictionService {
 public:
  PredictionService(std::shared_ptr<ModelRegistry> registry, ServiceOptions options = {});

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Predict the stage latency (seconds) of one encoded stage DAG under the
  /// model registered for `key`. Throws std::runtime_error when no model is
  /// registered. `deadline_us` is an absolute steady-clock deadline
  /// (util::SteadyNowUs base; 0 = none): an already-expired query is shed
  /// with fault::FaultError(kDeadlineExceeded) *before* the forward runs —
  /// cache hits still serve (they are effectively free).
  [[nodiscard]] double Predict(const ModelKey& key, const graph::EncodedGraph& g,
                               std::uint64_t deadline_us = 0);

  /// Micro-batched query: duplicate stages inside the batch are predicted
  /// once. Distinct misses run through one LatencyRegressor::PredictBatch
  /// call whose shape groups fan out across the service pool
  /// (ServiceOptions::threads > 1).
  /// Returns latencies parallel to `graphs`. A nonzero `deadline_us` sheds every
  /// not-yet-forwarded query once the deadline (minus the configured margin)
  /// passes; the batch fails as a whole with kDeadlineExceeded.
  [[nodiscard]] std::vector<double> PredictMany(
      const ModelKey& key, std::span<const graph::EncodedGraph* const> graphs,
      std::uint64_t deadline_us = 0);

  /// Cache key of one (model, stage) query — exposed for tests and for
  /// callers that precompute fingerprints.
  [[nodiscard]] static std::uint64_t CacheKey(const ModelKey& key,
                                              const graph::EncodedGraph& g);

  [[nodiscard]] ServiceStats Stats() const;
  void ResetStats();
  /// Drop all cached predictions (cold-start measurements).
  void ClearCache();

  [[nodiscard]] ModelRegistry& Registry() noexcept { return *registry_; }
  [[nodiscard]] util::ThreadPool& Pool() noexcept { return pool_; }
  /// The pool forwards fan out on: Pool() when it has more than one worker,
  /// else null (run on the calling thread). See ServiceOptions::threads.
  [[nodiscard]] util::ThreadPool* ForwardPool() noexcept;

 private:
  [[nodiscard]] double PredictWithKey(const ModelKey& key, const graph::EncodedGraph& g,
                                      std::uint64_t cache_key,
                                      std::uint64_t deadline_us = 0);

  /// PredictMany's miss path: probe/shed/claim each distinct
  /// query, then run ALL owned misses through one LatencyRegressor::
  /// PredictBatch call on ForwardPool(), fulfilling every promise with
  /// per-query cache-put, fault-injection, and late accounting identical to
  /// PredictWithKey.
  void PredictDistinctBatched(const ModelKey& key,
                              std::span<const graph::EncodedGraph* const> graphs,
                              const std::vector<std::uint64_t>& cache_keys,
                              const std::vector<std::size_t>& distinct,
                              std::vector<double>& distinct_values,
                              std::uint64_t deadline_us);

  std::shared_ptr<ModelRegistry> registry_;
  ShardedLruCache cache_;
  util::ThreadPool pool_;
  std::uint64_t deadline_margin_us_ = 0;

  std::mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_future<double>> inflight_;

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_queries_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> late_{0};
};

}  // namespace predtop::serve
