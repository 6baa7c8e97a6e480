#include "serve/service.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "compile/cache.h"
#include "fault/injector.h"
#include "fault/status.h"
#include "graph/fingerprint.h"
#include "util/timer.h"

namespace predtop::serve {

namespace {

constexpr std::uint64_t Mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

PredictionService::PredictionService(std::shared_ptr<ModelRegistry> registry,
                                     ServiceOptions options)
    : registry_(std::move(registry)),
      cache_(options.cache_capacity, options.cache_shards),
      pool_(options.threads),
      deadline_margin_us_(options.deadline_margin_us) {
  if (!registry_) throw std::invalid_argument("PredictionService: null registry");
}

std::uint64_t PredictionService::CacheKey(const ModelKey& key, const graph::EncodedGraph& g) {
  return Mix(key.Hash() ^ graph::EncodedGraphFingerprint(g));
}

double PredictionService::Predict(const ModelKey& key, const graph::EncodedGraph& g,
                                  std::uint64_t deadline_us) {
  return PredictWithKey(key, g, CacheKey(key, g), deadline_us);
}

double PredictionService::PredictWithKey(const ModelKey& key, const graph::EncodedGraph& g,
                                         std::uint64_t cache_key,
                                         std::uint64_t deadline_us) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (const auto hit = cache_.Get(cache_key)) return *hit;

  // Shed before any real work: an expired query (or one that cannot finish
  // inside the margin) must not burn a forward pass the caller has already
  // abandoned. Cache hits above still serve — they are effectively free.
  if (util::DeadlineExpired(deadline_us, deadline_margin_us_)) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    throw fault::FaultError(fault::StatusCode::kDeadlineExceeded,
                            "query shed: deadline already passed before the forward");
  }

  // Join an in-flight computation of the same query, or become its owner.
  std::promise<double> promise;
  std::shared_future<double> joined;
  {
    const std::scoped_lock lock(inflight_mutex_);
    if (const auto it = inflight_.find(cache_key); it != inflight_.end()) {
      joined = it->second;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
    } else {
      inflight_.emplace(cache_key, promise.get_future().share());
    }
  }
  // Wait outside the lock so unrelated queries keep flowing; get() rethrows
  // the owner's exception, if any.
  if (joined.valid()) return joined.get();

  double value = 0.0;
  try {
    // Double-checked probe: a finisher puts into the cache *before* erasing
    // its in-flight entry, so a requester racing that gap can miss the cache
    // and then find no computation to join. Re-probing after winning
    // ownership turns that race into a hit instead of a duplicate forward.
    if (const auto cached = cache_.Get(cache_key)) {
      value = *cached;
    } else {
      const auto model = registry_->Find(key);
      if (!model) {
        throw std::runtime_error("PredictionService: no model registered for " +
                                 key.ToString());
      }
      value = model->PredictSeconds(g);
      forwards_.fetch_add(1, std::memory_order_relaxed);
      if (auto& injector = fault::Injector::Global(); injector.Enabled()) {
        if (const double delay_ms = injector.FireDelayMs(fault::sites::kPredictDelayMs,
                                                         fault::sites::kPredictDelayP);
            delay_ms > 0.0) {
          fault::SleepForMs(delay_ms);
        }
        if (injector.ShouldInject(fault::sites::kPredictNan)) {
          value = std::numeric_limits<double>::quiet_NaN();
        }
      }
      // The overload drill's core invariant is "zero requests computed after
      // their deadline" — count any forward that finished late (the shed
      // margin above is sized to make this impossible; the counter proves it).
      if (deadline_us != 0 && util::SteadyNowUs() > deadline_us) {
        late_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } catch (...) {
    promise.set_exception(std::current_exception());
    const std::scoped_lock lock(inflight_mutex_);
    inflight_.erase(cache_key);
    throw;
  }
  // Never cache a non-finite answer: a NaN/inf forward (injected or from a
  // corrupted model) must stay retryable, not become a sticky cache hit that
  // poisons every later query of the same stage.
  if (std::isfinite(value)) cache_.Put(cache_key, value);
  promise.set_value(value);
  {
    const std::scoped_lock lock(inflight_mutex_);
    inflight_.erase(cache_key);
  }
  return value;
}

std::vector<double> PredictionService::PredictMany(
    const ModelKey& key, std::span<const graph::EncodedGraph* const> graphs,
    std::uint64_t deadline_us) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_queries_.fetch_add(graphs.size(), std::memory_order_relaxed);

  // Micro-batch: collapse duplicate stages to one computation each.
  std::vector<std::uint64_t> cache_keys(graphs.size());
  std::unordered_map<std::uint64_t, std::size_t> first_of;  // cache key -> distinct slot
  std::vector<std::size_t> distinct;                        // positions of first occurrences
  first_of.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    cache_keys[i] = CacheKey(key, *graphs[i]);
    if (first_of.emplace(cache_keys[i], distinct.size()).second) distinct.push_back(i);
  }

  // All owned misses run through ONE PredictBatch call, which groups by
  // shape class, amortizes program/snapshot/plan resolution per group, and
  // runs the groups on the service pool.
  std::vector<double> distinct_values(distinct.size(), 0.0);
  PredictDistinctBatched(key, graphs, cache_keys, distinct, distinct_values, deadline_us);

  std::vector<double> results(graphs.size(), 0.0);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    results[i] = distinct_values[first_of.at(cache_keys[i])];
  }
  return results;
}

util::ThreadPool* PredictionService::ForwardPool() noexcept {
  // ParallelFor's caller runs tasks too, so even a 1-worker pool would put
  // forwards on two threads; a one-thread service keeps them on the caller.
  return pool_.ThreadCount() > 1 ? &pool_ : nullptr;
}

void PredictionService::PredictDistinctBatched(
    const ModelKey& key, std::span<const graph::EncodedGraph* const> graphs,
    const std::vector<std::uint64_t>& cache_keys, const std::vector<std::size_t>& distinct,
    std::vector<double>& distinct_values, std::uint64_t deadline_us) {
  struct OwnedMiss {
    std::size_t d = 0;  // distinct slot
    std::size_t i = 0;  // position in graphs
    std::promise<double> promise;
  };
  std::vector<OwnedMiss> owned;
  std::vector<std::pair<std::size_t, std::shared_future<double>>> joins;
  // Promises fulfilled so far; on exception the rest fail with it so no
  // coalesced waiter hangs.
  std::size_t done = 0;

  try {
    for (std::size_t d = 0; d < distinct.size(); ++d) {
      const std::size_t i = distinct[d];
      const std::uint64_t ck = cache_keys[i];
      queries_.fetch_add(1, std::memory_order_relaxed);
      if (const auto hit = cache_.Get(ck)) {
        distinct_values[d] = *hit;
        continue;
      }
      if (util::DeadlineExpired(deadline_us, deadline_margin_us_)) {
        expired_.fetch_add(1, std::memory_order_relaxed);
        throw fault::FaultError(fault::StatusCode::kDeadlineExceeded,
                                "query shed: deadline already passed before the forward");
      }
      std::promise<double> promise;
      std::shared_future<double> joined;
      {
        const std::scoped_lock lock(inflight_mutex_);
        if (const auto it = inflight_.find(ck); it != inflight_.end()) {
          joined = it->second;
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        } else {
          inflight_.emplace(ck, promise.get_future().share());
        }
      }
      if (joined.valid()) {
        joins.emplace_back(d, std::move(joined));
        continue;
      }
      // Ownership won. Double-checked probe, same reasoning as PredictWithKey:
      // a finisher puts before erasing its in-flight entry.
      if (const auto cached = cache_.Get(ck)) {
        distinct_values[d] = *cached;
        promise.set_value(*cached);
        const std::scoped_lock lock(inflight_mutex_);
        inflight_.erase(ck);
        continue;
      }
      owned.push_back({d, i, std::move(promise)});
    }

    if (!owned.empty()) {
      // Shed the whole remaining miss set if the deadline passed during the
      // scan — the batched forward below is exactly the work shedding saves.
      if (util::DeadlineExpired(deadline_us, deadline_margin_us_)) {
        expired_.fetch_add(owned.size(), std::memory_order_relaxed);
        throw fault::FaultError(fault::StatusCode::kDeadlineExceeded,
                                "batch shed: deadline passed before the batched forward");
      }
      const auto model = registry_->Find(key);
      if (!model) {
        throw std::runtime_error("PredictionService: no model registered for " +
                                 key.ToString());
      }
      std::vector<const graph::EncodedGraph*> miss_graphs;
      miss_graphs.reserve(owned.size());
      for (const OwnedMiss& o : owned) miss_graphs.push_back(graphs[o.i]);
      const std::vector<double> values =
          model->PredictBatch(std::span<const graph::EncodedGraph* const>(miss_graphs),
                              ForwardPool());
      forwards_.fetch_add(owned.size(), std::memory_order_relaxed);

      auto& injector = fault::Injector::Global();
      for (; done < owned.size(); ++done) {
        OwnedMiss& o = owned[done];
        double value = values[done];
        if (injector.Enabled()) {
          if (const double delay_ms = injector.FireDelayMs(fault::sites::kPredictDelayMs,
                                                           fault::sites::kPredictDelayP);
              delay_ms > 0.0) {
            fault::SleepForMs(delay_ms);
          }
          if (injector.ShouldInject(fault::sites::kPredictNan)) {
            value = std::numeric_limits<double>::quiet_NaN();
          }
        }
        if (deadline_us != 0 && util::SteadyNowUs() > deadline_us) {
          late_.fetch_add(1, std::memory_order_relaxed);
        }
        // Same finite-only rule as PredictWithKey: non-finite answers stay
        // retryable instead of becoming sticky cache hits.
        if (std::isfinite(value)) cache_.Put(cache_keys[o.i], value);
        distinct_values[o.d] = value;
        o.promise.set_value(value);
        const std::scoped_lock lock(inflight_mutex_);
        inflight_.erase(cache_keys[o.i]);
      }
    }
  } catch (...) {
    const auto ex = std::current_exception();
    for (std::size_t j = done; j < owned.size(); ++j) {
      owned[j].promise.set_exception(ex);
      const std::scoped_lock lock(inflight_mutex_);
      inflight_.erase(cache_keys[owned[j].i]);
    }
    throw;
  }

  // Wait on coalesced computations last (outside any lock); get() rethrows
  // the owner's exception, matching the sequential path.
  for (auto& [d, fut] : joins) distinct_values[d] = fut.get();
}

ServiceStats PredictionService::Stats() const {
  ServiceStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.forwards = forwards_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.late = late_.load(std::memory_order_relaxed);
  stats.cache = cache_.Stats();
  auto& programs = compile::ProgramCache::Global();
  stats.program_cache_hits = programs.Hits();
  stats.program_cache_misses = programs.Misses();
  return stats;
}

void PredictionService::ResetStats() {
  queries_ = forwards_ = coalesced_ = batches_ = batched_queries_ = 0;
  expired_ = late_ = 0;
  cache_.ResetStats();
}

void PredictionService::ClearCache() { cache_.Clear(); }

}  // namespace predtop::serve
