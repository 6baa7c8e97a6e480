// Tests for the predtop::serve subsystem: checkpoint round-trips (and their
// failure modes), DAG fingerprints, the sharded LRU cache, the model
// registry, the prediction service, and the serving-backed plan search.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "compile/cache.h"
#include "compile/program.h"
#include "core/plan_search.h"
#include "fault/injector.h"
#include "fault/status.h"
#include "graph/fingerprint.h"
#include "ir/stages.h"
#include "nn/linear.h"
#include "serve/fallback.h"
#include "serve/lru_cache.h"
#include "serve/oracle.h"
#include "serve/service.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace predtop::serve {
namespace {

ir::Gpt3Config TinyGptConfig() {
  ir::Gpt3Config config;
  config.seq_len = 64;
  config.hidden = 64;
  config.num_layers = 4;
  config.num_heads = 4;
  config.vocab = 512;
  config.microbatch = 2;
  return config;
}

core::PredictorOptions TinyOptions() {
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  options.gcn_dim = 32;
  options.gcn_layers = 3;
  options.gat_dim = 16;
  options.gat_layers = 3;
  return options;
}

/// One labeled tiny dataset shared by the checkpoint tests (built once —
/// compilation is the slow part).
const core::StageDataset& TinyDataset() {
  static const core::StageDataset dataset = [] {
    const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
    const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 2});
    sim::Profiler profiler({}, 21);
    core::DatasetBuildConfig build;  // all 10 stages of the 4-layer model
    return BuildStageDataset(benchmark, compiler, {2, 1, 1}, profiler, build);
  }();
  return dataset;
}

core::LatencyRegressor TrainTinyRegressor(core::PredictorKind kind) {
  const core::StageDataset& dataset = TinyDataset();
  core::LatencyRegressor regressor(kind, TinyOptions());
  nn::TrainConfig train;
  train.max_epochs = 30;
  train.patience = 30;
  train.batch_size = 4;
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  regressor.Fit(dataset, idx, idx, train);
  return regressor;
}

// ---- checkpoint round-trip ----

TEST(Checkpoint, RoundTripIsBitIdenticalForAllPredictorKinds) {
  for (const core::PredictorKind kind :
       {core::PredictorKind::kDagTransformer, core::PredictorKind::kGcn,
        core::PredictorKind::kGat}) {
    core::LatencyRegressor trained = TrainTinyRegressor(kind);
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    trained.Save(buffer);
    core::LatencyRegressor reloaded = core::LatencyRegressor::Load(buffer);
    EXPECT_EQ(reloaded.Kind(), kind);
    for (const core::StageSample& sample : TinyDataset().samples) {
      // Bit-identical, not approximately equal: the state dict stores exact
      // f32 weights and f64 normalization stats.
      EXPECT_EQ(reloaded.PredictSeconds(sample.encoded),
                trained.PredictSeconds(sample.encoded))
          << core::PredictorKindName(kind);
    }
  }
}

TEST(Checkpoint, FileRoundTripMatches) {
  core::LatencyRegressor trained = TrainTinyRegressor(core::PredictorKind::kDagTransformer);
  const std::string path =
      (std::filesystem::temp_directory_path() / "predtop_serve_test.ptck").string();
  trained.Save(path);
  core::LatencyRegressor reloaded = core::LatencyRegressor::Load(path);
  for (const core::StageSample& sample : TinyDataset().samples) {
    EXPECT_EQ(reloaded.PredictSeconds(sample.encoded), trained.PredictSeconds(sample.encoded));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBadMagic) {
  core::LatencyRegressor trained = TrainTinyRegressor(core::PredictorKind::kGcn);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  trained.Save(buffer);
  std::string bytes = buffer.str();
  bytes[0] = 'X';
  std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW((void)core::LatencyRegressor::Load(corrupt), std::runtime_error);
}

TEST(Checkpoint, RejectsUnsupportedVersion) {
  core::LatencyRegressor trained = TrainTinyRegressor(core::PredictorKind::kGcn);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  trained.Save(buffer);
  std::string bytes = buffer.str();
  bytes[4] = static_cast<char>(0x7f);  // version field follows the u32 magic
  std::stringstream corrupt(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW((void)core::LatencyRegressor::Load(corrupt), std::runtime_error);
}

TEST(Checkpoint, RejectsTruncation) {
  core::LatencyRegressor trained = TrainTinyRegressor(core::PredictorKind::kGat);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  trained.Save(buffer);
  const std::string bytes = buffer.str();
  // Cut at several depths: inside the header, the options, and the weights.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{9}, bytes.size() / 2, bytes.size() - 5}) {
    std::stringstream truncated(bytes.substr(0, keep), std::ios::in | std::ios::binary);
    EXPECT_THROW((void)core::LatencyRegressor::Load(truncated), std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(Checkpoint, StateDictRejectsShapeMismatch) {
  util::Rng rng(7);
  nn::Linear small(4, 2, rng);
  nn::Linear large(4, 3, rng);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  small.Save(buffer);
  EXPECT_THROW(large.Load(buffer), std::runtime_error);
}

// ---- fingerprints ----

graph::OpDag DiamondDag(std::int32_t perturb_op = 0, bool extra_edge = false) {
  graph::OpDag dag;
  graph::DagNode a{graph::NodeKind::kInput, 0, 0, {8, 1, 1, 1}};
  graph::DagNode b{graph::NodeKind::kOperator, 3, 0, {8, 4, 1, 1}};
  graph::DagNode c{graph::NodeKind::kOperator, 5 + perturb_op, 0, {8, 4, 1, 1}};
  graph::DagNode d{graph::NodeKind::kOutput, 0, 0, {8, 4, 1, 1}};
  const auto ia = dag.AddNode(a), ib = dag.AddNode(b), ic = dag.AddNode(c),
             id = dag.AddNode(d);
  dag.AddEdge(ia, ib);
  dag.AddEdge(ia, ic);
  dag.AddEdge(ib, id);
  dag.AddEdge(ic, id);
  if (extra_edge) dag.AddEdge(ib, ic);
  return dag;
}

TEST(Fingerprint, InsertionOrderIndependent) {
  // The same diamond with its middle nodes inserted in swapped order (and
  // edges remapped accordingly) must fingerprint identically.
  graph::OpDag permuted;
  graph::DagNode a{graph::NodeKind::kInput, 0, 0, {8, 1, 1, 1}};
  graph::DagNode b{graph::NodeKind::kOperator, 3, 0, {8, 4, 1, 1}};
  graph::DagNode c{graph::NodeKind::kOperator, 5, 0, {8, 4, 1, 1}};
  graph::DagNode d{graph::NodeKind::kOutput, 0, 0, {8, 4, 1, 1}};
  const auto id = permuted.AddNode(d), ic = permuted.AddNode(c), ib = permuted.AddNode(b),
             ia = permuted.AddNode(a);
  permuted.AddEdge(ia, ib);
  permuted.AddEdge(ia, ic);
  permuted.AddEdge(ib, id);
  permuted.AddEdge(ic, id);
  EXPECT_EQ(graph::DagFingerprint(DiamondDag()), graph::DagFingerprint(permuted));
}

TEST(Fingerprint, SensitiveToNodeAndEdgePerturbations) {
  const std::uint64_t base = graph::DagFingerprint(DiamondDag());
  EXPECT_NE(base, graph::DagFingerprint(DiamondDag(/*perturb_op=*/1)));
  EXPECT_NE(base, graph::DagFingerprint(DiamondDag(0, /*extra_edge=*/true)));

  graph::OpDag bigger_dims = DiamondDag();
  bigger_dims.Node(1).out_dims[1] = 16;
  EXPECT_NE(base, graph::DagFingerprint(bigger_dims));

  graph::OpDag other_kind = DiamondDag();
  other_kind.Node(2).kind = graph::NodeKind::kLiteral;
  EXPECT_NE(base, graph::DagFingerprint(other_kind));
}

TEST(Fingerprint, EncodedGraphEqualStagesHashEqual) {
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g1 = core::EncodeStage(benchmark.build_stage({1, 3}));
  const graph::EncodedGraph g2 = core::EncodeStage(benchmark.build_stage({1, 3}));
  const graph::EncodedGraph other = core::EncodeStage(benchmark.build_stage({0, 3}));
  EXPECT_EQ(graph::EncodedGraphFingerprint(g1), graph::EncodedGraphFingerprint(g2));
  EXPECT_NE(graph::EncodedGraphFingerprint(g1), graph::EncodedGraphFingerprint(other));
}

// ---- LRU cache ----

TEST(LruCache, HitsMissesAndEviction) {
  ShardedLruCache cache(/*capacity=*/4, /*shards=*/1);
  EXPECT_FALSE(cache.Get(1).has_value());
  for (std::uint64_t k = 1; k <= 4; ++k) cache.Put(k, static_cast<double>(k));
  EXPECT_EQ(cache.Get(1), 1.0);
  cache.Put(5, 5.0);  // evicts 2, the least recently used
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1), 1.0);
  EXPECT_EQ(cache.Get(5), 5.0);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(LruCache, PutUpdatesExistingKey) {
  ShardedLruCache cache(4, 2);
  cache.Put(42, 1.0);
  cache.Put(42, 2.0);
  EXPECT_EQ(cache.Get(42), 2.0);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(LruCache, CapacityReportsEnforcedBudget) {
  // Regression: per-shard budgets used to be rounded up and multiplied back,
  // so ShardedLruCache(10, 8).Capacity() reported 16 while the requested
  // budget was 10. Capacity() now equals the sum of per-shard budgets.
  EXPECT_EQ(ShardedLruCache(10, 8).Capacity(), 10u);
  EXPECT_EQ(ShardedLruCache(16, 8).Capacity(), 16u);
  EXPECT_EQ(ShardedLruCache(100, 1).Capacity(), 100u);
  // A shard never drops below one entry, so tiny budgets round up to the
  // shard count — the one case where Capacity() may exceed the request.
  EXPECT_EQ(ShardedLruCache(3, 8).Capacity(), 8u);
}

TEST(LruCache, EvictsLeastRecentlyUsedInOrder) {
  // Single shard so the global LRU order is observable: shard selection uses
  // key bits 48-63, so with multiple shards small keys would all collide in
  // shard 0 anyway — but we pin shards=1 to make the budget exact too.
  ShardedLruCache cache(/*capacity=*/3, /*shards=*/1);
  cache.Put(1, 1.0);
  cache.Put(2, 2.0);
  cache.Put(3, 3.0);
  EXPECT_EQ(cache.Get(1), 1.0);  // refresh 1: order now (LRU) 2, 3, 1 (MRU)
  cache.Put(4, 4.0);             // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  cache.Put(5, 5.0);  // evicts 3
  EXPECT_FALSE(cache.Get(3).has_value());
  EXPECT_EQ(cache.Get(1), 1.0);  // the refreshed key survived both evictions
  EXPECT_EQ(cache.Get(4), 4.0);
  EXPECT_EQ(cache.Get(5), 5.0);
  EXPECT_EQ(cache.Stats().evictions, 2u);
  EXPECT_EQ(cache.Stats().entries, 3u);
}

// ---- registry ----

TEST(Registry, RegisterFindAndKeys) {
  ModelRegistry registry;
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 2}, {}};
  EXPECT_EQ(registry.Find(key), nullptr);
  registry.Register(key, std::make_shared<core::LatencyRegressor>(
                             core::PredictorKind::kGcn, TinyOptions()));
  EXPECT_NE(registry.Find(key), nullptr);
  EXPECT_EQ(registry.Size(), 1u);
  ASSERT_EQ(registry.Keys().size(), 1u);
  EXPECT_EQ(registry.Keys()[0], key);

  const ModelKey other{"gpt3", "platform1", sim::Mesh{2, 2}, {}};
  EXPECT_EQ(registry.Find(other), nullptr);
  EXPECT_NE(key.Hash(), other.Hash());
  EXPECT_THROW(registry.Register(key, nullptr), std::invalid_argument);
}

TEST(Registry, RegisterFromFileIsStrongExceptionSafe) {
  // A reload that hits a truncated checkpoint must throw and leave the
  // previously registered model in place — never a half-registered or
  // evicted entry.
  ModelRegistry registry;
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 2}, {}};
  const auto original = std::make_shared<core::LatencyRegressor>(
      core::PredictorKind::kGcn, TinyOptions());
  registry.Register(key, original);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string good = (dir / "predtop_registry_good.ptck").string();
  const std::string corrupt = (dir / "predtop_registry_corrupt.ptck").string();
  registry.SaveToFile(key, good);
  {
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  EXPECT_THROW(registry.RegisterFromFile(key, corrupt), std::runtime_error);
  EXPECT_EQ(registry.Find(key), original);  // untouched, same instance
  EXPECT_EQ(registry.Size(), 1u);

  EXPECT_THROW(registry.RegisterFromFile(key, (dir / "predtop_no_such.ptck").string()),
               std::runtime_error);
  EXPECT_EQ(registry.Find(key), original);

  registry.RegisterFromFile(key, good);  // a healthy reload still replaces
  EXPECT_NE(registry.Find(key), nullptr);
  EXPECT_NE(registry.Find(key), original);
  std::remove(good.c_str());
  std::remove(corrupt.c_str());
}

// ---- prediction service ----

TEST(Service, CachesRepeatQueriesAndCountsForwards) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  PredictionService service(registry);

  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g = core::EncodeStage(benchmark.build_stage({0, 2}));
  const double first = service.Predict(key, g);
  const double second = service.Predict(key, g);
  EXPECT_EQ(first, second);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.forwards, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);

  service.ClearCache();
  EXPECT_EQ(service.Predict(key, g), first);
  EXPECT_EQ(service.Stats().forwards, 2u);
}

TEST(Service, UnknownModelThrows) {
  PredictionService service(std::make_shared<ModelRegistry>());
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g = core::EncodeStage(benchmark.build_stage({0, 1}));
  EXPECT_THROW((void)service.Predict({"gpt3", "p1", sim::Mesh{1, 1}, {}}, g),
               std::runtime_error);
}

TEST(Service, ShedsQueriesWhoseDeadlineAlreadyPassed) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  PredictionService service(registry);
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g = core::EncodeStage(benchmark.build_stage({0, 2}));

  // A deadline one second in the past: shed typed, before any forward runs.
  const std::uint64_t expired = util::SteadyNowUs() - 1'000'000;
  try {
    (void)service.Predict(key, g, expired);
    FAIL() << "expired deadline not shed";
  } catch (const fault::FaultError& e) {
    EXPECT_EQ(e.code(), fault::StatusCode::kDeadlineExceeded);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.forwards, 0u);

  // Cached answers still serve under an expired deadline — the work is
  // already done, so shedding it would save nothing.
  const double value = service.Predict(key, g, util::DeadlineAfterMs(5000.0));
  EXPECT_EQ(service.Predict(key, g, expired), value);
  stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.forwards, 1u);

  // PredictMany sheds the whole batch the same way — using a graph that is
  // not already cached (cached batches, like cached singles, still serve).
  const graph::EncodedGraph uncached = core::EncodeStage(benchmark.build_stage({1, 3}));
  const std::vector<const graph::EncodedGraph*> batch{&uncached, &uncached};
  EXPECT_THROW((void)service.PredictMany(key, batch, expired), fault::FaultError);
}

TEST(Service, DeadlineMarginShedsForwardsThatCannotFinishInTime) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  ServiceOptions options;
  options.deadline_margin_us = 60'000'000;  // a minute of required headroom
  PredictionService service(registry, options);
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g = core::EncodeStage(benchmark.build_stage({0, 2}));

  // The deadline is comfortably in the future, but inside the margin: the
  // service predicts the forward cannot finish in time and sheds it.
  try {
    (void)service.Predict(key, g, util::DeadlineAfterMs(1000.0));
    FAIL() << "margin did not shed";
  } catch (const fault::FaultError& e) {
    EXPECT_EQ(e.code(), fault::StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(service.Stats().expired, 1u);
  EXPECT_EQ(service.Stats().forwards, 0u);
}

TEST(Service, CountsForwardsThatCompleteLate) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  PredictionService service(registry);
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g = core::EncodeStage(benchmark.build_stage({0, 2}));

  // The deadline is alive when the forward starts but the (injected) forward
  // outlives it: the answer still returns — late, and counted as such.
  struct Guard {
    Guard() { fault::Injector::Global().Configure("predict_delay_ms:120", 1); }
    ~Guard() { fault::Injector::Global().Disable(); }
  } guard;
  (void)service.Predict(key, g, util::DeadlineAfterMs(30.0));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.forwards, 1u);
}

TEST(Service, PredictManyDedupesAndFansOut) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kGcn, TinyOptions()));
  ServiceOptions options;
  options.threads = 2;
  PredictionService service(registry, options);

  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g1 = core::EncodeStage(benchmark.build_stage({0, 2}));
  const graph::EncodedGraph g2 = core::EncodeStage(benchmark.build_stage({2, 4}));
  const std::vector<const graph::EncodedGraph*> batch{&g1, &g2, &g1, &g2, &g1};
  const std::vector<double> results = service.PredictMany(key, batch);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(results[0], results[4]);
  EXPECT_EQ(results[1], results[3]);
  EXPECT_NE(results[0], results[1]);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 5u);
  EXPECT_EQ(stats.forwards, 2u);  // the three duplicates never reach a model
}

TEST(Service, ConcurrentIdenticalQueriesCoalesceOrHitCache) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kGat, TinyOptions()));
  PredictionService service(registry);
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g = core::EncodeStage(benchmark.build_stage({0, 3}));

  constexpr int kThreads = 8;
  std::vector<double> values(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { values[static_cast<std::size_t>(t)] = service.Predict(key, g); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(values[0], values[static_cast<std::size_t>(t)]);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.forwards, 1u);  // everyone else hit the cache or coalesced
  EXPECT_EQ(stats.cache.hits + stats.coalesced, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Service, ConcurrentPredictManyWithOverlappingKeys) {
  // Two callers batch overlapping query sets concurrently. The shared stage
  // must be forwarded exactly once: either one caller's owner coalesces the
  // other, or the second owner's double-checked cache probe catches the
  // Put-before-erase window. Total forwards == number of distinct stages,
  // deterministically.
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kGcn, TinyOptions()));
  ServiceOptions options;
  options.threads = 2;
  PredictionService service(registry, options);

  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g1 = core::EncodeStage(benchmark.build_stage({0, 2}));
  const graph::EncodedGraph shared = core::EncodeStage(benchmark.build_stage({1, 3}));
  const graph::EncodedGraph g3 = core::EncodeStage(benchmark.build_stage({2, 4}));

  std::vector<double> a, b;
  std::thread ta([&] {
    a = service.PredictMany(key, std::vector<const graph::EncodedGraph*>{&g1, &shared});
  });
  std::thread tb([&] {
    b = service.PredictMany(key, std::vector<const graph::EncodedGraph*>{&shared, &g3});
  });
  ta.join();
  tb.join();

  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[1], b[0]);  // both callers see the same value for the shared stage
  EXPECT_NE(a[0], b[1]);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batched_queries, 4u);
  EXPECT_EQ(stats.forwards, 3u);  // g1, shared (once), g3
}

// ---- batch-compiled PredictMany ----

TEST(Service, PredictManyBatchPathMatchesLegacyPath) {
  // The batch-compiled PredictMany must return, per query, the exact bits of
  // the sequential per-query Predict path.
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g1 = core::EncodeStage(benchmark.build_stage({0, 2}));
  const graph::EncodedGraph g2 = core::EncodeStage(benchmark.build_stage({2, 4}));
  const graph::EncodedGraph g3 = core::EncodeStage(benchmark.build_stage({1, 3}));
  const std::vector<const graph::EncodedGraph*> batch{&g1, &g2, &g1, &g3, &g2};

  std::vector<double> batched;
  {
    PredictionService service(registry);
    batched = service.PredictMany(key, batch);
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batched_queries, 5u);
    EXPECT_EQ(stats.forwards, 3u);  // duplicates still collapse on the batch path
  }
  std::vector<double> sequential;
  {
    PredictionService service(registry);
    for (const graph::EncodedGraph* g : batch) sequential.push_back(service.Predict(key, *g));
    EXPECT_EQ(service.Stats().forwards, 3u);
  }
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], sequential[i]) << "batching must not change bits, i=" << i;
  }
}

TEST(Service, PredictManyWarmBatchReusesPlanBuffers) {
  // Regression pin for the per-call buffer reuse fix: once a batch's shapes
  // have been served, re-serving the same batch (cache cleared, so the
  // forwards genuinely run) must not grow this thread's plan buffer.
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  PredictionService service(registry);
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g1 = core::EncodeStage(benchmark.build_stage({0, 2}));
  const graph::EncodedGraph g2 = core::EncodeStage(benchmark.build_stage({2, 4}));
  const graph::EncodedGraph g3 = core::EncodeStage(benchmark.build_stage({1, 3}));
  const std::vector<const graph::EncodedGraph*> batch{&g1, &g2, &g1, &g3, &g2};

  (void)service.PredictMany(key, batch);  // cold: compile + grow buffers
  service.ClearCache();
  (void)service.PredictMany(key, batch);  // second pass settles every buffer
  const std::int64_t plan_floats = compile::ThreadPlanBufferFloats();
  EXPECT_GT(plan_floats, 0) << "compiled path never engaged";

  for (int i = 0; i < 3; ++i) {
    service.ClearCache();
    (void)service.PredictMany(key, batch);
  }
  EXPECT_EQ(compile::ThreadPlanBufferFloats(), plan_floats);
}

TEST(Service, StatsExposeProgramCacheCounters) {
  auto registry = std::make_shared<ModelRegistry>();
  const ModelKey key{"gpt3", "platform1", sim::Mesh{1, 1}, {}};
  registry->Register(key, std::make_shared<core::LatencyRegressor>(
                              core::PredictorKind::kDagTransformer, TinyOptions()));
  PredictionService service(registry);
  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  const graph::EncodedGraph g1 = core::EncodeStage(benchmark.build_stage({0, 2}));
  const graph::EncodedGraph g2 = core::EncodeStage(benchmark.build_stage({2, 4}));
  const graph::EncodedGraph g3 = core::EncodeStage(benchmark.build_stage({1, 3}));

  // The program-cache counters are process-wide snapshots, so assert deltas.
  const ServiceStats before = service.Stats();
  const std::vector<const graph::EncodedGraph*> batch{&g1, &g2, &g3};
  (void)service.PredictMany(key, batch);
  const ServiceStats after = service.Stats();
  EXPECT_GT(after.program_cache_hits + after.program_cache_misses,
            before.program_cache_hits + before.program_cache_misses);
  EXPECT_EQ(after.batched_queries, before.batched_queries + 3);
  EXPECT_EQ(after.forwards, before.forwards + 3)
      << "all three distinct queries should run a forward";
  // Monotonic across ResetStats: the compile layer is process-wide.
  service.ResetStats();
  const ServiceStats reset = service.Stats();
  EXPECT_EQ(reset.forwards, 0u);
  EXPECT_GE(reset.program_cache_hits + reset.program_cache_misses,
            after.program_cache_hits + after.program_cache_misses);
}

// ---- thread pool failure propagation ----

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](std::size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a failed loop and keeps serving work.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// ---- serving-backed plan search ----

TEST(ServingOracle, PlanSearchMatchesDirectPredictorCalls) {
  core::PlanSearchConfig config;
  config.num_microbatches = 4;
  config.sample_fraction = 0.6;
  config.max_span = 3;
  config.train.max_epochs = 20;
  config.train.patience = 20;
  config.train.batch_size = 4;
  core::PlanSearch search(core::Gpt3Benchmark(TinyGptConfig()), sim::Platform1(), config);
  const core::TrainedMeshPredictors trained =
      search.TrainPredictors(core::PredictorKind::kDagTransformer);

  auto registry = std::make_shared<ModelRegistry>();
  const std::vector<ModelKey> keys =
      RegisterMeshPredictors(*registry, "gpt3", "platform1", search.Meshes(), trained);
  PredictionService service(registry);
  const ServingOracle oracle(
      service, search.Meshes(), keys,
      [&search](ir::StageSlice s) -> const graph::EncodedGraph& { return search.EncodedFor(s); },
      search.EffectiveMaxSpan());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const parallel::StageLatencyOracle direct = [&](ir::StageSlice slice, sim::Mesh mesh) {
    if (slice.NumLayers() > search.EffectiveMaxSpan())
      return parallel::StageLatencyResult{kInf, {}};
    for (std::size_t m = 0; m < search.Meshes().size(); ++m) {
      if (search.Meshes()[m] == mesh) {
        return parallel::StageLatencyResult{
            trained.per_mesh[m]->PredictSeconds(search.EncodedFor(slice)), {}};
      }
    }
    return parallel::StageLatencyResult{kInf, {}};
  };

  const parallel::InterOpOptimizer optimizer = search.MakeOptimizer();
  const parallel::PipelinePlan served = optimizer.Optimize(oracle.AsOracle());
  const parallel::PipelinePlan direct_plan = optimizer.Optimize(direct);

  ASSERT_TRUE(served.Valid());
  EXPECT_EQ(served.iteration_latency_s, direct_plan.iteration_latency_s);
  ASSERT_EQ(served.stages.size(), direct_plan.stages.size());
  for (std::size_t i = 0; i < served.stages.size(); ++i) {
    EXPECT_EQ(served.stages[i].slice.first_layer, direct_plan.stages[i].slice.first_layer);
    EXPECT_EQ(served.stages[i].slice.last_layer, direct_plan.stages[i].slice.last_layer);
    EXPECT_EQ(served.stages[i].mesh, direct_plan.stages[i].mesh);
  }
  // Unknown meshes and over-span slices are pruned exactly like the direct path.
  EXPECT_EQ(oracle({0, 4}, sim::Mesh{1, 1}).latency_s, kInf);
  EXPECT_EQ(oracle({0, 1}, sim::Mesh{8, 8}).latency_s, kInf);
  EXPECT_GT(service.Stats().cache.hits, 0u);
}

TEST(ServingOracle, PredictBatchMatchesScalarQueries) {
  auto registry = std::make_shared<ModelRegistry>();
  const std::vector<sim::Mesh> meshes{sim::Mesh{1, 1}, sim::Mesh{1, 2}};
  // Distinct predictor kinds so the two mesh models predict distinct values
  // (two untrained regressors of the same kind initialize identically).
  const core::PredictorKind kinds[] = {core::PredictorKind::kGcn, core::PredictorKind::kGat};
  std::vector<ModelKey> keys;
  for (std::size_t m = 0; m < meshes.size(); ++m) {
    ModelKey key{"gpt3", "platform1", meshes[m], {}};
    registry->Register(key,
                       std::make_shared<core::LatencyRegressor>(kinds[m], TinyOptions()));
    keys.push_back(std::move(key));
  }
  ServiceOptions options;
  options.threads = 2;
  PredictionService service(registry, options);

  const core::BenchmarkModel benchmark = core::Gpt3Benchmark(TinyGptConfig());
  std::map<std::pair<std::int32_t, std::int32_t>, graph::EncodedGraph> encoded;
  const auto encoder = [&](ir::StageSlice s) -> const graph::EncodedGraph& {
    const auto key = std::make_pair(s.first_layer, s.last_layer);
    if (const auto it = encoded.find(key); it != encoded.end()) return it->second;
    return encoded.emplace(key, core::EncodeStage(benchmark.build_stage(s))).first->second;
  };
  const ServingOracle oracle(service, meshes, keys, encoder, /*max_span=*/2);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<parallel::StageQuery> queries{
      {{0, 2}, sim::Mesh{1, 1}},  //
      {{0, 2}, sim::Mesh{1, 2}},  // same slice, other mesh model
      {{2, 4}, sim::Mesh{1, 1}},  //
      {{0, 3}, sim::Mesh{1, 1}},  // over max_span -> +inf, never queried
      {{1, 2}, sim::Mesh{8, 8}},  // unknown mesh -> +inf, never queried
      {{0, 2}, sim::Mesh{1, 1}},  // duplicate of queries[0]
  };
  const std::vector<parallel::StageLatencyResult> batch = oracle.PredictBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const parallel::StageLatencyResult scalar = oracle(queries[q].slice, queries[q].mesh);
    EXPECT_EQ(batch[q].latency_s, scalar.latency_s) << "query " << q;
  }
  EXPECT_EQ(batch[3].latency_s, kInf);
  EXPECT_EQ(batch[4].latency_s, kInf);
  EXPECT_EQ(batch[0].latency_s, batch[5].latency_s);
  EXPECT_NE(batch[0].latency_s, batch[1].latency_s);

  // The batch ran before the scalar re-queries, so it did all the forwards:
  // one per distinct resolvable (slice, mesh) pair — the duplicate, the
  // over-span slice and the unknown mesh never reached a model.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 2u);  // one PredictMany per mesh model
  EXPECT_EQ(stats.forwards, 3u);

  // AsBatchOracle adapts the same path for InterOpOptimizer::Optimize.
  const parallel::StageLatencyBatchOracle fn = oracle.AsBatchOracle();
  const std::vector<parallel::StageLatencyResult> again = fn(queries);
  ASSERT_EQ(again.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(again[q].latency_s, batch[q].latency_s);
  }
  EXPECT_EQ(service.Stats().forwards, 3u);  // all cache hits the second time
}

// ---- the oracle's per-mesh fan-out on a multi-thread service ----

/// A cold Fig. 10 plan search on Platform 2 (GPT-3 spans <= 9 or MoE spans
/// <= 11), with every slice encoded up front.
core::PlanSearch MakeFanOutSearch(core::BenchmarkModel benchmark, std::int32_t max_span) {
  core::PlanSearchConfig config;
  config.max_span = max_span;
  core::PlanSearch search(std::move(benchmark), sim::Platform2(), config);
  for (const ir::StageSlice slice :
       ir::EnumerateStageSlices(search.Benchmark().num_layers, search.EffectiveMaxSpan())) {
    (void)search.EncodedFor(slice);
  }
  return search;
}

/// Every (slice, mesh) cell the search's DP can ask for.
std::vector<parallel::StageQuery> FullTable(core::PlanSearch& search) {
  std::vector<parallel::StageQuery> queries;
  for (const ir::StageSlice slice :
       ir::EnumerateStageSlices(search.Benchmark().num_layers, search.EffectiveMaxSpan())) {
    for (const sim::Mesh mesh : search.Meshes()) queries.push_back({slice, mesh});
  }
  return queries;
}

/// A fresh registry of untrained per-mesh DAG Transformers (a distinct seed
/// per mesh, so the meshes price differently) behind a `threads`-worker
/// service, with the model of mesh `missing` left unregistered.
struct FanOutServing {
  FanOutServing(core::PlanSearch& search, std::size_t threads,
                ServingOracleOptions options = {},
                std::size_t missing = std::numeric_limits<std::size_t>::max())
      : registry(std::make_shared<ModelRegistry>()) {
    std::vector<ModelKey> keys;
    for (std::size_t m = 0; m < search.Meshes().size(); ++m) {
      ModelKey key{search.Benchmark().name, "platform2", search.Meshes()[m], {}};
      core::PredictorOptions predictor = TinyOptions();
      predictor.seed += m;
      if (m != missing) {
        registry->Register(key, std::make_shared<core::LatencyRegressor>(
                                    core::PredictorKind::kDagTransformer, predictor));
      }
      keys.push_back(std::move(key));
    }
    ServiceOptions service_options;
    service_options.threads = threads;
    service.emplace(registry, service_options);
    oracle.emplace(
        *service, search.Meshes(), keys,
        [&search](ir::StageSlice s) -> const graph::EncodedGraph& { return search.EncodedFor(s); },
        search.EffectiveMaxSpan(), std::move(options));
  }

  std::shared_ptr<ModelRegistry> registry;
  std::optional<PredictionService> service;
  std::optional<ServingOracle> oracle;
};

TEST(ServingOracle, FannedOutSearchMatchesOneThreadBitExact) {
  for (auto [benchmark, span] : {std::pair{core::Gpt3Benchmark(), 9},
                                 std::pair{core::MoeBenchmark(), 11}}) {
    core::PlanSearch search = MakeFanOutSearch(std::move(benchmark), span);
    const parallel::InterOpOptimizer optimizer = search.MakeOptimizer();
    struct Leg {
      parallel::PipelinePlan plan;
      std::uint64_t forwards = 0;
      std::uint64_t programs_built = 0;
    };
    const auto run = [&](std::size_t threads) {
      FanOutServing serving(search, threads);
      const std::uint64_t builds0 = compile::ProgramCache::Global().Misses();
      Leg leg;
      leg.plan = optimizer.Optimize(serving.oracle->AsBatchOracle());
      leg.programs_built = compile::ProgramCache::Global().Misses() - builds0;
      leg.forwards = serving.service->Stats().forwards;
      return leg;
    };
    const Leg serial = run(1);
    const Leg fanned = run(4);
    const std::string name = search.Benchmark().name;
    ASSERT_TRUE(serial.plan.Valid()) << name;
    EXPECT_EQ(fanned.plan.iteration_latency_s, serial.plan.iteration_latency_s) << name;
    ASSERT_EQ(fanned.plan.stages.size(), serial.plan.stages.size()) << name;
    for (std::size_t i = 0; i < serial.plan.stages.size(); ++i) {
      EXPECT_EQ(fanned.plan.stages[i].slice.first_layer, serial.plan.stages[i].slice.first_layer);
      EXPECT_EQ(fanned.plan.stages[i].slice.last_layer, serial.plan.stages[i].slice.last_layer);
      EXPECT_EQ(fanned.plan.stages[i].mesh, serial.plan.stages[i].mesh);
      EXPECT_EQ(fanned.plan.stages[i].latency_s, serial.plan.stages[i].latency_s);
    }
    EXPECT_GT(serial.forwards, 0u) << name;
    EXPECT_EQ(fanned.forwards, serial.forwards) << name;
    EXPECT_EQ(fanned.programs_built, serial.programs_built) << name;
  }
}

TEST(ServingOracle, FannedOutBatchDegradesOnlyTheFailedMesh) {
  core::PlanSearch search = MakeFanOutSearch(core::Gpt3Benchmark(), 9);
  const std::vector<parallel::StageQuery> table = FullTable(search);
  constexpr std::size_t kMissing = 1;
  ServingOracleOptions hardened;
  hardened.fallback = std::make_shared<FallbackOracle>(
      sim::Platform2().device,
      [&search](ir::StageSlice s) -> const ir::StageProgram& { return search.ProgramFor(s); });

  FanOutServing serial(search, 1);
  const std::vector<parallel::StageLatencyResult> want = serial.oracle->PredictBatch(table);
  FanOutServing fanned(search, 4, hardened, kMissing);
  const std::vector<parallel::StageLatencyResult> got = fanned.oracle->PredictBatch(table);
  ASSERT_EQ(got.size(), table.size());
  std::size_t degraded = 0;
  for (std::size_t q = 0; q < table.size(); ++q) {
    if (table[q].mesh == search.Meshes()[kMissing]) {
      const parallel::StageLatencyResult fallback =
          hardened.fallback->Estimate(table[q].slice, table[q].mesh);
      EXPECT_TRUE(got[q].degraded) << "q=" << q;
      EXPECT_EQ(got[q].latency_s, fallback.latency_s) << "q=" << q;
      ++degraded;
    } else {
      EXPECT_FALSE(got[q].degraded) << "q=" << q;
      EXPECT_EQ(got[q].latency_s, want[q].latency_s) << "q=" << q;
    }
  }
  EXPECT_EQ(fanned.oracle->Stats().degraded, degraded);

  // Unhardened, the failed mesh's exception reaches the caller.
  FanOutServing plain(search, 4, {}, kMissing);
  EXPECT_THROW((void)plain.oracle->PredictBatch(table), std::runtime_error);
}

}  // namespace
}  // namespace predtop::serve
