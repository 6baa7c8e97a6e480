// Microbenchmarks for the performance-critical kernels. Two layers:
//
//  1. A headline comparison suite (runs first, always) that times the GEMM
//     tiers (naive i-k-j vs packed vs packed+threads), warm tape vs compiled
//     PredictSeconds on a real GPT-3 stage graph, one tape training step
//     (forward, backward) per Fig. 10 GPT-3 training graph, the encode phase
//     of a cold plan search (one EncodeStage per slice vs one
//     program-keyed StageEncodings) and its
//     forward phase (cold PredictBatch per mesh, serial vs fanned across a
//     2- and a 4-worker pool), and writes the results to BENCH_kernels.json
//     (path overridable via PREDTOP_BENCH_JSON). PREDTOP_BENCH_SMOKE=1
//     shrinks repetitions so CI can exercise the harness in seconds.
//  2. The google-benchmark registrations kept from the original harness
//     (softmax, encoding, compilation, DP, forwards), skipped in smoke mode.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "core/stage_encodings.h"
#include "graph/reachability.h"
#include "ir/stages.h"
#include "ir/to_dag.h"
#include "parallel/inter_op.h"
#include "parallel/intra_op.h"
#include "sim/cluster.h"
#include "tensor/ops.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace predtop;

namespace {

// ---- headline comparisons -> BENCH_kernels.json ----

/// Best-of-N wall time of `fn` (seconds); one warm-up call first.
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

struct GemmRow {
  std::int64_t size = 0;  // m = k = n
  double naive_s = 0.0;
  double packed_s = 0.0;
  double threaded_s = 0.0;
};

std::vector<GemmRow> RunGemmSweep(bool smoke) {
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{64, 256} : std::vector<std::int64_t>{64, 128, 256, 512};
  const int reps = smoke ? 3 : 10;
  std::vector<GemmRow> rows;
  util::Rng rng(21);
  for (const std::int64_t s : sizes) {
    const tensor::Tensor a = tensor::Tensor::Randn({s, s}, rng);
    const tensor::Tensor b = tensor::Tensor::Randn({s, s}, rng);
    const tensor::PackedB packed = tensor::PackB(b);
    tensor::Tensor c({s, s});
    GemmRow row;
    row.size = s;
    row.naive_s = BestOf(reps, [&] { benchmark::DoNotOptimize(tensor::MatMulNaive(a, b)); });
    row.packed_s = BestOf(reps, [&] {
      tensor::MatMulPackedInto(a.data().data(), s, packed, c.data().data(),
                               /*allow_threads=*/false);
      benchmark::DoNotOptimize(c.data().data());
    });
    row.threaded_s = BestOf(reps, [&] {
      tensor::MatMulPackedInto(a.data().data(), s, packed, c.data().data(),
                               /*allow_threads=*/true);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double gflop = 2.0 * static_cast<double>(s) * s * s * 1e-9;
    std::cerr << "[bench] gemm " << s << "^3: naive " << gflop / row.naive_s
              << " GFLOP/s, packed " << gflop / row.packed_s << " GFLOP/s ("
              << row.naive_s / row.packed_s << "x), +threads " << gflop / row.threaded_s
              << " GFLOP/s (" << row.naive_s / row.threaded_s << "x)\n";
    rows.push_back(row);
  }
  return rows;
}

const ir::StageProgram& SampleStage() {
  static const ir::StageProgram program = [] {
    ir::Gpt3Config config;
    return ir::BuildGpt3Stage(config, {0, 4});
  }();
  return program;
}

struct PredictResult {
  std::int64_t graph_nodes = 0;
  double tape_s = 0.0;      // autograd Forward
  double compiled_s = 0.0;  // compiled InferProgram (fused + planned buffer)
};

PredictResult RunPredictComparison(bool smoke) {
  // Paper-size DAG Transformer (4 x 64, 4 heads) on a real GPT-3 stage graph:
  // the shape the prediction service actually serves.
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  core::LatencyRegressor regressor(core::PredictorKind::kDagTransformer, options);
  const int reps = smoke ? 3 : 20;
  PredictResult result;
  result.graph_nodes = encoded.num_nodes;
  result.tape_s = BestOf(reps, [&] {
    benchmark::DoNotOptimize(regressor.PredictSecondsTape(encoded));
  });
  result.compiled_s = BestOf(reps, [&] {
    benchmark::DoNotOptimize(regressor.PredictSeconds(encoded));
  });
  std::cerr << "[bench] warm PredictSeconds (" << result.graph_nodes << " nodes): tape "
            << result.tape_s * 1e3 << " ms, compiled " << result.compiled_s * 1e3 << " ms ("
            << result.tape_s / result.compiled_s << "x vs tape)\n";
  return result;
}

struct TrainStageRow {
  std::int64_t dim = 0;
  std::int64_t heads = 0;
  std::int64_t layers = 0;
  std::size_t graphs = 0;
  double mean_nodes = 0.0;
  double forward_s = 0.0;   // tape Forward per graph
  double backward_s = 0.0;  // autograd::Backward of its output per graph
};

std::vector<TrainStageRow> RunTrainStage(bool smoke) {
  // One tape training step per graph the Fig. 10 pipeline trains on: the
  // DAG Transformer's Forward, then Backward from its scalar output. Rows at
  // the plan-search size (2 x 16, 2 heads) and the paper size (4 x 64, 4
  // heads); each is the best of `passes` timed passes over all graphs.
  std::vector<graph::EncodedGraph> graphs;
  for (core::StageDataset& dataset : bench::Fig10TrainingSets()) {
    for (core::StageSample& sample : dataset.samples) graphs.push_back(std::move(sample.encoded));
  }
  double nodes = 0.0;
  for (const graph::EncodedGraph& g : graphs) nodes += static_cast<double>(g.num_nodes);
  const int passes = smoke ? 1 : 5;
  std::vector<TrainStageRow> rows;
  for (const auto [dim, heads, layers] :
       {std::array<std::int64_t, 3>{16, 2, 2}, std::array<std::int64_t, 3>{64, 4, 4}}) {
    core::PredictorOptions options;
    options.feature_dim = core::StageFeatureDim();
    options.dagt_dim = dim;
    options.dagt_heads = heads;
    options.dagt_layers = layers;
    const auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
    TrainStageRow row;
    row.dim = dim;
    row.heads = heads;
    row.layers = layers;
    row.graphs = graphs.size();
    row.mean_nodes = nodes / static_cast<double>(graphs.size());
    row.forward_s = row.backward_s = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass <= passes; ++pass) {  // pass 0 warms up
      double forward = 0.0, backward = 0.0;
      for (const graph::EncodedGraph& g : graphs) {
        model->ZeroGrad();
        util::Stopwatch forward_timer;
        const autograd::Variable out = model->Forward(g);
        forward += forward_timer.ElapsedSeconds();
        util::Stopwatch backward_timer;
        autograd::Backward(out);
        backward += backward_timer.ElapsedSeconds();
      }
      if (pass == 0) continue;
      row.forward_s = std::min(row.forward_s, forward / static_cast<double>(graphs.size()));
      row.backward_s = std::min(row.backward_s, backward / static_cast<double>(graphs.size()));
    }
    std::cerr << "[bench] train step (" << dim << " x " << layers << ", " << heads
              << " heads) over " << row.graphs << " Fig. 10 GPT-3 graphs (mean "
              << row.mean_nodes << " nodes): forward " << row.forward_s * 1e3
              << " ms, backward " << row.backward_s * 1e3 << " ms per graph\n";
    rows.push_back(row);
  }
  return rows;
}

struct BatchRow {
  std::int64_t batch = 0;
  double sequential_s = 0.0;     // B sequential Infer calls (compiled forwards)
  double predict_batch_s = 0.0;  // one PredictBatch call fanned out on a pool
};

std::vector<BatchRow> RunBatchSweep(bool smoke) {
  // Same-shape batches of the paper-size stage with per-query feature
  // perturbations, run through the compiled program one Infer at a time and
  // through one PredictBatch call whose members fan out on a pool.
  const graph::EncodedGraph base = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  core::LatencyRegressor regressor(core::PredictorKind::kDagTransformer, options);
  const std::vector<std::int64_t> batches =
      smoke ? std::vector<std::int64_t>{4, 16} : std::vector<std::int64_t>{1, 4, 16, 64};
  const int reps = smoke ? 3 : 10;
  const std::int64_t max_batch = batches.back();

  std::vector<graph::EncodedGraph> graphs(static_cast<std::size_t>(max_batch), base);
  for (std::size_t q = 0; q < graphs.size(); ++q) {
    const float scale = 1.0f + 0.02f * static_cast<float>(q % 17);
    for (float& x : graphs[q].features.data()) x *= scale;
  }

  util::ThreadPool pool(tensor::GemmThreads());
  std::vector<BatchRow> rows;
  for (const std::int64_t b : batches) {
    BatchRow row;
    row.batch = b;
    row.sequential_s = BestOf(reps, [&] {
      for (std::int64_t q = 0; q < b; ++q) {
        benchmark::DoNotOptimize(regressor.Model().Infer(graphs[static_cast<std::size_t>(q)]));
      }
    });
    row.predict_batch_s = BestOf(reps, [&] {
      benchmark::DoNotOptimize(regressor.PredictBatch(
          std::span<const graph::EncodedGraph>(graphs.data(), static_cast<std::size_t>(b)),
          &pool));
    });
    std::cerr << "[bench] batch " << b << ": sequential "
              << row.sequential_s / static_cast<double>(b) * 1e6
              << " us/query, PredictBatch on a " << pool.ThreadCount() << "-worker pool "
              << row.predict_batch_s / static_cast<double>(b) * 1e6 << " us/query ("
              << row.sequential_s / row.predict_batch_s << "x)\n";
    rows.push_back(row);
  }
  return rows;
}

struct EncodeSearchRow {
  std::string model;
  std::int32_t max_span = 0;
  std::size_t slices = 0;
  std::size_t distinct = 0;
  double per_slice_s = 0.0;  // one EncodeStage per slice
  double shared_s = 0.0;     // every slice through one fresh StageEncodings, which
                             // builds a DAG only for each distinct program
  double per_slice_mask_mb = 0.0;
  double shared_mask_mb = 0.0;
};

std::vector<EncodeSearchRow> RunEncodeSearch(bool smoke) {
  // The encode phase of one cold plan search over the Fig. 10 models, with
  // the spans the plan-search benchmark uses. Programs are built up front,
  // so both legs time encoding only.
  const std::pair<core::BenchmarkModel, std::int32_t> models[] = {
      {core::Gpt3Benchmark(), 9}, {core::MoeBenchmark(), 11}};
  const int reps = smoke ? 1 : 5;
  std::vector<EncodeSearchRow> rows;
  for (const auto& [model, max_span] : models) {
    const auto slices = ir::EnumerateStageSlices(model.num_layers, max_span);
    std::vector<ir::StageProgram> programs;
    programs.reserve(slices.size());
    for (const ir::StageSlice slice : slices) programs.push_back(model.build_stage(slice));
    const auto encode_all = [&](core::StageEncodings& encodings) {
      for (std::size_t i = 0; i < slices.size(); ++i) {
        (void)encodings.For(slices[i],
                            [&](ir::StageSlice) -> const ir::StageProgram& { return programs[i]; });
      }
    };

    EncodeSearchRow row;
    row.model = model.name;
    row.max_span = max_span;
    row.slices = slices.size();
    row.per_slice_s = BestOf(reps, [&] {
      for (const ir::StageProgram& program : programs) {
        benchmark::DoNotOptimize(core::EncodeStage(program).num_nodes);
      }
    });
    row.shared_s = BestOf(reps, [&] {
      core::StageEncodings encodings;
      encode_all(encodings);
      benchmark::DoNotOptimize(encodings.NumDistinct());
    });

    core::StageEncodings encodings;
    encode_all(encodings);
    row.distinct = encodings.NumDistinct();
    std::set<const graph::EncodedGraph*> distinct;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const graph::EncodedGraph& g = encodings.For(
          slices[i], [&](ir::StageSlice) -> const ir::StageProgram& { return programs[i]; });
      const double mask_mb = static_cast<double>(g.dagra_mask.numel()) * sizeof(float) / 1e6;
      row.per_slice_mask_mb += mask_mb;
      if (distinct.insert(&g).second) row.shared_mask_mb += mask_mb;
    }
    std::cerr << "[bench] encode " << row.model << " (span <= " << max_span << "): "
              << row.slices << " slices, " << row.distinct << " distinct graphs; per slice "
              << row.per_slice_s * 1e3 << " ms, shared " << row.shared_s * 1e3 << " ms ("
              << row.per_slice_s / row.shared_s << "x), masks " << row.per_slice_mask_mb
              << " -> " << row.shared_mask_mb << " MB\n";
    rows.push_back(row);
  }
  return rows;
}

struct PredictSearchRow {
  std::string model;
  std::int32_t max_span = 0;
  std::size_t distinct = 0;
  std::size_t meshes = 0;
  double serial_s = 0.0;  // PredictBatch without a pool
  double pool2_s = 0.0;   // shape groups fanned across a 2-worker pool
  double pool4_s = 0.0;   // ... and a 4-worker pool
};

std::vector<PredictSearchRow> RunPredictSearch(bool smoke) {
  // The forward phase of one cold plan search over the Fig. 10 models: one
  // PredictBatch per mesh over the search's distinct stage graphs, on
  // freshly made regressors (so every program builds inside the timed call)
  // of the size the plan-search benchmark trains (DAG Transformer 2 x 16).
  const std::pair<core::BenchmarkModel, std::int32_t> models[] = {
      {core::Gpt3Benchmark(), 9}, {core::MoeBenchmark(), 11}};
  const std::size_t meshes = sim::PaperMeshes(sim::Platform2()).size();
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  const int reps = smoke ? 1 : 7;
  util::ThreadPool pool2(2);
  util::ThreadPool pool4(4);
  std::vector<PredictSearchRow> rows;
  for (const auto& [model, max_span] : models) {
    core::StageEncodings encodings;
    std::set<const graph::EncodedGraph*> seen;
    std::vector<const graph::EncodedGraph*> distinct;
    for (const ir::StageSlice slice : ir::EnumerateStageSlices(model.num_layers, max_span)) {
      const graph::EncodedGraph& g = encodings.For(slice, model.build_stage);
      if (seen.insert(&g).second) distinct.push_back(&g);
    }
    // Best of `reps` cold searches; the regressors are made outside the clock.
    const auto cold = [&](util::ThreadPool* pool) {
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        std::vector<core::LatencyRegressor> regressors;
        for (std::size_t m = 0; m < meshes; ++m) {
          regressors.emplace_back(core::PredictorKind::kDagTransformer, options);
        }
        util::Stopwatch timer;
        for (core::LatencyRegressor& regressor : regressors) {
          benchmark::DoNotOptimize(
              regressor.PredictBatch(std::span<const graph::EncodedGraph* const>(distinct), pool));
        }
        best = std::min(best, timer.ElapsedSeconds());
      }
      return best;
    };
    PredictSearchRow row;
    row.model = model.name;
    row.max_span = max_span;
    row.distinct = distinct.size();
    row.meshes = meshes;
    row.serial_s = cold(nullptr);
    row.pool2_s = cold(&pool2);
    row.pool4_s = cold(&pool4);
    std::cerr << "[bench] cold forwards " << row.model << " (span <= " << max_span << "): "
              << row.distinct << " distinct graphs x " << row.meshes << " meshes; serial "
              << row.serial_s * 1e3 << " ms, 2-worker pool " << row.pool2_s * 1e3 << " ms ("
              << row.serial_s / row.pool2_s << "x), 4-worker pool " << row.pool4_s * 1e3
              << " ms (" << row.serial_s / row.pool4_s << "x)\n";
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::string& path, const std::vector<GemmRow>& gemm,
               const PredictResult& predict, const std::vector<TrainStageRow>& train,
               const std::vector<BatchRow>& batch,
               const std::vector<EncodeSearchRow>& encode,
               const std::vector<PredictSearchRow>& forwards, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"smoke\": " << (smoke ? "true" : "false") << ",\n  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const GemmRow& row = gemm[i];
    out << "    {\"size\": " << row.size << ", \"naive_s\": " << row.naive_s
        << ", \"packed_s\": " << row.packed_s << ", \"packed_threads_s\": " << row.threaded_s
        << ", \"speedup_packed\": " << row.naive_s / row.packed_s
        << ", \"speedup_packed_threads\": " << row.naive_s / row.threaded_s << "}"
        << (i + 1 < gemm.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"predict_gpt3_stage\": {\"graph_nodes\": " << predict.graph_nodes
      << ", \"tape_s\": " << predict.tape_s << ", \"compiled_s\": " << predict.compiled_s
      << ", \"speedup_compiled_vs_tape\": " << predict.tape_s / predict.compiled_s << "},\n";
  out << "  \"train_gpt3_stage\": [\n";
  for (std::size_t i = 0; i < train.size(); ++i) {
    const TrainStageRow& row = train[i];
    out << "    {\"dim\": " << row.dim << ", \"heads\": " << row.heads
        << ", \"layers\": " << row.layers << ", \"graphs\": " << row.graphs
        << ", \"mean_nodes\": " << row.mean_nodes << ", \"forward_s\": " << row.forward_s
        << ", \"backward_s\": " << row.backward_s << "}" << (i + 1 < train.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";
  out << "  \"batch_predict\": [\n";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchRow& row = batch[i];
    const double b = static_cast<double>(row.batch);
    out << "    {\"batch\": " << row.batch << ", \"sequential_s\": " << row.sequential_s
        << ", \"predict_batch_s\": " << row.predict_batch_s
        << ", \"sequential_per_query_us\": " << row.sequential_s / b * 1e6
        << ", \"predict_batch_per_query_us\": " << row.predict_batch_s / b * 1e6
        << ", \"speedup_predict_batch\": " << row.sequential_s / row.predict_batch_s << "}"
        << (i + 1 < batch.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"encode_search\": [\n";
  for (std::size_t i = 0; i < encode.size(); ++i) {
    const EncodeSearchRow& row = encode[i];
    out << "    {\"model\": \"" << row.model << "\", \"max_span\": " << row.max_span
        << ", \"slices\": " << row.slices << ", \"distinct_graphs\": " << row.distinct
        << ", \"per_slice_s\": " << row.per_slice_s << ", \"shared_s\": " << row.shared_s
        << ", \"speedup_shared\": " << row.per_slice_s / row.shared_s
        << ", \"per_slice_mask_mb\": " << row.per_slice_mask_mb
        << ", \"shared_mask_mb\": " << row.shared_mask_mb << "}"
        << (i + 1 < encode.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"predict_search\": [\n";
  for (std::size_t i = 0; i < forwards.size(); ++i) {
    const PredictSearchRow& row = forwards[i];
    out << "    {\"model\": \"" << row.model << "\", \"max_span\": " << row.max_span
        << ", \"distinct_graphs\": " << row.distinct << ", \"meshes\": " << row.meshes
        << ", \"serial_s\": " << row.serial_s << ", \"pool2_s\": " << row.pool2_s
        << ", \"pool4_s\": " << row.pool4_s
        << ", \"speedup_pool2\": " << row.serial_s / row.pool2_s
        << ", \"speedup_pool4\": " << row.serial_s / row.pool4_s << "}"
        << (i + 1 < forwards.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gemm_threads\": " << tensor::GemmThreads() << "\n}\n";
  std::cerr << "[bench] wrote " << path << "\n";
}

// ---- google-benchmark registrations (full mode only) ----

void BM_MatMul(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  util::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::Randn({m, k}, rng);
  const tensor::Tensor b = tensor::Tensor::Randn({k, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMul)->Args({256, 8, 256})->Args({256, 256, 8})->Args({256, 64, 64});

void BM_MaskedSoftmax(benchmark::State& state) {
  const auto n = state.range(0);
  util::Rng rng(2);
  const tensor::Tensor logits = tensor::Tensor::Randn({n, n}, rng);
  tensor::Tensor mask({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if ((i + j) % 3 == 0) mask.at(i, j) = -std::numeric_limits<float>::infinity();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::RowSoftmax(logits, &mask));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_MaskedSoftmax)->Arg(128)->Arg(256)->Arg(512);

void BM_ReachabilityClosure(benchmark::State& state) {
  const graph::OpDag dag = ir::BuildPrunedOpDag(SampleStage());
  for (auto _ : state) {
    const graph::ReachabilityClosure closure(dag);
    benchmark::DoNotOptimize(closure.CountReachablePairs());
  }
  state.SetLabel(std::to_string(dag.NumNodes()) + " nodes");
}
BENCHMARK(BM_ReachabilityClosure);

void BM_EncodeStage(benchmark::State& state) {
  const ir::StageProgram& program = SampleStage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeStage(program).num_nodes);
  }
}
BENCHMARK(BM_EncodeStage);

void BM_IntraOpCompile(benchmark::State& state) {
  const parallel::IntraOpCompiler compiler(sim::Platform2(), sim::Mesh{1, 2});
  const ir::StageProgram& program = SampleStage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.Compile(program, {1, 2, 1}).latency_s);
  }
  state.SetLabel(std::to_string(program.NumEquations()) + " equations");
}
BENCHMARK(BM_IntraOpCompile);

void BM_InterOpDp(benchmark::State& state) {
  // Synthetic oracle isolates the DP itself from stage compilation.
  const parallel::StageLatencyOracle oracle = [](ir::StageSlice slice, sim::Mesh mesh) {
    const double d = mesh.NumDevices();
    return parallel::StageLatencyResult{slice.NumLayers() * (0.4 + 0.6 * d) / d, {}};
  };
  parallel::InterOpOptions options;
  options.num_layers = static_cast<std::int32_t>(state.range(0));
  options.num_microbatches = 8;
  const parallel::InterOpOptimizer optimizer(sim::Platform2(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Optimize(oracle).iteration_latency_s);
  }
}
BENCHMARK(BM_InterOpDp)->Arg(12)->Arg(24);

void BM_DagTransformerForward(benchmark::State& state) {
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 32;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Forward(encoded).value().data()[0]);
  }
  state.SetLabel(std::to_string(encoded.num_nodes) + " nodes");
}
BENCHMARK(BM_DagTransformerForward);

void BM_DagTransformerInfer(benchmark::State& state) {
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 32;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Infer(encoded));
  }
  state.SetLabel(std::to_string(encoded.num_nodes) + " nodes");
}
BENCHMARK(BM_DagTransformerInfer);

void BM_GcnForward(benchmark::State& state) {
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.gcn_dim = 64;
  options.gcn_layers = 4;
  auto model = core::MakePredictor(core::PredictorKind::kGcn, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Forward(encoded).value().data()[0]);
  }
}
BENCHMARK(BM_GcnForward);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = util::EnvInt("PREDTOP_BENCH_SMOKE", 0) != 0;
  const std::string json_path =
      util::EnvString("PREDTOP_BENCH_JSON").value_or("BENCH_kernels.json");
  const std::vector<GemmRow> gemm = RunGemmSweep(smoke);
  const PredictResult predict = RunPredictComparison(smoke);
  const std::vector<TrainStageRow> train = RunTrainStage(smoke);
  const std::vector<BatchRow> batch = RunBatchSweep(smoke);
  const std::vector<EncodeSearchRow> encode = RunEncodeSearch(smoke);
  const std::vector<PredictSearchRow> forwards = RunPredictSearch(smoke);
  WriteJson(json_path, gemm, predict, train, batch, encode, forwards, smoke);
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
