#pragma once
// Shared infrastructure for the experiment harnesses that regenerate the
// paper's tables and figures.
//
// Sizing: the paper's grid (409 GPT / 205 MoE stages, 8 training fractions,
// 500 epochs, DAG Transformer 4x64 / GCN 6x256 / GAT 6x32) takes GPU-days;
// the default here is a faithful but scaled-down grid that completes on one
// laptop core. PREDTOP_FULL=1 restores the paper-size hyperparameters, and
// individual knobs override specific sizes:
//   PREDTOP_FRACTIONS    comma list of training percentages (default 10,30,50,80)
//   PREDTOP_GPT_SAMPLES  stages sampled from GPT-3   (default 56)
//   PREDTOP_MOE_SAMPLES  stages sampled from MoE     (default 44)
//   PREDTOP_EPOCHS       max training epochs         (default 200)
//   PREDTOP_RESULTS_DIR  cell-result CSV cache       (default ./predtop_results)
//
// Computed MRE grids are cached as CSV in PREDTOP_RESULTS_DIR so that
// fig08_fig09 (which needs both platforms' grids) and the table binaries
// share work across processes. Each CSV starts with the configuration that
// computed it (GridConfigLine); a cache whose line differs is recomputed.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/regressor.h"
#include "ir/stages.h"
#include "nn/trainer.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace predtop::bench {

struct GridConfig {
  bool full = false;
  std::vector<int> fraction_pcts{10, 30, 50, 80};
  std::size_t gpt_samples = 56;
  std::size_t moe_samples = 44;
  std::int32_t gpt_max_span = 6;
  std::int32_t moe_max_span = 4;
  nn::TrainConfig train;
  core::PredictorOptions predictor;
  std::string results_dir = "predtop_results";
  std::uint64_t seed = 0xbe9cULL;
};

inline GridConfig LoadGridConfig() {
  GridConfig g;
  g.full = util::EnvBool("PREDTOP_FULL", false);
  if (g.full) {
    // Paper-size grid (paper §IV-B6, §VII-D, §VIII).
    g.fraction_pcts = {10, 20, 30, 40, 50, 60, 70, 80};
    g.gpt_samples = 409;
    g.moe_samples = 205;
    g.gpt_max_span = 0;  // unbounded
    g.moe_max_span = 0;
    g.train.max_epochs = 500;
    g.train.patience = 200;
    g.train.base_lr = 1e-3f;
    g.train.batch_size = 32;
    g.predictor.dagt_dim = 64;
    g.predictor.dagt_layers = 4;
    g.predictor.dagt_heads = 4;
    g.predictor.gcn_dim = 256;
    g.predictor.gcn_layers = 6;
    g.predictor.gat_dim = 32;
    g.predictor.gat_layers = 6;
  } else {
    g.train.max_epochs = 200;
    g.train.patience = 200;  // rely on the cosine schedule
    g.train.base_lr = 5e-3f;
    g.train.batch_size = 8;
    g.predictor.dagt_dim = 16;
    g.predictor.dagt_layers = 2;
    g.predictor.dagt_heads = 2;
    g.predictor.gcn_dim = 64;
    g.predictor.gcn_layers = 4;
    g.predictor.gat_dim = 16;
    g.predictor.gat_layers = 4;
  }
  g.predictor.feature_dim = core::StageFeatureDim();
  g.fraction_pcts = util::EnvIntList("PREDTOP_FRACTIONS", g.fraction_pcts);
  g.gpt_samples = static_cast<std::size_t>(
      util::EnvInt("PREDTOP_GPT_SAMPLES", static_cast<long>(g.gpt_samples)));
  g.moe_samples = static_cast<std::size_t>(
      util::EnvInt("PREDTOP_MOE_SAMPLES", static_cast<long>(g.moe_samples)));
  g.train.max_epochs = util::EnvInt("PREDTOP_EPOCHS", g.train.max_epochs);
  g.train.patience = g.train.max_epochs;
  if (const auto dir = util::EnvString("PREDTOP_RESULTS_DIR")) g.results_dir = *dir;
  return g;
}

/// One (mesh, parallel-config) scenario of paper Tbls. II/III.
struct Scenario {
  std::string name;  // e.g. "Mesh 2 / Conf 1"
  sim::Mesh mesh;
  parallel::ParallelConfig config;
};

/// The per-platform scenario columns of paper Tbls. V and VI.
inline std::vector<Scenario> PlatformScenarios(const sim::ClusterSpec& cluster) {
  std::vector<Scenario> out;
  const auto meshes = sim::PaperMeshes(cluster);
  for (std::size_t m = 0; m < meshes.size(); ++m) {
    const auto configs = parallel::PaperConfigs(meshes[m]);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      out.push_back({"Mesh " + std::to_string(m + 1) + " Conf " + std::to_string(c + 1),
                     meshes[m], configs[c]});
    }
  }
  return out;
}

/// The two paper benchmarks at their Tbl. IV shapes.
inline core::BenchmarkModel PaperGpt3() { return core::Gpt3Benchmark(ir::Gpt3Config{}); }
inline core::BenchmarkModel PaperMoe() { return core::MoeBenchmark(ir::MoeConfig{}); }

/// The per-mesh training sets of the Fig. 10 PredTOP pipeline (planbench
/// fig10_predtop, fig10_optimization): GPT-3 on Platform 2, per mesh the
/// dataset builder's 12% sample of the slices up to the plan search's span
/// cap, with its per-mesh sample seeds and one shared profiler.
inline std::vector<core::StageDataset> Fig10TrainingSets() {
  const core::BenchmarkModel gpt3 = PaperGpt3();
  const sim::ClusterSpec cluster = sim::Platform2();
  const std::int32_t devices = cluster.TotalDevices();
  const std::int32_t min_span = (gpt3.num_layers + devices - 1) / devices;
  const std::int32_t max_span = std::max(GridConfig{}.gpt_max_span,
                                         std::min(gpt3.num_layers, min_span + 3));
  const std::size_t slices = ir::EnumerateStageSlices(gpt3.num_layers, max_span).size();
  const std::uint64_t seed = GridConfig{}.seed;
  sim::Profiler profiler({}, seed ^ 0xbeefULL);
  const auto meshes = sim::PaperMeshes(cluster);
  std::vector<core::StageDataset> out;
  for (std::size_t m = 0; m < meshes.size(); ++m) {
    const parallel::IntraOpCompiler compiler(cluster, meshes[m]);
    const auto configs = parallel::PaperConfigs(meshes[m]);
    core::DatasetBuildConfig build;
    build.num_samples = static_cast<std::size_t>(std::ceil(0.12 * static_cast<double>(slices)));
    build.max_span = max_span;
    build.sample_seed = seed + 31 * m;
    out.push_back(core::BuildStageDatasetBestConfig(gpt3, compiler, configs, profiler, build));
  }
  return out;
}

/// MRE of each predictor for one (scenario, fraction) cell.
struct CellResult {
  double mre_gcn = 0.0;
  double mre_gat = 0.0;
  double mre_tran = 0.0;
  [[nodiscard]] double Of(core::PredictorKind kind) const {
    switch (kind) {
      case core::PredictorKind::kGcn: return mre_gcn;
      case core::PredictorKind::kGat: return mre_gat;
      case core::PredictorKind::kDagTransformer: return mre_tran;
    }
    return 0.0;
  }
};

/// Full MRE grid for one (platform, benchmark): grid[scenario][fraction].
struct MreGrid {
  std::vector<std::string> scenario_names;
  std::vector<int> fraction_pcts;
  std::vector<std::vector<CellResult>> cells;
};

/// Pre-encoded stage pool shared across a benchmark's scenarios (the
/// encoding is mesh/config independent; only labels change).
struct StagePool {
  std::vector<ir::StageSlice> slices;
  std::vector<graph::EncodedGraph> encoded;
  std::vector<ir::StageProgram> programs;
};

inline StagePool BuildStagePool(const core::BenchmarkModel& benchmark, std::size_t num_samples,
                                std::int32_t max_span, std::uint64_t seed) {
  StagePool pool;
  const std::int32_t span = max_span > 0 ? max_span : benchmark.num_layers;
  const auto all = ir::EnumerateStageSlices(benchmark.num_layers, span);
  util::Rng rng(seed);
  pool.slices = num_samples > 0 && num_samples < all.size()
                    ? ir::SampleStageSlices(all, num_samples, rng)
                    : all;
  pool.programs.reserve(pool.slices.size());
  pool.encoded.reserve(pool.slices.size());
  for (const ir::StageSlice slice : pool.slices) {
    pool.programs.push_back(benchmark.build_stage(slice));
    pool.encoded.push_back(core::EncodeStage(pool.programs.back()));
  }
  return pool;
}

/// Label the pool for one scenario (compile + noisy profiling) and package
/// it as a core::StageDataset (encodings are copied from the pool).
inline core::StageDataset LabelPool(const StagePool& pool,
                                    const parallel::IntraOpCompiler& compiler,
                                    parallel::ParallelConfig config, sim::Profiler& profiler) {
  core::StageDataset dataset;
  for (std::size_t i = 0; i < pool.slices.size(); ++i) {
    const parallel::StagePlan plan = compiler.Compile(pool.programs[i], config);
    if (!plan.Valid()) continue;
    core::StageSample sample;
    sample.slice = pool.slices[i];
    sample.name = pool.programs[i].name;
    sample.num_equations = pool.programs[i].NumEquations();
    sample.true_latency_s = plan.latency_s;
    sample.measured_latency_s = static_cast<float>(
        profiler.ProfileStage(plan.latency_s, pool.programs[i].NumEquations()));
    sample.encoded = pool.encoded[i];
    dataset.labels.push_back(sample.measured_latency_s);
    dataset.samples.push_back(std::move(sample));
  }
  return dataset;
}

/// Train + evaluate one predictor on one labeled scenario at one training
/// fraction (paper protocol: `fraction` train, 10% validation, rest test).
inline double CellMre(const core::StageDataset& dataset, core::PredictorKind kind,
                      const GridConfig& grid, double fraction, std::uint64_t split_seed) {
  util::Rng rng(split_seed);
  const nn::DataSplit split = nn::SplitDataset(dataset.Size(), fraction, 0.10, rng);
  if (split.train.empty() || split.test.empty()) return 0.0;
  core::LatencyRegressor regressor(kind, grid.predictor);
  regressor.Fit(dataset, split.train, split.validation, grid.train);
  return regressor.MrePercent(dataset, split.test);
}

// ---- grid computation with CSV cache ----

inline std::string GridCsvPath(const GridConfig& grid, const std::string& platform_id,
                               const std::string& benchmark_id) {
  return grid.results_dir + "/mre_" + platform_id + "_" + benchmark_id +
         (grid.full ? "_full" : "") + ".csv";
}

/// First line of a grid CSV: every setting that decides the grid's cells.
/// A cached grid is reused only when its line equals the running one, so a
/// run with other epochs, samples or model sizes recomputes instead of
/// printing another configuration's cells. (Fractions are matched per row.)
inline std::string GridConfigLine(const GridConfig& grid, std::size_t num_samples,
                                  std::int32_t max_span) {
  const nn::TrainConfig& t = grid.train;
  const core::PredictorOptions& p = grid.predictor;
  std::ostringstream os;
  os << "# full=" << grid.full << " samples=" << num_samples
     << " max_span=" << max_span << " epochs=" << t.max_epochs << " patience=" << t.patience
     << " lr=" << t.base_lr << " batch=" << t.batch_size
     << " loss=" << static_cast<int>(t.loss) << " shuffle_seed=" << t.shuffle_seed
     << " features=" << p.feature_dim << " dagt=" << p.dagt_dim
     << 'x' << p.dagt_layers << 'h' << p.dagt_heads << 'f' << p.dagt_ffn_mult
     << " gcn=" << p.gcn_dim << 'x' << p.gcn_layers << " gat=" << p.gat_dim << 'x'
     << p.gat_layers << " dagra=" << p.use_dagra << " dagpe=" << p.use_dagpe
     << " model_seed=" << p.seed << " seed=" << grid.seed;
  return os.str();
}

inline void SaveGrid(const MreGrid& grid_data, const std::string& config_line,
                     const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << config_line << "\n";
  out << "scenario,fraction_pct,gcn,gat,tran\n";
  for (std::size_t s = 0; s < grid_data.scenario_names.size(); ++s) {
    for (std::size_t f = 0; f < grid_data.fraction_pcts.size(); ++f) {
      const CellResult& cell = grid_data.cells[s][f];
      out << grid_data.scenario_names[s] << ',' << grid_data.fraction_pcts[f] << ','
          << cell.mre_gcn << ',' << cell.mre_gat << ',' << cell.mre_tran << '\n';
    }
  }
}

inline std::optional<MreGrid> LoadGrid(const std::string& path, const std::string& config_line,
                                       const std::vector<int>& expected_fractions) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != config_line) return std::nullopt;  // other config
  std::getline(in, line);  // column header
  std::map<std::string, std::map<int, CellResult>> by_scenario;
  std::vector<std::string> scenario_order;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string scenario, field;
    std::getline(ss, scenario, ',');
    CellResult cell;
    int pct = 0;
    std::getline(ss, field, ',');
    pct = std::stoi(field);
    std::getline(ss, field, ',');
    cell.mre_gcn = std::stod(field);
    std::getline(ss, field, ',');
    cell.mre_gat = std::stod(field);
    std::getline(ss, field, ',');
    cell.mre_tran = std::stod(field);
    if (by_scenario.find(scenario) == by_scenario.end()) scenario_order.push_back(scenario);
    by_scenario[scenario][pct] = cell;
  }
  MreGrid grid_data;
  grid_data.fraction_pcts = expected_fractions;
  for (const std::string& name : scenario_order) {
    std::vector<CellResult> row;
    for (const int pct : expected_fractions) {
      const auto it = by_scenario[name].find(pct);
      if (it == by_scenario[name].end()) return std::nullopt;  // stale cache
      row.push_back(it->second);
    }
    grid_data.scenario_names.push_back(name);
    grid_data.cells.push_back(std::move(row));
  }
  return grid_data.scenario_names.empty() ? std::nullopt : std::make_optional(grid_data);
}

/// Load the (platform, benchmark) MRE grid from the results cache, or
/// compute it (profiling + training the three predictors for every cell)
/// and save it.
inline MreGrid EnsureMreGrid(const GridConfig& grid, const sim::ClusterSpec& cluster,
                             const std::string& platform_id,
                             const core::BenchmarkModel& benchmark,
                             const std::string& benchmark_id, std::size_t num_samples,
                             std::int32_t max_span) {
  const std::string path = GridCsvPath(grid, platform_id, benchmark_id);
  const std::string config_line = GridConfigLine(grid, num_samples, max_span);
  if (const auto cached = LoadGrid(path, config_line, grid.fraction_pcts)) {
    std::cerr << "[bench] using cached grid " << path << "\n";
    return *cached;
  }
  util::Stopwatch total;
  const StagePool pool = BuildStagePool(benchmark, num_samples, max_span, grid.seed);
  const auto scenarios = PlatformScenarios(cluster);
  MreGrid grid_data;
  grid_data.fraction_pcts = grid.fraction_pcts;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    const parallel::IntraOpCompiler compiler(cluster, scenario.mesh);
    sim::Profiler profiler({}, grid.seed ^ (0x51ULL * (s + 1)));
    const core::StageDataset dataset = LabelPool(pool, compiler, scenario.config, profiler);
    std::vector<CellResult> row;
    for (std::size_t f = 0; f < grid.fraction_pcts.size(); ++f) {
      const double fraction = grid.fraction_pcts[f] / 100.0;
      const std::uint64_t split_seed = grid.seed + 1013ULL * s + 7ULL * f;
      CellResult cell;
      cell.mre_gcn = CellMre(dataset, core::PredictorKind::kGcn, grid, fraction, split_seed);
      cell.mre_gat = CellMre(dataset, core::PredictorKind::kGat, grid, fraction, split_seed);
      cell.mre_tran =
          CellMre(dataset, core::PredictorKind::kDagTransformer, grid, fraction, split_seed);
      std::cerr << "[bench] " << benchmark_id << " " << platform_id << " " << scenario.name
                << " " << grid.fraction_pcts[f] << "%: GCN=" << util::FormatF(cell.mre_gcn, 2)
                << " GAT=" << util::FormatF(cell.mre_gat, 2)
                << " Tran=" << util::FormatF(cell.mre_tran, 2) << "\n";
      row.push_back(cell);
    }
    grid_data.scenario_names.push_back(scenario.name);
    grid_data.cells.push_back(std::move(row));
  }
  SaveGrid(grid_data, config_line, path);
  std::cerr << "[bench] grid " << path << " computed in "
            << util::FormatSeconds(total.ElapsedSeconds()) << "\n";
  return grid_data;
}

/// Print an MRE grid in the layout of paper Tbls. V/VI: one row per training
/// fraction (descending), scenario-major columns of GCN | GAT | Tran.
inline void PrintMreTable(const MreGrid& grid_data, const std::string& title,
                          std::ostream& os) {
  std::vector<std::string> header{"# of Samples"};
  for (const std::string& name : grid_data.scenario_names) {
    header.push_back(name + " GCN");
    header.push_back(name + " GAT");
    header.push_back(name + " Tran");
  }
  util::TablePrinter table(header);
  table.SetTitle(title);
  // Paper rows run 80% down to 10%.
  for (std::size_t f = grid_data.fraction_pcts.size(); f-- > 0;) {
    std::vector<std::string> row{std::to_string(grid_data.fraction_pcts[f]) + "%"};
    for (std::size_t s = 0; s < grid_data.scenario_names.size(); ++s) {
      const CellResult& cell = grid_data.cells[s][f];
      row.push_back(util::FormatF(cell.mre_gcn, 2));
      row.push_back(util::FormatF(cell.mre_gat, 2));
      row.push_back(util::FormatF(cell.mre_tran, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

}  // namespace predtop::bench
