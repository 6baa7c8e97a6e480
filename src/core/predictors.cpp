#include "core/predictors.h"

#include <atomic>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include <mutex>
#include <unordered_map>

#include "autograd/functions.h"
#include "fault/status.h"
#include "graph/depth.h"
#include "nn/serialize.h"
#include "util/thread_pool.h"

namespace predtop::core {

using autograd::Variable;

StagePredictor::~StagePredictor() {
  compile::ProgramCache::Global().EvictOwner(instance_id_);
}

float StagePredictor::Infer(const graph::EncodedGraph& g) {
  float y = 0.0f;
  if (TryInferCompiled(g, &y)) return y;
  return Forward(g).value().data()[0];
}

std::shared_ptr<compile::InferProgram> StagePredictor::CachedProgram(
    const graph::EncodedGraph& g) {
  auto& cache = compile::ProgramCache::Global();
  const auto ne = static_cast<std::int64_t>(g.edge_src.size());
  if (auto hit = cache.Lookup(instance_id_, g.num_nodes, ne)) return *hit;
  std::shared_ptr<compile::InferProgram> program = BuildProgram(g);
  cache.Insert(instance_id_, g.num_nodes, ne, program);
  return program;
}

void StagePredictor::FillExecInputs(const graph::EncodedGraph& g,
                                    compile::ExecInputs& inputs,
                                    std::shared_ptr<const tensor::Tensor>& keepalive) {
  (void)keepalive;
  inputs = compile::ExecInputs{};
  inputs.g = &g;
}

bool StagePredictor::TryInferCompiled(const graph::EncodedGraph& g, float* out) {
  const auto program = CachedProgram(g);
  if (program == nullptr) return false;
  compile::ExecInputs inputs;
  std::shared_ptr<const tensor::Tensor> keepalive;
  FillExecInputs(g, inputs, keepalive);
  return compile::Execute(*program, inputs, out);
}

bool StagePredictor::TryInferCompiledBatch(const graph::EncodedGraph* const* graphs,
                                           std::size_t count, float* out,
                                           util::ThreadPool* pool) {
  if (count == 0) return true;
  if (graphs == nullptr || out == nullptr) return false;
  const auto program = CachedProgram(*graphs[0]);
  if (program == nullptr) return false;
  std::atomic<bool> ok{true};
  const auto run = [&](std::size_t i) {
    compile::ExecInputs inputs;
    std::shared_ptr<const tensor::Tensor> keepalive;
    FillExecInputs(*graphs[i], inputs, keepalive);
    if (!compile::Execute(*program, inputs, &out[i])) ok.store(false, std::memory_order_relaxed);
  };
  if (pool != nullptr && count > 1) {
    pool->ParallelFor(count, run);
  } else {
    for (std::size_t i = 0; i < count; ++i) run(i);
  }
  return ok.load(std::memory_order_relaxed);
}

const char* PredictorKindName(PredictorKind kind) noexcept {
  switch (kind) {
    case PredictorKind::kDagTransformer: return "Tran";
    case PredictorKind::kGcn: return "GCN";
    case PredictorKind::kGat: return "GAT";
  }
  return "?";
}

namespace {

/// Paper §IV-B5: DAG Transformer layers -> global add pool -> linear layers
/// with ReLU -> scalar output. DAGPE sinusoidal depth encodings are added to
/// the projected input embedding; DAGRA masks restrict attention.
class DagTransformerPredictor final : public StagePredictor {
 public:
  explicit DagTransformerPredictor(const PredictorOptions& options)
      : options_(options), rng_(options.seed), input_proj_(options.feature_dim, options.dagt_dim, rng_) {
    for (std::int64_t i = 0; i < options.dagt_layers; ++i) {
      layers_.push_back(std::make_unique<nn::DagTransformerLayer>(
          options.dagt_dim, options.dagt_heads, options.dagt_ffn_mult, rng_));
    }
    // The head sees the pooled transformer embedding concatenated with the
    // pooled *raw* node features: layer norm inside the transformer blocks
    // squashes magnitude information, and this residual pathway restores the
    // additive cost signal (sum of per-op features) that stage latency
    // carries, which matters most in the low-training-sample regime.
    const std::int64_t head_in = options.dagt_dim + options.feature_dim;
    head_ = std::make_unique<nn::Mlp>(
        std::vector<std::int64_t>{head_in, options.dagt_dim, 1}, rng_);
  }

  Variable Forward(const graph::EncodedGraph& g) override {
    const Variable features(g.features);
    Variable h = input_proj_.Forward(features);
    if (options_.use_dagpe) {
      const tensor::Tensor pe = graph::SinusoidalEncoding(g.depths, options_.dagt_dim);
      h = autograd::Add(h, Variable(pe));
    }
    // Packed once per forward and shared by every head of every layer; the
    // ablation without DAGRA opens every lane.
    const auto mask = std::make_shared<const tensor::AttentionMask>(
        options_.use_dagra ? tensor::AttentionMask::FromAdditive(g.dagra_mask)
                           : tensor::AttentionMask::AllOpen(g.num_nodes));
    for (const auto& layer : layers_) h = layer->Forward(h, mask);
    // Raw-feature sums grow with node count and log-dim magnitude; scale
    // them to O(1) so they do not swamp Adam's updates.
    const std::vector<Variable> pooled{
        autograd::GlobalAddPool(h),
        autograd::Scale(autograd::GlobalAddPool(features), 1.0f / 256.0f)};
    return head_->Forward(autograd::ConcatCols(pooled));
  }

  std::string Name() const override { return "DagTransformer"; }

  /// Record Forward's op sequence: input projection (+DAGPE), the four
  /// steps per transformer layer the fuser produces, pooled head. The fusion
  /// pass turns each layer into kFusedAttention + two kLinearResidualNorm +
  /// one kLinearAct step.
  std::shared_ptr<compile::InferProgram> BuildProgram(
      const graph::EncodedGraph& g) const override {
    if (g.num_nodes <= 0 || g.features.rank() != 2 ||
        g.features.dim(1) != options_.feature_dim) {
      return nullptr;
    }
    const std::int64_t n = g.num_nodes;
    compile::ProgramBuilder b(n, static_cast<std::int64_t>(g.edge_src.size()),
                              options_.feature_dim);
    const compile::ValueId x = b.Input(compile::External::kFeatures, n, options_.feature_dim);
    compile::ValueId h = b.Linear(input_proj_, x);
    if (options_.use_dagpe) {
      b.Add(h, b.Input(compile::External::kDepthPe, n, options_.dagt_dim));
    }
    for (const auto& layer : layers_) {
      const nn::MultiheadMaskedAttention& at = layer->Attention();
      const compile::ValueId q = b.Linear(at.Wq(), h);
      const compile::ValueId k = b.Linear(at.Wk(), h);
      const compile::ValueId v = b.Linear(at.Wv(), h);
      b.Scale(q, 1.0f / std::sqrt(static_cast<float>(at.HeadDim())));
      const compile::ValueId merged = b.AttnHeads(at, q, k, v, options_.use_dagra);
      const compile::ValueId o = b.Linear(at.Wo(), merged);
      b.Add(o, h);
      const compile::ValueId h1 = b.LayerNorm(o, layer->Norm1Gain(), layer->Norm1Bias());
      const compile::ValueId f = b.Linear(layer->FfnIn(), h1);
      b.Relu(f);
      const compile::ValueId ffn = b.Linear(layer->FfnOut(), f);
      b.Add(ffn, h1);
      h = b.LayerNorm(ffn, layer->Norm2Gain(), layer->Norm2Bias());
    }
    const compile::ValueId pooled_h = b.Pool(h);
    const compile::ValueId pooled_f = b.Pool(x);
    b.Scale(pooled_f, 1.0f / 256.0f);
    compile::ValueId t = b.Concat2(pooled_h, pooled_f);
    const std::vector<nn::Linear>& head_layers = head_->Layers();
    for (std::size_t i = 0; i < head_layers.size(); ++i) {
      t = b.Linear(head_layers[i], t);
      if (i + 1 < head_layers.size()) b.Relu(t);
    }
    return b.Finish(t);
  }

  /// Compiled-path externals: the DAGRA mask and the depth-keyed cached
  /// depth encoding (kept alive through `keepalive` for the call).
  void FillExecInputs(const graph::EncodedGraph& g, compile::ExecInputs& inputs,
                      std::shared_ptr<const tensor::Tensor>& keepalive) override {
    inputs = compile::ExecInputs{};
    inputs.g = &g;
    if (options_.use_dagra) inputs.mask = &g.dagra_mask;
    if (options_.use_dagpe) {
      keepalive = CachedDepthEncoding(g);
      inputs.pe = keepalive->data().data();
    }
  }

  std::vector<Variable*> Parameters() override {
    std::vector<Variable*> out = input_proj_.Parameters();
    for (const auto& layer : layers_) {
      for (auto* p : layer->Parameters()) out.push_back(p);
    }
    for (auto* p : head_->Parameters()) out.push_back(p);
    return out;
  }

  std::vector<nn::NamedParameter> NamedParameters() override {
    std::vector<nn::NamedParameter> out;
    nn::AppendNamedParameters(out, "input_proj", input_proj_);
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      nn::AppendNamedParameters(out, "layers." + std::to_string(i), *layers_[i]);
    }
    nn::AppendNamedParameters(out, "head", *head_);
    return out;
  }

 private:
  /// Depth positional encodings are pure functions of the per-node depth
  /// vector, so repeated predictions for the same DAG (the common case when
  /// searching plans) reuse one tensor. The cache is keyed by the depth
  /// vector itself, in node order, so a hit is exact; an order-free key such
  /// as the graph fingerprint would hand a DAG the rows of another node
  /// order of the same graph. The encoding is computed outside the lock; the
  /// map only ever stores immutable tensors behind shared_ptr, so readers
  /// are safe against a concurrent clear.
  std::shared_ptr<const tensor::Tensor> CachedDepthEncoding(const graph::EncodedGraph& g) {
    {
      std::lock_guard<std::mutex> lock(pe_mutex_);
      const auto it = pe_cache_.find(g.depths);
      if (it != pe_cache_.end()) return it->second;
    }
    auto pe = std::make_shared<const tensor::Tensor>(
        graph::SinusoidalEncoding(g.depths, options_.dagt_dim));
    std::lock_guard<std::mutex> lock(pe_mutex_);
    if (pe_cache_.size() >= kPeCacheCapacity) pe_cache_.clear();
    return pe_cache_.try_emplace(g.depths, std::move(pe)).first->second;
  }

  struct DepthsHash {
    std::size_t operator()(const std::vector<std::int32_t>& depths) const noexcept {
      std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the depths in order
      for (const std::int32_t d : depths) {
        h = (h ^ static_cast<std::uint32_t>(d)) * 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };

  static constexpr std::size_t kPeCacheCapacity = 1024;

  PredictorOptions options_;
  util::Rng rng_;
  nn::Linear input_proj_;
  std::vector<std::unique_ptr<nn::DagTransformerLayer>> layers_;
  std::unique_ptr<nn::Mlp> head_;
  std::mutex pe_mutex_;
  std::unordered_map<std::vector<std::int32_t>, std::shared_ptr<const tensor::Tensor>,
                     DepthsHash>
      pe_cache_;
};

/// GCN baseline (paper §VII-D): stacked GcnConv + ReLU, add pool, MLP head.
class GcnPredictor final : public StagePredictor {
 public:
  explicit GcnPredictor(const PredictorOptions& options) : rng_(options.seed) {
    std::int64_t in = options.feature_dim;
    for (std::int64_t i = 0; i < options.gcn_layers; ++i) {
      layers_.push_back(std::make_unique<nn::GcnConv>(in, options.gcn_dim, rng_));
      in = options.gcn_dim;
    }
    head_ = std::make_unique<nn::Mlp>(std::vector<std::int64_t>{in, in / 2, 1}, rng_);
  }

  Variable Forward(const graph::EncodedGraph& g) override {
    Variable h(g.features);
    for (const auto& layer : layers_) {
      h = autograd::Relu(layer->Forward(h, g.adj_norm, g.adj_norm_t));
    }
    return head_->Forward(autograd::GlobalAddPool(h));
  }

  std::string Name() const override { return "GCN"; }

  std::shared_ptr<compile::InferProgram> BuildProgram(
      const graph::EncodedGraph& g) const override {
    if (layers_.empty()) return nullptr;
    const std::int64_t feature_dim = layers_.front()->Projection().InFeatures();
    if (g.num_nodes <= 0 || g.features.rank() != 2 || g.features.dim(1) != feature_dim ||
        g.adj_norm == nullptr) {
      return nullptr;
    }
    compile::ProgramBuilder b(g.num_nodes, static_cast<std::int64_t>(g.edge_src.size()),
                              feature_dim);
    compile::ValueId h =
        b.Input(compile::External::kFeatures, g.num_nodes, feature_dim);
    for (const auto& layer : layers_) {
      const compile::ValueId t = b.Linear(layer->Projection(), h);
      h = b.Spmm(t);
      b.Relu(h);
    }
    compile::ValueId t = b.Pool(h);
    const std::vector<nn::Linear>& head_layers = head_->Layers();
    for (std::size_t i = 0; i < head_layers.size(); ++i) {
      t = b.Linear(head_layers[i], t);
      if (i + 1 < head_layers.size()) b.Relu(t);
    }
    return b.Finish(t);
  }

  std::vector<Variable*> Parameters() override {
    std::vector<Variable*> out;
    for (const auto& layer : layers_) {
      for (auto* p : layer->Parameters()) out.push_back(p);
    }
    for (auto* p : head_->Parameters()) out.push_back(p);
    return out;
  }

  std::vector<nn::NamedParameter> NamedParameters() override {
    std::vector<nn::NamedParameter> out;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      nn::AppendNamedParameters(out, "layers." + std::to_string(i), *layers_[i]);
    }
    nn::AppendNamedParameters(out, "head", *head_);
    return out;
  }

 private:
  util::Rng rng_;
  std::vector<std::unique_ptr<nn::GcnConv>> layers_;
  std::unique_ptr<nn::Mlp> head_;
};

/// GAT baseline (paper §VII-D): stacked GatConv + ReLU, add pool, MLP head.
class GatPredictor final : public StagePredictor {
 public:
  explicit GatPredictor(const PredictorOptions& options) : rng_(options.seed) {
    std::int64_t in = options.feature_dim;
    for (std::int64_t i = 0; i < options.gat_layers; ++i) {
      layers_.push_back(std::make_unique<nn::GatConv>(in, options.gat_dim, rng_));
      in = options.gat_dim;
    }
    head_ = std::make_unique<nn::Mlp>(std::vector<std::int64_t>{in, in, 1}, rng_);
  }

  Variable Forward(const graph::EncodedGraph& g) override {
    Variable h(g.features);
    for (const auto& layer : layers_) {
      h = autograd::Relu(layer->Forward(h, g.edge_src, g.edge_dst));
    }
    return head_->Forward(autograd::GlobalAddPool(h));
  }

  std::string Name() const override { return "GAT"; }

  std::shared_ptr<compile::InferProgram> BuildProgram(
      const graph::EncodedGraph& g) const override {
    if (layers_.empty()) return nullptr;
    const std::int64_t feature_dim = layers_.front()->Projection().InFeatures();
    if (g.num_nodes <= 0 || g.features.rank() != 2 || g.features.dim(1) != feature_dim ||
        g.edge_src.size() != g.edge_dst.size()) {
      return nullptr;
    }
    compile::ProgramBuilder b(g.num_nodes, static_cast<std::int64_t>(g.edge_src.size()),
                              feature_dim);
    compile::ValueId h =
        b.Input(compile::External::kFeatures, g.num_nodes, feature_dim);
    for (const auto& layer : layers_) {
      const compile::ValueId proj = b.Linear(layer->Projection(), h);
      const compile::ValueId src_scores = b.MatVec(proj, layer->AttnSrc());
      const compile::ValueId dst_scores = b.MatVec(proj, layer->AttnDst());
      const compile::ValueId e = b.EdgeScores(src_scores, dst_scores);
      b.LeakyRelu(e, layer->NegativeSlope());
      const compile::ValueId alpha = b.SegmentSoftmax(e);
      const compile::ValueId messages = b.GatherRows(proj, /*by_dst=*/false);
      b.RowScale(messages, alpha);
      const compile::ValueId agg = b.SegmentSum(messages);
      b.AddRowVector(agg, layer->BiasVar());
      b.Relu(agg);
      h = agg;
    }
    compile::ValueId t = b.Pool(h);
    const std::vector<nn::Linear>& head_layers = head_->Layers();
    for (std::size_t i = 0; i < head_layers.size(); ++i) {
      t = b.Linear(head_layers[i], t);
      if (i + 1 < head_layers.size()) b.Relu(t);
    }
    return b.Finish(t);
  }

  std::vector<Variable*> Parameters() override {
    std::vector<Variable*> out;
    for (const auto& layer : layers_) {
      for (auto* p : layer->Parameters()) out.push_back(p);
    }
    for (auto* p : head_->Parameters()) out.push_back(p);
    return out;
  }

  std::vector<nn::NamedParameter> NamedParameters() override {
    std::vector<nn::NamedParameter> out;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      nn::AppendNamedParameters(out, "layers." + std::to_string(i), *layers_[i]);
    }
    nn::AppendNamedParameters(out, "head", *head_);
    return out;
  }

 private:
  util::Rng rng_;
  std::vector<std::unique_ptr<nn::GatConv>> layers_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace

std::unique_ptr<StagePredictor> MakePredictor(PredictorKind kind,
                                              const PredictorOptions& options) {
  if (options.feature_dim <= 0) {
    throw std::invalid_argument("MakePredictor: feature_dim must be set");
  }
  switch (kind) {
    case PredictorKind::kDagTransformer:
      return std::make_unique<DagTransformerPredictor>(options);
    case PredictorKind::kGcn:
      return std::make_unique<GcnPredictor>(options);
    case PredictorKind::kGat:
      return std::make_unique<GatPredictor>(options);
  }
  throw std::invalid_argument("MakePredictor: unknown kind");
}

namespace {

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw fault::CorruptionError("predictor checkpoint: truncated stream");
  return value;
}

void WriteOptions(std::ostream& out, const PredictorOptions& o) {
  for (const std::int64_t v : {o.feature_dim, o.dagt_dim, o.dagt_layers, o.dagt_heads,
                               o.dagt_ffn_mult, o.gcn_dim, o.gcn_layers, o.gat_dim,
                               o.gat_layers}) {
    WritePod<std::int64_t>(out, v);
  }
  WritePod<std::uint8_t>(out, o.use_dagra ? 1 : 0);
  WritePod<std::uint8_t>(out, o.use_dagpe ? 1 : 0);
  WritePod<std::uint64_t>(out, o.seed);
}

PredictorOptions ReadOptions(std::istream& in) {
  PredictorOptions o;
  for (std::int64_t* field : {&o.feature_dim, &o.dagt_dim, &o.dagt_layers, &o.dagt_heads,
                              &o.dagt_ffn_mult, &o.gcn_dim, &o.gcn_layers, &o.gat_dim,
                              &o.gat_layers}) {
    *field = ReadPod<std::int64_t>(in);
  }
  o.use_dagra = ReadPod<std::uint8_t>(in) != 0;
  o.use_dagpe = ReadPod<std::uint8_t>(in) != 0;
  o.seed = ReadPod<std::uint64_t>(in);
  return o;
}

}  // namespace

void SavePredictor(std::ostream& out, PredictorKind kind, const PredictorOptions& options,
                   StagePredictor& model) {
  WritePod<std::int32_t>(out, static_cast<std::int32_t>(kind));
  WriteOptions(out, options);
  nn::WriteStateDict(out, model);
}

LoadedPredictor LoadPredictor(std::istream& in) {
  const auto tag = ReadPod<std::int32_t>(in);
  if (tag < 0 || tag > static_cast<std::int32_t>(PredictorKind::kGat)) {
    throw fault::CorruptionError("predictor checkpoint: unknown model kind tag " +
                             std::to_string(tag));
  }
  LoadedPredictor loaded;
  loaded.kind = static_cast<PredictorKind>(tag);
  loaded.options = ReadOptions(in);
  if (loaded.options.feature_dim <= 0 || loaded.options.feature_dim > (1 << 20)) {
    throw fault::CorruptionError("predictor checkpoint: implausible feature_dim");
  }
  loaded.model = MakePredictor(loaded.kind, loaded.options);
  nn::ReadStateDict(in, *loaded.model);
  return loaded;
}

}  // namespace predtop::core
