#include "core/regressor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "fault/crc32.h"
#include "fault/injector.h"
#include "fault/status.h"
#include "nn/serialize.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace predtop::core {

LatencyRegressor::LatencyRegressor(PredictorKind kind, PredictorOptions options,
                                   TargetTransform transform)
    : kind_(kind),
      options_(options),
      model_(MakePredictor(kind, options)),
      transform_(transform) {}

namespace {

// `.ptck` framing, version 3 (hardened): "PTCK" magic, format version,
// payload length (u64), payload, CRC32 footer over the payload. The payload
// is the version-2 body — target transform + normalization stats, then the
// predictor section (kind tag, architecture options, named state dict — see
// core::SavePredictor). The length prefix is validated against the remaining
// stream size before the payload is buffered, and the CRC turns any bit rot
// or truncation inside the payload into a typed CorruptionError instead of
// subtly-wrong weights.
constexpr std::uint32_t kCheckpointMagic = 0x5054434b;  // "PTCK"
constexpr std::uint32_t kCheckpointVersion = 3;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw fault::CorruptionError("LatencyRegressor: truncated checkpoint");
  return value;
}

}  // namespace

void LatencyRegressor::Save(std::ostream& out) {
  std::ostringstream payload_stream(std::ios::binary);
  WritePod<std::int32_t>(payload_stream, static_cast<std::int32_t>(transform_));
  WritePod<double>(payload_stream, scale_);
  WritePod<double>(payload_stream, log_mean_);
  WritePod<double>(payload_stream, log_std_);
  SavePredictor(payload_stream, kind_, options_, *model_);
  const std::string payload = payload_stream.str();

  WritePod(out, kCheckpointMagic);
  WritePod(out, kCheckpointVersion);
  WritePod<std::uint64_t>(out, payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  WritePod<std::uint32_t>(out, fault::Crc32(payload));
  if (!out) throw fault::IoError("LatencyRegressor::Save: stream write failed");
}

void LatencyRegressor::Save(const std::string& path) {
  // Atomic save: write the full frame to a sibling temp file, then rename it
  // over the target. A crash (or an injected ckpt_write fault) mid-save
  // leaves either the previous checkpoint or nothing — never a torn frame
  // under the real name.
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  std::error_code discard;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw fault::IoError("LatencyRegressor::Save: cannot open " + tmp);
    try {
      Save(out);
    } catch (...) {
      out.close();
      fs::remove(tmp, discard);
      throw;
    }
    out.flush();
    if (!out) {
      out.close();
      fs::remove(tmp, discard);
      throw fault::IoError("LatencyRegressor::Save: write failed for " + tmp);
    }
  }
  if (fault::Injector::Global().ShouldInject(fault::sites::kCkptWrite)) {
    fs::remove(tmp, discard);
    throw fault::IoError("LatencyRegressor::Save: injected ckpt_write fault for " + path);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, discard);
    throw fault::IoError("LatencyRegressor::Save: rename to " + path +
                         " failed: " + ec.message());
  }
}

LatencyRegressor LatencyRegressor::Load(std::istream& in) {
  if (ReadPod<std::uint32_t>(in) != kCheckpointMagic) {
    throw fault::CorruptionError("LatencyRegressor::Load: bad checkpoint magic");
  }
  if (const auto version = ReadPod<std::uint32_t>(in); version != kCheckpointVersion) {
    throw fault::CorruptionError(
        "LatencyRegressor::Load: unsupported checkpoint version " +
        std::to_string(version));
  }
  const auto payload_size = ReadPod<std::uint64_t>(in);
  nn::CheckClaimedSize(in, payload_size, "checkpoint payload");
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in) throw fault::CorruptionError("LatencyRegressor::Load: truncated payload");
  const auto stored_crc = ReadPod<std::uint32_t>(in);
  if (const std::uint32_t actual = fault::Crc32(payload); actual != stored_crc) {
    throw fault::CorruptionError("LatencyRegressor::Load: checkpoint CRC mismatch");
  }

  std::istringstream body(payload, std::ios::binary);
  const auto transform_tag = ReadPod<std::int32_t>(body);
  if (transform_tag < 0 ||
      transform_tag > static_cast<std::int32_t>(TargetTransform::kLogStandardized)) {
    throw fault::CorruptionError("LatencyRegressor::Load: unknown target transform");
  }
  const double scale = ReadPod<double>(body);
  const double log_mean = ReadPod<double>(body);
  const double log_std = ReadPod<double>(body);
  LoadedPredictor predictor = LoadPredictor(body);
  if (body.peek() != std::istringstream::traits_type::eof()) {
    throw fault::CorruptionError(
        "LatencyRegressor::Load: trailing bytes after checkpoint payload");
  }
  LatencyRegressor regressor(predictor.kind, predictor.options,
                             static_cast<TargetTransform>(transform_tag));
  regressor.model_ = std::move(predictor.model);
  regressor.scale_ = scale;
  regressor.log_mean_ = log_mean;
  regressor.log_std_ = log_std;
  return regressor;
}

LatencyRegressor LatencyRegressor::Load(const std::string& path) {
  if (fault::Injector::Global().ShouldInject(fault::sites::kCkptRead)) {
    throw fault::IoError("LatencyRegressor::Load: injected ckpt_read fault for " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw fault::IoError("LatencyRegressor::Load: cannot open " + path);
  return Load(in);
}

float LatencyRegressor::Normalize(double latency_s) const noexcept {
  if (transform_ == TargetTransform::kLinearMeanScaled) {
    return static_cast<float>(latency_s / scale_);
  }
  return static_cast<float>((std::log(latency_s) - log_mean_) / log_std_);
}

double LatencyRegressor::Denormalize(float normalized) const noexcept {
  if (transform_ == TargetTransform::kLinearMeanScaled) {
    return static_cast<double>(normalized) * scale_;
  }
  return std::exp(static_cast<double>(normalized) * log_std_ + log_mean_);
}

nn::TrainResult LatencyRegressor::Fit(const StageDataset& dataset,
                                      std::span<const std::size_t> train_indices,
                                      std::span<const std::size_t> val_indices,
                                      const nn::TrainConfig& train_config) {
  if (train_indices.empty()) throw std::invalid_argument("LatencyRegressor::Fit: no samples");
  // Fit the target normalization to training labels only.
  std::vector<double> logs;
  double sum = 0.0;
  logs.reserve(train_indices.size());
  for (const std::size_t i : train_indices) {
    sum += static_cast<double>(dataset.labels[i]);
    logs.push_back(std::log(static_cast<double>(dataset.labels[i])));
  }
  scale_ = std::max(1e-12, sum / static_cast<double>(train_indices.size()));
  log_mean_ = util::Mean(logs);
  log_std_ = std::max(1e-6, util::StdDev(logs));

  std::vector<float> targets;
  targets.reserve(dataset.labels.size());
  for (const float label : dataset.labels) {
    targets.push_back(Normalize(static_cast<double>(label)));
  }
  const nn::Trainer trainer(train_config);
  return trainer.Fit(
      *model_,
      [&](std::size_t i) { return model_->Forward(dataset.samples[i].encoded); },
      targets, train_indices, val_indices);
}

double LatencyRegressor::PredictSeconds(const graph::EncodedGraph& g) {
  const float pred = model_->Infer(g);
  // Latencies are positive by definition; the linear head can extrapolate
  // below zero early in training, so clamp to a 1 us floor.
  return std::max(1e-6, Denormalize(pred));
}

double LatencyRegressor::PredictSecondsTape(const graph::EncodedGraph& g) {
  const autograd::Variable pred = model_->Forward(g);
  return std::max(1e-6, Denormalize(pred.value().data()[0]));
}

std::vector<double> LatencyRegressor::PredictBatch(std::span<const graph::EncodedGraph> graphs,
                                                   util::ThreadPool* pool) {
  std::vector<const graph::EncodedGraph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const graph::EncodedGraph& g : graphs) ptrs.push_back(&g);
  return PredictBatch(std::span<const graph::EncodedGraph* const>(ptrs), pool);
}

std::vector<double> LatencyRegressor::PredictBatch(
    std::span<const graph::EncodedGraph* const> graphs, util::ThreadPool* pool) {
  std::vector<double> out(graphs.size(), 0.0);
  if (graphs.empty()) return out;

  // Group by shape class — one compiled program serves one (nodes, edges)
  // pair — preserving arrival order within each group.
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::size_t>> by_shape;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    by_shape[{graphs[i]->num_nodes, static_cast<std::int64_t>(graphs[i]->edge_src.size())}]
        .push_back(i);
  }
  std::vector<const std::vector<std::size_t>*> groups;
  groups.reserve(by_shape.size());
  for (const auto& entry : by_shape) groups.push_back(&entry.second);

  // One task per group. Groups have distinct program-cache keys, so no
  // program is built twice, and each task writes only its own `out` slots.
  // A group's members fan out on the same pool (nested ParallelFor).
  const auto run_group = [&](std::size_t k) {
    const std::vector<std::size_t>& indices = *groups[k];
    std::vector<const graph::EncodedGraph*> members;
    members.reserve(indices.size());
    for (const std::size_t i : indices) members.push_back(graphs[i]);
    std::vector<float> preds(indices.size(), 0.0f);
    if (model_->TryInferCompiledBatch(members.data(), members.size(), preds.data(), pool)) {
      for (std::size_t j = 0; j < indices.size(); ++j) {
        out[indices[j]] = std::max(1e-6, Denormalize(preds[j]));
      }
    } else {
      // Shape class not compilable: per-graph PredictSeconds, which answers
      // on the tape (same clamp).
      for (const std::size_t i : indices) out[i] = PredictSeconds(*graphs[i]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(groups.size(), run_group);
  } else {
    for (std::size_t k = 0; k < groups.size(); ++k) run_group(k);
  }
  return out;
}

double LatencyRegressor::MrePercent(const StageDataset& dataset,
                                    std::span<const std::size_t> indices) {
  std::vector<double> predicted;
  std::vector<double> actual;
  predicted.reserve(indices.size());
  actual.reserve(indices.size());
  for (const std::size_t i : indices) {
    predicted.push_back(PredictSeconds(dataset.samples[i].encoded));
    actual.push_back(dataset.samples[i].true_latency_s);
  }
  return util::MeanRelativeErrorPct(predicted, actual);
}

}  // namespace predtop::core
