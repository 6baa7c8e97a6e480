#include "nn/module.h"

#include <atomic>
#include <stdexcept>

#include "nn/serialize.h"

namespace predtop::nn {

namespace {

std::atomic<std::uint64_t> g_parameter_epoch{1};

}  // namespace

std::uint64_t ParameterEpoch() noexcept {
  return g_parameter_epoch.load(std::memory_order_acquire);
}

void BumpParameterEpoch() noexcept {
  g_parameter_epoch.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t Module::ParameterCount() {
  std::size_t n = 0;
  for (const auto* p : Parameters()) n += static_cast<std::size_t>(p->value().numel());
  return n;
}

void Module::ZeroGrad() {
  for (auto* p : Parameters()) p->ZeroGrad();
}

std::vector<NamedParameter> Module::NamedParameters() {
  std::vector<NamedParameter> out;
  const auto params = Parameters();
  out.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    out.push_back({"param." + std::to_string(i), params[i]});
  }
  return out;
}

std::vector<tensor::Tensor> Module::SnapshotParameters() {
  std::vector<tensor::Tensor> out;
  for (const auto* p : Parameters()) out.push_back(p->value());
  return out;
}

void Module::RestoreParameters(const std::vector<tensor::Tensor>& snapshot) {
  auto params = Parameters();
  if (snapshot.size() != params.size()) {
    throw std::invalid_argument("RestoreParameters: snapshot size mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->value().SameShape(snapshot[i])) {
      throw std::invalid_argument("RestoreParameters: parameter shape mismatch");
    }
    params[i]->mutable_value() = snapshot[i];
  }
  BumpParameterEpoch();  // cached packed weights must repack
}

void Module::Save(std::ostream& out) { WriteStateDict(out, *this); }

void Module::Load(std::istream& in) { ReadStateDict(in, *this); }

void AppendNamedParameters(std::vector<NamedParameter>& out, const std::string& prefix,
                           Module& child) {
  for (const NamedParameter& p : child.NamedParameters()) {
    out.push_back({prefix + "." + p.name, p.variable});
  }
}

}  // namespace predtop::nn
