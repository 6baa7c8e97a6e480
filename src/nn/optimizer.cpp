#include "nn/optimizer.h"

#include <cmath>

namespace predtop::nn {

Adam::Adam(Module& model, AdamConfig config) : model_(model), config_(config) {
  for (const auto* p : model_.Parameters()) {
    m_.emplace_back(p->value().shape());
    v_.emplace_back(p->value().shape());
  }
}

bool Adam::Step(float lr) {
  const auto params = model_.Parameters();
  // Scan every gradient BEFORE mutating anything: a partial update that
  // aborts midway would corrupt the moment buffers just as surely as
  // letting the NaN through.
  for (const auto* p : params) {
    for (const float g : p->grad().data()) {
      if (!std::isfinite(g)) return false;
    }
  }
  ++t_;
  const float b1 = config_.beta1, b2 = config_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& value = params[i]->mutable_value();
    const auto grad = params[i]->grad().data();
    auto val = value.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < val.size(); ++j) {
      const float g = grad[j];
      m[j] = b1 * m[j] + (1.0f - b1) * g;
      v[j] = b2 * v[j] + (1.0f - b2) * g * g;
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      float update = mhat / (std::sqrt(vhat) + config_.eps);
      if (config_.weight_decay > 0.0f) update += config_.weight_decay * val[j];
      val[j] -= lr * update;
    }
  }
  BumpParameterEpoch();  // cached packed weights must repack
  return true;
}

float CosineDecayLr(float base_lr, std::int64_t epoch, std::int64_t total_epochs) {
  if (total_epochs <= 1) return base_lr;
  // total_epochs - 1, not total_epochs: the last epoch run is total - 1, and
  // the schedule must land on 0 there.
  const float frac =
      static_cast<float>(epoch) / static_cast<float>(total_epochs - 1);
  return 0.5f * base_lr * (1.0f + std::cos(3.14159265358979323846f * frac));
}

}  // namespace predtop::nn
