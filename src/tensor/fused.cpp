#include "tensor/fused.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/simd.h"

namespace predtop::tensor::fused {

namespace {

constexpr float kNegInfCut = -1e30f;

}  // namespace

void BiasActRows(float* c, std::int64_t rows, std::int64_t cols, std::int64_t ldc,
                 const float* bias, Act act) noexcept {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = c + i * ldc;
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < cols; ++j) row[j] += bias[j];
    }
    switch (act) {
      case Act::kRelu:
        for (std::int64_t j = 0; j < cols; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
        break;
      case Act::kGelu: {
        constexpr float kC = 0.7978845608f;  // sqrt(2/pi), as tensor::Gelu
        for (std::int64_t j = 0; j < cols; ++j) {
          const float x = row[j];
          const float inner = kC * (x + 0.044715f * x * x * x);
          row[j] = 0.5f * x * (1.0f + std::tanh(inner));
        }
        break;
      }
      case Act::kNone: break;
    }
  }
}

void LayerNormRow(const float* xrow, const float* gain, const float* bias, float* orow,
                  std::int64_t cols, float eps) noexcept {
  const float mean = simd::Sum(xrow, cols) / static_cast<float>(cols);
  const float var = simd::SumSquaredDiff(xrow, mean, cols) / static_cast<float>(cols);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::int64_t j = 0; j < cols; ++j) {
    const float xh = (xrow[j] - mean) * inv;
    orow[j] = xh * gain[j] + bias[j];
  }
}

float MaskedSoftmaxRetryRow(const float* lrow, const float* mrow, float* orow,
                            std::int64_t n) noexcept {
  // The shift must come from lanes that survive the mask — adding a -inf mask
  // entry to an overflowed +inf logit is NaN, so the mask is *checked*, never
  // added, on this path.
  float mmax = -std::numeric_limits<float>::infinity();
  for (std::int64_t j = 0; j < n; ++j) {
    if (mrow != nullptr && mrow[j] < kNegInfCut) continue;
    mmax = std::max(mmax, lrow[j]);
  }
  if (mmax < kNegInfCut) {  // no open lane: all-zero weights, inv 0
    std::fill(orow, orow + n, 0.0f);
    return 0.0f;
  }
  float total = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) {
    if (mrow != nullptr && mrow[j] < kNegInfCut) {
      orow[j] = 0.0f;
      continue;
    }
    const float v = lrow[j] - mmax;
    const float e = v < -100.0f ? 0.0f : simd::ExpNonPositive(v);
    orow[j] = e;
    total += e;
  }
  return total > 0.0f ? 1.0f / total : 0.0f;
}

void DeferredSoftmaxRowChunks(const float* lrow, float* orow, std::int64_t cols,
                              const std::int32_t* chunks, std::int64_t num_chunks,
                              float* inv) noexcept {
  if (num_chunks <= 0) {
    std::fill(orow, orow + cols, 0.0f);
    *inv = 0.0f;
    return;
  }
  const std::int64_t first = chunks[0];
  const std::int64_t last = chunks[2 * num_chunks - 1];
  std::fill(orow, orow + first, 0.0f);
  std::fill(orow + last, orow + cols, 0.0f);
  float maxv = -std::numeric_limits<float>::infinity();
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const std::int64_t lo = chunks[2 * c], hi = chunks[2 * c + 1];
    const float m = simd::MaskedRowMax(lrow + lo, nullptr, hi - lo);
    maxv = m > maxv ? m : maxv;
  }
  float total = 0.0f;
  std::int64_t prev = first;
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const std::int64_t lo = chunks[2 * c], hi = chunks[2 * c + 1];
    std::fill(orow + prev, orow + lo, 0.0f);
    total += simd::ExpShiftedNonPositiveSumN(lrow + lo, nullptr, maxv, orow + lo, hi - lo);
    prev = hi;
  }
  *inv = total > 0.0f ? 1.0f / total : 0.0f;
}

}  // namespace predtop::tensor::fused
