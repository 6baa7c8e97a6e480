#pragma once
// Explicit SIMD helpers built on GCC/Clang vector extensions. The compiler
// cannot auto-vectorize float reductions (not associative) or the
// bit-twiddling exp approximation, so the two hot spots of predictor
// training — narrow-output GEMMs and attention softmax — use these 8-wide
// kernels directly. Scalar fallbacks keep other compilers working.

#include <cstdint>
#include <cstring>
#include <limits>

namespace predtop::tensor::simd {

#if defined(__GNUC__) || defined(__clang__)
#define PREDTOP_HAVE_VECTOR_EXT 1
using F8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));

inline F8 Broadcast(float v) noexcept { return F8{v, v, v, v, v, v, v, v}; }

inline float HorizontalSum(F8 v) noexcept {
  return v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7];
}

inline float HorizontalMax(F8 v) noexcept {
  float m = v[0];
  for (int i = 1; i < 8; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

#if defined(__AVX512F__)
inline float HorizontalSum16(float __attribute__((vector_size(64))) v) noexcept {
  float total = v[0];
  for (int i = 1; i < 16; ++i) total += v[i];
  return total;
}
#endif

// 16-wide twins, native on AVX-512 and legalized to narrower ops elsewhere;
// elementwise kernels produce the same bits at any width, so these are
// drop-in fast paths, not a numeric fork.
using F16 = float __attribute__((vector_size(64)));
using I16 = std::int32_t __attribute__((vector_size(64)));

inline F16 Broadcast16(float v) noexcept {
  return F16{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v};
}
#endif

/// Dot product of two contiguous float spans of length n.
[[nodiscard]] inline float Dot(const float* __restrict a, const float* __restrict b,
                               std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  F8 acc0 = Broadcast(0.0f);
  F8 acc1 = Broadcast(0.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    F8 va0, vb0, va1, vb1;
    std::memcpy(&va0, a + i, sizeof va0);
    std::memcpy(&vb0, b + i, sizeof vb0);
    std::memcpy(&va1, a + i + 8, sizeof va1);
    std::memcpy(&vb1, b + i + 8, sizeof vb1);
    acc0 += va0 * vb0;
    acc1 += va1 * vb1;
  }
  float total = HorizontalSum(acc0 + acc1);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
#else
  float total = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
#endif
}

/// Sum of a contiguous float span.
[[nodiscard]] inline float Sum(const float* __restrict a, std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  F8 acc = Broadcast(0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F8 va;
    std::memcpy(&va, a + i, sizeof va);
    acc += va;
  }
  float total = HorizontalSum(acc);
  for (; i < n; ++i) total += a[i];
  return total;
#else
  float total = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) total += a[i];
  return total;
#endif
}

/// Sum over i of (x[i] - c)^2. Lane-split reduction: the value can differ
/// from a sequential sum in the last bits (callers accept ~1e-7 relative
/// divergence; see fused::LayerNormRow).
[[nodiscard]] inline float SumSquaredDiff(const float* __restrict x, float c,
                                          std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  const F8 vc = Broadcast(c);
  F8 acc = Broadcast(0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F8 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    const F8 d = vx - vc;
    acc += d * d;
  }
  float total = HorizontalSum(acc);
  for (; i < n; ++i) {
    const float d = x[i] - c;
    total += d * d;
  }
  return total;
#else
  float total = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = x[i] - c;
    total += d * d;
  }
  return total;
#endif
}

/// Scalar exp approximation for non-positive inputs (range-reduced 2^f
/// polynomial, ~1e-4 relative error on [-87, 0]; underflows to 0 below).
///
/// The reduced argument f = x*log2(e) - n must carry a single rounding: an
/// FMA target contracts the product into the subtraction, but without FMA
/// the rounded product's error (relative 2^-24 of |x*log2(e)|) would land in
/// f, so exp's error would grow with |x|. Those builds form the product in
/// double, where it is exact.
[[nodiscard]] inline float ExpNonPositive(float x) noexcept {
#if defined(__FMA__)
  const float y = x * 1.442695041f;
  const float n = static_cast<float>(static_cast<int>(y - 0.5f));  // floor for y <= 0
  const float f = y - n;                                           // in [0, 1)
#else
  const double y = static_cast<double>(x) * static_cast<double>(1.442695041f);
  const double nd = static_cast<double>(static_cast<int>(y - 0.5));
  const float n = static_cast<float>(nd);
  const float f = static_cast<float>(y - nd);
#endif
  float p = 1.8775767e-3f;
  p = p * f + 8.9893397e-3f;
  p = p * f + 5.5826318e-2f;
  p = p * f + 2.4015361e-1f;
  p = p * f + 6.9315308e-1f;
  p = p * f + 9.9999994e-1f;
  const int ni = static_cast<int>(n) + 127;
  if (ni <= 0) return 0.0f;
  std::uint32_t bits = static_cast<std::uint32_t>(ni) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

#ifdef PREDTOP_HAVE_VECTOR_EXT
/// One 8-wide step of the exp approximation, input pre-clamped per lane to
/// [-100, 0] by the caller (the clamp makes fully-masked -inf entries
/// underflow to exactly 0 via the exponent clamp below). Without FMA the
/// range reduction runs in double, as in ExpNonPositive.
inline F8 ExpNonPositiveV(F8 vx) noexcept {
  const F8 floor_arg = Broadcast(-100.0f);
  vx = vx < floor_arg ? floor_arg : vx;
#if defined(__FMA__)
  const F8 y = vx * Broadcast(1.442695041f);
  const I8 nint = __builtin_convertvector(y - Broadcast(0.5f), I8);  // floor for y <= 0
  const F8 nf = __builtin_convertvector(nint, F8);
  const F8 f = y - nf;
#else
  using D8 = double __attribute__((vector_size(64)));
  const D8 y = __builtin_convertvector(vx, D8) * static_cast<double>(1.442695041f);
  const I8 nint = __builtin_convertvector(y - 0.5, I8);  // floor for y <= 0
  const F8 f = __builtin_convertvector(y - __builtin_convertvector(nint, D8), F8);
#endif
  F8 p = Broadcast(1.8775767e-3f);
  p = p * f + Broadcast(8.9893397e-3f);
  p = p * f + Broadcast(5.5826318e-2f);
  p = p * f + Broadcast(2.4015361e-1f);
  p = p * f + Broadcast(6.9315308e-1f);
  p = p * f + Broadcast(9.9999994e-1f);
  I8 ni = nint + 127;
  const I8 underflow = ni <= 0;  // lanewise mask (-1 where true)
  ni = (ni & ~underflow) << 23;  // exponent bits become 0 on underflow
  F8 scale;
  std::memcpy(&scale, &ni, sizeof scale);
  return p * scale;  // scale is +0.0 on underflow lanes
}

#if defined(__AVX512F__)
/// 16-wide twin of ExpNonPositiveV — same polynomial, same rounding, same
/// bits per lane, half the instructions per element.
inline F16 ExpNonPositiveV16(F16 vx) noexcept {
  const F16 floor_arg = Broadcast16(-100.0f);
  vx = vx < floor_arg ? floor_arg : vx;
  const F16 y = vx * Broadcast16(1.442695041f);
  const I16 nint = __builtin_convertvector(y - Broadcast16(0.5f), I16);
  const F16 nf = __builtin_convertvector(nint, F16);
  const F16 f = y - nf;
  F16 p = Broadcast16(1.8775767e-3f);
  p = p * f + Broadcast16(8.9893397e-3f);
  p = p * f + Broadcast16(5.5826318e-2f);
  p = p * f + Broadcast16(2.4015361e-1f);
  p = p * f + Broadcast16(6.9315308e-1f);
  p = p * f + Broadcast16(9.9999994e-1f);
  I16 ni = nint + 127;
  const I16 underflow = ni <= 0;
  ni = (ni & ~underflow) << 23;
  F16 scale;
  std::memcpy(&scale, &ni, sizeof scale);
  return p * scale;
}
#endif
#endif

/// out[i] = exp(x[i]) for non-positive x, vectorized. Values below the
/// underflow cutoff produce 0.
inline void ExpNonPositiveN(const float* __restrict x, float* __restrict out,
                            std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  std::int64_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    F16 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    const F16 result = ExpNonPositiveV16(vx);
    std::memcpy(out + i, &result, sizeof result);
  }
#endif
  for (; i + 8 <= n; i += 8) {
    F8 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    const F8 result = ExpNonPositiveV(vx);
    std::memcpy(out + i, &result, sizeof result);
  }
  for (; i < n; ++i) out[i] = x[i] < -100.0f ? 0.0f : ExpNonPositive(x[i]);
#else
  for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] < -100.0f ? 0.0f : ExpNonPositive(x[i]);
#endif
}

/// max over i of x[i] + add[i] (`add` nullable). The per-lane adds are the
/// same elementwise operations as the scalar loop and max is exactly
/// associative, so this reduction is bit-identical to a sequential pass.
[[nodiscard]] inline float MaskedRowMax(const float* __restrict x, const float* __restrict add,
                                        std::int64_t n) noexcept {
  float maxv = -std::numeric_limits<float>::infinity();
  std::int64_t i = 0;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  if (n >= 8) {
    F8 vmax = Broadcast(-std::numeric_limits<float>::infinity());
    if (add != nullptr) {
      for (; i + 8 <= n; i += 8) {
        F8 vx, va;
        std::memcpy(&vx, x + i, sizeof vx);
        std::memcpy(&va, add + i, sizeof va);
        const F8 v = vx + va;
        vmax = v > vmax ? v : vmax;
      }
    } else {
      for (; i + 8 <= n; i += 8) {
        F8 vx;
        std::memcpy(&vx, x + i, sizeof vx);
        vmax = vx > vmax ? vx : vmax;
      }
    }
    maxv = HorizontalMax(vmax);
  }
#endif
  for (; i < n; ++i) {
    const float v = x[i] + (add != nullptr ? add[i] : 0.0f);
    maxv = v > maxv ? v : maxv;
  }
  return maxv;
}

/// out[i] = exp(x[i] + add[i] - shift) with `add` nullable and the arguments
/// guaranteed non-positive (shift is the row max). Fuses the softmax shift
/// pass into the exp pass; per element this is the identical float sequence
/// (add, subtract, ExpNonPositive) as the two-pass formulation. `out` may
/// equal `x` (in-place): each lane is read before it is written, so x and
/// out carry no __restrict.
inline void ExpShiftedNonPositiveN(const float* x, const float* __restrict add, float shift,
                                   float* out, std::int64_t n) noexcept {
  std::int64_t i = 0;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  const F8 vshift = Broadcast(shift);
  if (add != nullptr) {
#if defined(__AVX512F__)
    const F16 wshift = Broadcast16(shift);
    for (; i + 16 <= n; i += 16) {
      F16 vx, va;
      std::memcpy(&vx, x + i, sizeof vx);
      std::memcpy(&va, add + i, sizeof va);
      const F16 result = ExpNonPositiveV16((vx + va) - wshift);
      std::memcpy(out + i, &result, sizeof result);
    }
#endif
    for (; i + 8 <= n; i += 8) {
      F8 vx, va;
      std::memcpy(&vx, x + i, sizeof vx);
      std::memcpy(&va, add + i, sizeof va);
      const F8 result = ExpNonPositiveV((vx + va) - vshift);
      std::memcpy(out + i, &result, sizeof result);
    }
  } else {
#if defined(__AVX512F__)
    const F16 wshift = Broadcast16(shift);
    for (; i + 16 <= n; i += 16) {
      F16 vx;
      std::memcpy(&vx, x + i, sizeof vx);
      const F16 result = ExpNonPositiveV16(vx - wshift);
      std::memcpy(out + i, &result, sizeof result);
    }
#endif
    for (; i + 8 <= n; i += 8) {
      F8 vx;
      std::memcpy(&vx, x + i, sizeof vx);
      const F8 result = ExpNonPositiveV(vx - vshift);
      std::memcpy(out + i, &result, sizeof result);
    }
  }
#endif
  for (; i < n; ++i) {
    const float v = x[i] + (add != nullptr ? add[i] : 0.0f) - shift;
    out[i] = v < -100.0f ? 0.0f : ExpNonPositive(v);
  }
}

/// ExpShiftedNonPositiveN that also returns the sum of the outputs,
/// accumulated in vector lanes during the exp pass (lane-split order, so the
/// value can differ from a sequential sum in the last bits). In-place calls
/// (`out == x`) are allowed, as for ExpShiftedNonPositiveN.
inline float ExpShiftedNonPositiveSumN(const float* x, const float* __restrict add,
                                       float shift, float* out, std::int64_t n) noexcept {
  float total = 0.0f;
  std::int64_t i = 0;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  F8 acc8 = Broadcast(0.0f);
  const F8 vshift = Broadcast(shift);
#if defined(__AVX512F__)
  F16 acc16 = Broadcast16(0.0f);
  const F16 wshift = Broadcast16(shift);
  for (; i + 16 <= n; i += 16) {
    F16 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    if (add != nullptr) {
      F16 va;
      std::memcpy(&va, add + i, sizeof va);
      vx += va;
    }
    const F16 result = ExpNonPositiveV16(vx - wshift);
    acc16 += result;
    std::memcpy(out + i, &result, sizeof result);
  }
  total += HorizontalSum16(acc16);
#endif
  for (; i + 8 <= n; i += 8) {
    F8 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    if (add != nullptr) {
      F8 va;
      std::memcpy(&va, add + i, sizeof va);
      vx += va;
    }
    const F8 result = ExpNonPositiveV(vx - vshift);
    acc8 += result;
    std::memcpy(out + i, &result, sizeof result);
  }
  total += HorizontalSum(acc8);
#endif
  for (; i < n; ++i) {
    const float v = x[i] + (add != nullptr ? add[i] : 0.0f) - shift;
    const float e = v < -100.0f ? 0.0f : ExpNonPositive(v);
    out[i] = e;
    total += e;
  }
  return total;
}

}  // namespace predtop::tensor::simd
