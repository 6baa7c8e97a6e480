#include "autograd/functions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tensor/ops.h"
#include "tensor/simd.h"

namespace predtop::autograd {

namespace {

using detail::Node;
using tensor::Tensor;

/// Build an op node: value, parents, backward closure. The node participates
/// in gradient flow iff any parent does.
Variable MakeOp(Tensor value, std::vector<Variable> inputs,
                std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->id = detail::NextNodeId();
  node->parents.reserve(inputs.size());
  bool any_grad = false;
  for (const auto& in : inputs) {
    node->parents.push_back(in.node());
    any_grad = any_grad || in.node()->requires_grad;
  }
  node->requires_grad = any_grad;
  if (any_grad) node->backward = std::move(backward);
  return Variable::FromNode(std::move(node));
}

bool Needs(const Node& n, std::size_t parent) { return n.parents[parent]->requires_grad; }

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = tensor::MatMul(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(tensor::MatMulTransB(n.grad, bv));
    if (Needs(n, 1)) n.parents[1]->AccumulateGrad(tensor::MatMulTransA(av, n.grad));
  });
}

Variable Transpose(const Variable& a) {
  return MakeOp(tensor::Transpose2D(a.value()), {a}, [](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(tensor::Transpose2D(n.grad));
  });
}

Variable Add(const Variable& a, const Variable& b) {
  return MakeOp(tensor::Add(a.value(), b.value()), {a, b}, [](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(n.grad);
    if (Needs(n, 1)) n.parents[1]->AccumulateGrad(n.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOp(tensor::Sub(a.value(), b.value()), {a, b}, [](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(n.grad);
    if (Needs(n, 1)) n.parents[1]->AccumulateGrad(tensor::Scale(n.grad, -1.0f));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  return MakeOp(tensor::Mul(a.value(), b.value()), {a, b}, [](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(tensor::Mul(n.grad, n.parents[1]->value));
    if (Needs(n, 1)) n.parents[1]->AccumulateGrad(tensor::Mul(n.grad, n.parents[0]->value));
  });
}

Variable Scale(const Variable& a, float s) {
  return MakeOp(tensor::Scale(a.value(), s), {a}, [s](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(tensor::Scale(n.grad, s));
  });
}

Variable AddRowVector(const Variable& m, const Variable& bias) {
  return MakeOp(tensor::AddRowVector(m.value(), bias.value()), {m, bias}, [](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(n.grad);
    if (Needs(n, 1)) n.parents[1]->AccumulateGrad(tensor::SumRows(n.grad));
  });
}

namespace {

template <typename FwdFn, typename DervFn>
Variable UnaryElementwise(const Variable& a, FwdFn&& fwd, DervFn&& derv) {
  Tensor out = fwd(a.value());
  return MakeOp(std::move(out), {a}, [derv](Node& n) {
    if (!Needs(n, 0)) return;
    const Tensor& x = n.parents[0]->value;
    Tensor g(n.grad.shape());
    const auto gx = x.data();
    const auto gy = n.value.data();
    const auto gg = n.grad.data();
    auto go = g.data();
    for (std::size_t i = 0; i < go.size(); ++i) go[i] = gg[i] * derv(gx[i], gy[i]);
    n.parents[0]->AccumulateGrad(g);
  });
}

}  // namespace

Variable Relu(const Variable& a) {
  return UnaryElementwise(
      a, [](const Tensor& t) { return tensor::Relu(t); },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  return UnaryElementwise(
      a, [negative_slope](const Tensor& t) { return tensor::LeakyRelu(t, negative_slope); },
      [negative_slope](float x, float) { return x > 0.0f ? 1.0f : negative_slope; });
}

Variable Gelu(const Variable& a) {
  return UnaryElementwise(
      a, [](const Tensor& t) { return tensor::Gelu(t); },
      [](float x, float) {
        constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
        const float x3 = x * x * x;
        const float inner = kC * (x + 0.044715f * x3);
        const float t = std::tanh(inner);
        const float sech2 = 1.0f - t * t;
        return 0.5f * (1.0f + t) + 0.5f * x * sech2 * kC * (1.0f + 3.0f * 0.044715f * x * x);
      });
}

Variable Tanh(const Variable& a) {
  return UnaryElementwise(
      a, [](const Tensor& t) { return tensor::Tanh(t); },
      [](float, float y) { return 1.0f - y * y; });
}

namespace {

Variable SoftmaxImpl(const Variable& logits, const Tensor* mask) {
  Tensor out = tensor::RowSoftmax(logits.value(), mask);
  return MakeOp(std::move(out), {logits}, [](Node& n) {
    if (!Needs(n, 0)) return;
    // dX = S o (dS - rowsum(dS o S)), rows fully masked stay zero.
    const Tensor& s = n.value;
    const std::int64_t rows = s.dim(0), cols = s.dim(1);
    Tensor g(s.shape());
    const float* ps = s.data().data();
    const float* pg = n.grad.data().data();
    float* po = g.data().data();
    for (std::int64_t i = 0; i < rows; ++i) {
      const float dot = tensor::simd::Dot(pg + i * cols, ps + i * cols, cols);
      for (std::int64_t j = 0; j < cols; ++j) {
        po[i * cols + j] = ps[i * cols + j] * (pg[i * cols + j] - dot);
      }
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

}  // namespace

Variable MaskedRowSoftmax(const Variable& logits, const Tensor& additive_mask) {
  return SoftmaxImpl(logits, &additive_mask);
}

Variable RowSoftmax(const Variable& logits) { return SoftmaxImpl(logits, nullptr); }

Variable MaskedAttention(const Variable& q, const Variable& k, const Variable& v,
                         std::shared_ptr<const tensor::AttentionMask> mask,
                         std::int64_t heads) {
  const Tensor& qv = q.value();
  if (qv.rank() != 2 || !qv.SameShape(k.value()) || !qv.SameShape(v.value())) {
    throw std::invalid_argument("MaskedAttention: q, k and v must be equal-shape 2-D");
  }
  if (heads <= 0 || qv.dim(1) % heads != 0) {
    throw std::invalid_argument("MaskedAttention: width must be divisible by heads");
  }
  if (!mask) throw std::invalid_argument("MaskedAttention: null mask");
  const tensor::AttentionShape shape{qv.dim(0), heads, qv.dim(1) / heads};
  const float scale = 1.0f / std::sqrt(static_cast<float>(shape.head_dim));
  Tensor out(qv.shape());
  // Per (head, row): softmax shift in [0, heads * n), 1/sum in the rest.
  std::vector<float> stats(static_cast<std::size_t>(2 * heads * shape.n));
  tensor::MaskedAttentionForward(qv.data().data(), k.value().data().data(),
                                 v.value().data().data(), shape, *mask, scale,
                                 out.data().data(), stats.data(),
                                 stats.data() + heads * shape.n);
  return MakeOp(std::move(out), {q, k, v},
                [mask = std::move(mask), shape, scale, stats = std::move(stats)](Node& n) {
    const Tensor& qv = n.parents[0]->value;
    Tensor dq(qv.shape()), dk(qv.shape()), dv(qv.shape());
    tensor::MaskedAttentionBackward(
        qv.data().data(), n.parents[1]->value.data().data(),
        n.parents[2]->value.data().data(), n.value.data().data(), n.grad.data().data(), shape,
        *mask, scale, stats.data(), stats.data() + shape.heads * shape.n, dq.data().data(),
        dk.data().data(), dv.data().data());
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(dq);
    if (Needs(n, 1)) n.parents[1]->AccumulateGrad(dk);
    if (Needs(n, 2)) n.parents[2]->AccumulateGrad(dv);
  });
}

Variable MaskedAttention(const Variable& q, const Variable& k, const Variable& v,
                         const Tensor& additive_mask, std::int64_t heads) {
  return MaskedAttention(
      q, k, v,
      std::make_shared<const tensor::AttentionMask>(
          tensor::AttentionMask::FromAdditive(additive_mask)),
      heads);
}

Variable LayerNorm(const Variable& x, const Variable& gain, const Variable& bias, float eps) {
  const Tensor& xv = x.value();
  if (xv.rank() != 2) throw std::invalid_argument("LayerNorm: x must be 2-D");
  const std::int64_t rows = xv.dim(0), cols = xv.dim(1);
  if (gain.value().rank() != 1 || gain.value().dim(0) != cols ||
      bias.value().rank() != 1 || bias.value().dim(0) != cols) {
    throw std::invalid_argument("LayerNorm: gain/bias must be 1-D of width cols");
  }
  Tensor xhat({rows, cols});
  Tensor inv_sigma({rows});
  Tensor out({rows, cols});
  const float* px = xv.data().data();
  const float* pgain = gain.value().data().data();
  const float* pbias = bias.value().data().data();
  for (std::int64_t i = 0; i < rows; ++i) {
    float mean = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) mean += px[i * cols + j];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float d = px[i * cols + j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float inv = 1.0f / std::sqrt(var + eps);
    inv_sigma[i] = inv;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float xh = (px[i * cols + j] - mean) * inv;
      xhat.at(i, j) = xh;
      out.at(i, j) = xh * pgain[j] + pbias[j];
    }
  }
  return MakeOp(std::move(out), {x, gain, bias},
                [xhat = std::move(xhat), inv_sigma = std::move(inv_sigma)](Node& n) {
    const std::int64_t rows = xhat.dim(0), cols = xhat.dim(1);
    const Tensor& gainv = n.parents[1]->value;
    const float* pg = n.grad.data().data();
    const float* pxh = xhat.data().data();
    const float* pgain = gainv.data().data();
    if (Needs(n, 0)) {
      Tensor dx({rows, cols});
      float* pdx = dx.data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        // dxhat = dy o gain; dx = inv_sigma * (dxhat - mean(dxhat)
        //                                      - xhat * mean(dxhat o xhat))
        float m1 = 0.0f, m2 = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) {
          const float dxh = pg[i * cols + j] * pgain[j];
          m1 += dxh;
          m2 += dxh * pxh[i * cols + j];
        }
        m1 /= static_cast<float>(cols);
        m2 /= static_cast<float>(cols);
        const float inv = inv_sigma[i];
        for (std::int64_t j = 0; j < cols; ++j) {
          const float dxh = pg[i * cols + j] * pgain[j];
          pdx[i * cols + j] = inv * (dxh - m1 - pxh[i * cols + j] * m2);
        }
      }
      n.parents[0]->AccumulateGrad(dx);
    }
    if (Needs(n, 1)) {
      Tensor dgain({cols});
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
          dgain[j] += pg[i * cols + j] * pxh[i * cols + j];
        }
      }
      n.parents[1]->AccumulateGrad(dgain);
    }
    if (Needs(n, 2)) n.parents[2]->AccumulateGrad(tensor::SumRows(n.grad));
  });
}

Variable SliceCols(const Variable& x, std::int64_t start, std::int64_t count) {
  const Tensor& xv = x.value();
  if (xv.rank() != 2) throw std::invalid_argument("SliceCols: x must be 2-D");
  const std::int64_t rows = xv.dim(0), cols = xv.dim(1);
  if (start < 0 || count <= 0 || start + count > cols) {
    throw std::invalid_argument("SliceCols: range out of bounds");
  }
  Tensor out({rows, count});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < count; ++j) out.at(i, j) = xv.at(i, start + j);
  }
  return MakeOp(std::move(out), {x}, [start, count, rows, cols](Node& n) {
    if (!Needs(n, 0)) return;
    Tensor dx({rows, cols});
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < count; ++j) dx.at(i, start + j) = n.grad.at(i, j);
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Variable ConcatCols(std::span<const Variable> parts) {
  if (parts.empty()) throw std::invalid_argument("ConcatCols: no inputs");
  const std::int64_t rows = parts[0].value().dim(0);
  std::int64_t total = 0;
  std::vector<std::int64_t> widths;
  widths.reserve(parts.size());
  for (const auto& p : parts) {
    if (p.value().rank() != 2 || p.value().dim(0) != rows) {
      throw std::invalid_argument("ConcatCols: row count mismatch");
    }
    widths.push_back(p.value().dim(1));
    total += p.value().dim(1);
  }
  Tensor out({rows, total});
  std::int64_t off = 0;
  for (const auto& p : parts) {
    const Tensor& pv = p.value();
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < pv.dim(1); ++j) out.at(i, off + j) = pv.at(i, j);
    }
    off += pv.dim(1);
  }
  std::vector<Variable> inputs(parts.begin(), parts.end());
  return MakeOp(std::move(out), std::move(inputs),
                [widths = std::move(widths), rows](Node& n) {
    std::int64_t off = 0;
    for (std::size_t p = 0; p < n.parents.size(); ++p) {
      const std::int64_t w = widths[p];
      if (n.parents[p]->requires_grad) {
        Tensor dp({rows, w});
        for (std::int64_t i = 0; i < rows; ++i) {
          for (std::int64_t j = 0; j < w; ++j) dp.at(i, j) = n.grad.at(i, off + j);
        }
        n.parents[p]->AccumulateGrad(dp);
      }
      off += w;
    }
  });
}

Variable RowScale(const Variable& x, const Variable& s) {
  const Tensor& xv = x.value();
  const Tensor& sv = s.value();
  if (xv.rank() != 2 || sv.rank() != 2 || sv.dim(1) != 1 || sv.dim(0) != xv.dim(0)) {
    throw std::invalid_argument("RowScale: expected x(m,c) and s(m,1)");
  }
  const std::int64_t rows = xv.dim(0), cols = xv.dim(1);
  Tensor out({rows, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    const float sc = sv.at(i, 0);
    for (std::int64_t j = 0; j < cols; ++j) out.at(i, j) = xv.at(i, j) * sc;
  }
  return MakeOp(std::move(out), {x, s}, [rows, cols](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const Tensor& sv = n.parents[1]->value;
    if (Needs(n, 0)) {
      Tensor dx({rows, cols});
      for (std::int64_t i = 0; i < rows; ++i) {
        const float sc = sv.at(i, 0);
        for (std::int64_t j = 0; j < cols; ++j) dx.at(i, j) = n.grad.at(i, j) * sc;
      }
      n.parents[0]->AccumulateGrad(dx);
    }
    if (Needs(n, 1)) {
      Tensor ds({rows, 1});
      for (std::int64_t i = 0; i < rows; ++i) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < cols; ++j) acc += n.grad.at(i, j) * xv.at(i, j);
        ds.at(i, 0) = acc;
      }
      n.parents[1]->AccumulateGrad(ds);
    }
  });
}

Variable SpMM(std::shared_ptr<const tensor::Csr> a,
              std::shared_ptr<const tensor::Csr> a_transposed, const Variable& x) {
  if (!a || !a_transposed) throw std::invalid_argument("SpMM: null adjacency");
  Tensor out = tensor::SpMM(*a, x.value());
  return MakeOp(std::move(out), {x}, [at = std::move(a_transposed)](Node& n) {
    if (Needs(n, 0)) n.parents[0]->AccumulateGrad(tensor::SpMM(*at, n.grad));
  });
}

Variable IndexSelectRows(const Variable& x, std::vector<std::int32_t> indices) {
  const Tensor& xv = x.value();
  if (xv.rank() != 2) throw std::invalid_argument("IndexSelectRows: x must be 2-D");
  const std::int64_t rows = xv.dim(0), cols = xv.dim(1);
  const auto m = static_cast<std::int64_t>(indices.size());
  Tensor out({m, cols});
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t src = indices[static_cast<std::size_t>(i)];
    if (src < 0 || src >= rows) throw std::out_of_range("IndexSelectRows: index out of range");
    for (std::int64_t j = 0; j < cols; ++j) out.at(i, j) = xv.at(src, j);
  }
  return MakeOp(std::move(out), {x}, [indices = std::move(indices), rows, cols](Node& n) {
    if (!Needs(n, 0)) return;
    Tensor dx({rows, cols});
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::int32_t dst = indices[i];
      for (std::int64_t j = 0; j < cols; ++j) {
        dx.at(dst, j) += n.grad.at(static_cast<std::int64_t>(i), j);
      }
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Variable SegmentSum(const Variable& x, std::vector<std::int32_t> segment_ids,
                    std::int64_t num_segments) {
  const Tensor& xv = x.value();
  if (xv.rank() != 2) throw std::invalid_argument("SegmentSum: x must be 2-D");
  if (static_cast<std::int64_t>(segment_ids.size()) != xv.dim(0)) {
    throw std::invalid_argument("SegmentSum: one segment id per row required");
  }
  const std::int64_t cols = xv.dim(1);
  Tensor out({num_segments, cols});
  for (std::size_t i = 0; i < segment_ids.size(); ++i) {
    const std::int32_t s = segment_ids[i];
    if (s < 0 || s >= num_segments) throw std::out_of_range("SegmentSum: segment id out of range");
    for (std::int64_t j = 0; j < cols; ++j) {
      out.at(s, j) += xv.at(static_cast<std::int64_t>(i), j);
    }
  }
  return MakeOp(std::move(out), {x},
                [segment_ids = std::move(segment_ids), cols](Node& n) {
    if (!Needs(n, 0)) return;
    Tensor dx({static_cast<std::int64_t>(segment_ids.size()), cols});
    for (std::size_t i = 0; i < segment_ids.size(); ++i) {
      for (std::int64_t j = 0; j < cols; ++j) {
        dx.at(static_cast<std::int64_t>(i), j) = n.grad.at(segment_ids[i], j);
      }
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Variable SegmentSoftmax(const Variable& x, std::vector<std::int32_t> segment_ids,
                        std::int64_t num_segments) {
  const Tensor& xv = x.value();
  if (xv.rank() != 2) throw std::invalid_argument("SegmentSoftmax: x must be 2-D");
  if (static_cast<std::int64_t>(segment_ids.size()) != xv.dim(0)) {
    throw std::invalid_argument("SegmentSoftmax: one segment id per row required");
  }
  const std::int64_t rows = xv.dim(0), cols = xv.dim(1);
  // Numerically stable: subtract the per-(segment, column) max first.
  Tensor maxv({num_segments, cols});
  maxv.Fill(-std::numeric_limits<float>::infinity());
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int32_t s = segment_ids[static_cast<std::size_t>(i)];
    if (s < 0 || s >= num_segments) {
      throw std::out_of_range("SegmentSoftmax: segment id out of range");
    }
    for (std::int64_t j = 0; j < cols; ++j) {
      maxv.at(s, j) = std::max(maxv.at(s, j), xv.at(i, j));
    }
  }
  Tensor expd({rows, cols});
  Tensor denom({num_segments, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int32_t s = segment_ids[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(xv.at(i, j) - maxv.at(s, j));
      expd.at(i, j) = e;
      denom.at(s, j) += e;
    }
  }
  Tensor out({rows, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int32_t s = segment_ids[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) out.at(i, j) = expd.at(i, j) / denom.at(s, j);
  }
  return MakeOp(std::move(out), {x},
                [segment_ids = std::move(segment_ids), num_segments, cols](Node& n) {
    if (!Needs(n, 0)) return;
    const Tensor& s = n.value;
    const std::int64_t rows = s.dim(0);
    // Per (segment, column): dot = sum_e g_e * s_e; dx_e = s_e * (g_e - dot).
    Tensor dots({num_segments, cols});
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int32_t seg = segment_ids[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < cols; ++j) dots.at(seg, j) += n.grad.at(i, j) * s.at(i, j);
    }
    Tensor dx({rows, cols});
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::int32_t seg = segment_ids[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < cols; ++j) {
        dx.at(i, j) = s.at(i, j) * (n.grad.at(i, j) - dots.at(seg, j));
      }
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Variable GlobalAddPool(const Variable& x) {
  const Tensor& xv = x.value();
  if (xv.rank() != 2) throw std::invalid_argument("GlobalAddPool: x must be 2-D");
  const std::int64_t rows = xv.dim(0), cols = xv.dim(1);
  Tensor out({1, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) out.at(0, j) += xv.at(i, j);
  }
  return MakeOp(std::move(out), {x}, [rows, cols](Node& n) {
    if (!Needs(n, 0)) return;
    Tensor dx({rows, cols});
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < cols; ++j) dx.at(i, j) = n.grad.at(0, j);
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

namespace {

Variable ScalarError(const Variable& pred, float target, bool absolute) {
  const Tensor& pv = pred.value();
  if (pv.numel() != 1) throw std::invalid_argument("loss: prediction must be scalar (1 element)");
  const float diff = pv.data()[0] - target;
  Tensor out({1, 1});
  out[0] = absolute ? std::fabs(diff) : diff * diff;
  return MakeOp(std::move(out), {pred}, [diff, absolute](Node& n) {
    if (!Needs(n, 0)) return;
    Tensor dp(n.parents[0]->value.shape());
    const float d = absolute ? (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f)) : 2.0f * diff;
    dp.data()[0] = d * n.grad.data()[0];
    n.parents[0]->AccumulateGrad(dp);
  });
}

}  // namespace

Variable AbsError(const Variable& pred, float target) { return ScalarError(pred, target, true); }

Variable SquaredError(const Variable& pred, float target) {
  return ScalarError(pred, target, false);
}

}  // namespace predtop::autograd
