#include "tensor/sparse.h"

#include <stdexcept>

namespace predtop::tensor {

Csr Csr::FromCoo(std::int64_t rows, std::int64_t cols,
                 const std::vector<std::int32_t>& r,
                 const std::vector<std::int32_t>& c,
                 const std::vector<float>& v) {
  if (r.size() != c.size() || r.size() != v.size()) {
    throw std::invalid_argument("Csr::FromCoo: triplet arrays must match in length");
  }
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r[i] < 0 || r[i] >= rows || c[i] < 0 || c[i] >= cols) {
      throw std::out_of_range("Csr::FromCoo: index out of range");
    }
  }
  // Stable counting sort of the triplet indices by column, then by row: the
  // result is ordered by (row, col), with duplicates kept in input order.
  const auto counting_sort = [](const std::vector<std::int32_t>& keys, std::int64_t num_keys,
                                const std::vector<std::size_t>& in) {
    std::vector<std::size_t> start(static_cast<std::size_t>(num_keys) + 1, 0);
    for (const std::size_t i : in) ++start[static_cast<std::size_t>(keys[i]) + 1];
    for (std::size_t k = 0; k < static_cast<std::size_t>(num_keys); ++k) start[k + 1] += start[k];
    std::vector<std::size_t> out(in.size());
    for (const std::size_t i : in) out[start[static_cast<std::size_t>(keys[i])]++] = i;
    return out;
  };
  std::vector<std::size_t> order(r.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  order = counting_sort(r, rows, counting_sort(c, cols, order));

  Csr out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  out.col_idx.reserve(order.size());
  out.values.reserve(order.size());
  for (std::size_t k = 0; k < order.size();) {
    const std::int32_t row = r[order[k]];
    const std::int32_t col = c[order[k]];
    // Sum a run of duplicates in input order, starting from 0 like a
    // value-initialized accumulator.
    float sum = 0.0f;
    for (; k < order.size() && r[order[k]] == row && c[order[k]] == col; ++k) sum += v[order[k]];
    ++out.row_ptr[static_cast<std::size_t>(row) + 1];
    out.col_idx.push_back(col);
    out.values.push_back(sum);
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    out.row_ptr[static_cast<std::size_t>(i) + 1] += out.row_ptr[static_cast<std::size_t>(i)];
  }
  return out;
}

Csr Csr::Transposed() const {
  std::vector<std::int32_t> r, c;
  r.reserve(Nnz());
  c.reserve(Nnz());
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t p = row_ptr[static_cast<std::size_t>(i)];
         p < row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      r.push_back(col_idx[static_cast<std::size_t>(p)]);
      c.push_back(static_cast<std::int32_t>(i));
    }
  }
  return FromCoo(cols, rows, r, c, values);
}

Tensor SpMM(const Csr& a, const Tensor& x) {
  if (x.rank() != 2 || x.dim(0) != a.cols) {
    throw std::invalid_argument("SpMM: dense operand shape mismatch");
  }
  const std::int64_t n = x.dim(1);
  Tensor y({a.rows, n});
  const float* px = x.data().data();
  float* py = y.data().data();
  for (std::int64_t i = 0; i < a.rows; ++i) {
    float* yrow = py + i * n;
    for (std::int64_t p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const float av = a.values[static_cast<std::size_t>(p)];
      const float* xrow = px + static_cast<std::int64_t>(a.col_idx[static_cast<std::size_t>(p)]) * n;
      for (std::int64_t j = 0; j < n; ++j) yrow[j] += av * xrow[j];
    }
  }
  return y;
}

}  // namespace predtop::tensor
