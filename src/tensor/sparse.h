#pragma once
// Compressed-sparse-row matrix for graph adjacency operators (GCN's
// symmetrically normalized adjacency). Values are stored explicitly so the
// same structure serves normalized and unnormalized forms.

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace predtop::tensor {

struct Csr {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int64_t> row_ptr;  // size rows + 1
  std::vector<std::int32_t> col_idx;  // size nnz
  std::vector<float> values;          // size nnz

  [[nodiscard]] std::size_t Nnz() const noexcept { return col_idx.size(); }

  /// Build from COO triplets: entries ordered by row, then column, with
  /// duplicates summed in input order (a stable counting sort, O(nnz + rows
  /// + cols)).
  [[nodiscard]] static Csr FromCoo(std::int64_t rows, std::int64_t cols,
                                   const std::vector<std::int32_t>& r,
                                   const std::vector<std::int32_t>& c,
                                   const std::vector<float>& v);

  [[nodiscard]] Csr Transposed() const;
};

/// Y = A * X for sparse A (rows,cols) and dense X (cols,n).
[[nodiscard]] Tensor SpMM(const Csr& a, const Tensor& x);

}  // namespace predtop::tensor
