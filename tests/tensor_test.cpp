// Unit tests for the dense tensor type, numeric kernels and sparse CSR.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>

#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace predtop::tensor {
namespace {

using util::Rng;

TEST(Tensor, ZeroInitialized) {
  const Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (const float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillAndScale) {
  Tensor t({4}, 2.0f);
  t.ScaleInPlace(2.5f);
  for (const float v : t.data()) EXPECT_FLOAT_EQ(v, 5.0f);
  t.Fill(-1.0f);
  for (const float v : t.data()) EXPECT_FLOAT_EQ(v, -1.0f);
}

TEST(Tensor, ConstructFromDataValidatesShape) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.Reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, AddInPlaceShapeMismatchThrows) {
  Tensor a({2, 2});
  const Tensor b({4});
  EXPECT_THROW(a.AddInPlace(b), std::invalid_argument);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng r1(42), r2(42);
  const Tensor a = Tensor::Randn({8}, r1);
  const Tensor b = Tensor::Randn({8}, r2);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
}

// ---- matmul ----

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(1); ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < a.dim(1); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

class MatMulShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  EXPECT_LT(MaxAbsDiff(MatMul(a, b), NaiveMatMul(a, b)), 1e-3f);
}

TEST_P(MatMulShapes, TransAMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(8);
  const Tensor at = Tensor::Randn({k, m}, rng);  // A^T stored
  const Tensor b = Tensor::Randn({k, n}, rng);
  EXPECT_LT(MaxAbsDiff(MatMulTransA(at, b), MatMul(Transpose2D(at), b)), 1e-3f);
}

TEST_P(MatMulShapes, TransBMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(9);
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor bt = Tensor::Randn({n, k}, rng);  // B^T stored
  EXPECT_LT(MaxAbsDiff(MatMulTransB(a, bt), MatMul(a, Transpose2D(bt))), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7), std::make_tuple(16, 16, 16),
                                           std::make_tuple(33, 17, 9),
                                           std::make_tuple(64, 48, 32)));

TEST(MatMul, InnerDimensionMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({4, 2});
  EXPECT_THROW(MatMul(a, b), std::invalid_argument);
}

// ---- elementwise ----

TEST(Elementwise, AddSubMul) {
  const Tensor a({2}, std::vector<float>{1, 2});
  const Tensor b({2}, std::vector<float>{3, 5});
  EXPECT_FLOAT_EQ(Add(a, b)[0], 4.0f);
  EXPECT_FLOAT_EQ(Sub(a, b)[1], -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b)[1], 10.0f);
  EXPECT_FLOAT_EQ(Scale(a, -2.0f)[0], -2.0f);
}

TEST(Elementwise, AddRowVectorBroadcasts) {
  const Tensor m({2, 3}, std::vector<float>{0, 0, 0, 1, 1, 1});
  const Tensor bias({3}, std::vector<float>{10, 20, 30});
  const Tensor out = AddRowVector(m, bias);
  EXPECT_FLOAT_EQ(out.at(0, 2), 30.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 11.0f);
}

TEST(Elementwise, Activations) {
  const Tensor x({4}, std::vector<float>{-2, -0.5f, 0, 3});
  const Tensor r = Relu(x);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[3], 3.0f);
  const Tensor l = LeakyRelu(x, 0.1f);
  EXPECT_FLOAT_EQ(l[0], -0.2f);
  const Tensor t = Tanh(x);
  EXPECT_NEAR(t[3], std::tanh(3.0f), 1e-6f);
  const Tensor g = Gelu(x);
  EXPECT_NEAR(g[2], 0.0f, 1e-6f);
  EXPECT_GT(g[3], 2.9f);  // gelu(3) ~ 2.996
}

// ---- softmax ----

TEST(RowSoftmax, RowsSumToOne) {
  Rng rng(3);
  const Tensor x = Tensor::Randn({5, 7}, rng, 3.0f);
  const Tensor s = RowSoftmax(x);
  for (std::int64_t i = 0; i < 5; ++i) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 7; ++j) {
      EXPECT_GE(s.at(i, j), 0.0f);
      sum += s.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(RowSoftmax, MaskBlocksEntries) {
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({1, 3}, std::vector<float>{1, 2, 3});
  const Tensor mask({1, 3}, std::vector<float>{0, -inf, 0});
  const Tensor s = RowSoftmax(x, &mask);
  EXPECT_FLOAT_EQ(s.at(0, 1), 0.0f);
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 2), 1.0f, 1e-6f);
}

TEST(RowSoftmax, FullyMaskedRowIsZeroNotNan) {
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({1, 2}, std::vector<float>{1, 2});
  const Tensor mask({1, 2}, std::vector<float>{-inf, -inf});
  const Tensor s = RowSoftmax(x, &mask);
  EXPECT_FLOAT_EQ(s.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(s.at(0, 1), 0.0f);
}

TEST(RowSoftmax, InvariantToConstantShift) {
  Rng rng(11);
  const Tensor x = Tensor::Randn({3, 4}, rng);
  Tensor shifted = x;
  for (float& v : shifted.data()) v += 100.0f;
  EXPECT_LT(MaxAbsDiff(RowSoftmax(x), RowSoftmax(shifted)), 1e-5f);
}

// ---- reductions / transpose ----

TEST(Reductions, SumRowsColsAll) {
  const Tensor m({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor rows = SumRows(m);
  EXPECT_FLOAT_EQ(rows[0], 5.0f);
  EXPECT_FLOAT_EQ(rows[2], 9.0f);
  const Tensor cols = SumCols(m);
  EXPECT_FLOAT_EQ(cols[0], 6.0f);
  EXPECT_FLOAT_EQ(cols[1], 15.0f);
  EXPECT_FLOAT_EQ(SumAll(m), 21.0f);
}

TEST(Transpose, RoundTrips) {
  Rng rng(5);
  const Tensor m = Tensor::Randn({3, 5}, rng);
  EXPECT_EQ(MaxAbsDiff(Transpose2D(Transpose2D(m)), m), 0.0f);
}

// ---- sparse ----

TEST(Csr, FromCooSumsDuplicates) {
  const Csr a = Csr::FromCoo(2, 2, {0, 0, 1}, {1, 1, 0}, {1.0f, 2.0f, 5.0f});
  EXPECT_EQ(a.Nnz(), 2u);
  EXPECT_FLOAT_EQ(a.values[0], 3.0f);  // (0,1) summed
  EXPECT_FLOAT_EQ(a.values[1], 5.0f);
}

TEST(Csr, OutOfRangeThrows) {
  EXPECT_THROW(Csr::FromCoo(2, 2, {2}, {0}, {1.0f}), std::out_of_range);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  Rng rng(6);
  std::vector<std::int32_t> r, c;
  std::vector<float> v;
  for (int i = 0; i < 30; ++i) {
    r.push_back(static_cast<std::int32_t>(rng.NextBelow(7)));
    c.push_back(static_cast<std::int32_t>(rng.NextBelow(9)));
    v.push_back(static_cast<float>(rng.Normal()));
  }
  const Csr a = Csr::FromCoo(7, 9, r, c, v);
  const Csr att = a.Transposed().Transposed();
  EXPECT_EQ(a.row_ptr, att.row_ptr);
  EXPECT_EQ(a.col_idx, att.col_idx);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_FLOAT_EQ(a.values[i], att.values[i]);
  }
}

/// Reference CSR build through an ordered map, summing duplicates in input
/// order from a value-initialized accumulator.
Csr ReferenceCsr(std::int64_t rows, std::int64_t cols, const std::vector<std::int32_t>& r,
                 const std::vector<std::int32_t>& c, const std::vector<float>& v) {
  std::map<std::pair<std::int32_t, std::int32_t>, float> entries;
  for (std::size_t i = 0; i < r.size(); ++i) entries[{r[i], c[i]}] += v[i];
  Csr out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (const auto& [key, value] : entries) {
    ++out.row_ptr[static_cast<std::size_t>(key.first) + 1];
    out.col_idx.push_back(key.second);
    out.values.push_back(value);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows); ++i) {
    out.row_ptr[i + 1] += out.row_ptr[i];
  }
  return out;
}

void ExpectCsrBitEqual(const Csr& got, const Csr& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.values[i]),
              std::bit_cast<std::uint32_t>(want.values[i]))
        << "value " << i;
  }
}

TEST(Csr, FromCooIsBitEqualToOrderedMapBuildOnRandomDuplicates) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const auto rows = static_cast<std::int64_t>(1 + rng.NextBelow(12));
    const auto cols = static_cast<std::int64_t>(1 + rng.NextBelow(12));
    const auto nnz = static_cast<std::size_t>(rng.NextBelow(4 * static_cast<std::uint64_t>(rows * cols)));
    std::vector<std::int32_t> r, c;
    std::vector<float> v;
    for (std::size_t i = 0; i < nnz; ++i) {
      // Small index ranges force many duplicates; mixed magnitudes and signed
      // zeros make the summation order visible in the bits.
      r.push_back(static_cast<std::int32_t>(rng.NextBelow(static_cast<std::uint64_t>(rows))));
      c.push_back(static_cast<std::int32_t>(rng.NextBelow(static_cast<std::uint64_t>(cols))));
      const std::uint64_t pick = rng.NextBelow(8);
      v.push_back(pick == 0   ? -0.0f
                  : pick == 1 ? static_cast<float>(rng.Normal()) * 1e7f
                              : static_cast<float>(rng.Normal()));
    }
    const Csr a = Csr::FromCoo(rows, cols, r, c, v);
    ExpectCsrBitEqual(a, ReferenceCsr(rows, cols, r, c, v));

    std::vector<std::int32_t> tr, tc;
    for (std::int64_t i = 0; i < a.rows; ++i) {
      for (std::int64_t p = a.row_ptr[static_cast<std::size_t>(i)];
           p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
        tr.push_back(a.col_idx[static_cast<std::size_t>(p)]);
        tc.push_back(static_cast<std::int32_t>(i));
      }
    }
    ExpectCsrBitEqual(a.Transposed(), ReferenceCsr(cols, rows, tr, tc, a.values));
  }
}

TEST(SpMM, MatchesDenseMatMul) {
  Rng rng(12);
  Tensor dense({6, 5});
  std::vector<std::int32_t> r, c;
  std::vector<float> v;
  for (int i = 0; i < 12; ++i) {
    const auto ri = static_cast<std::int32_t>(rng.NextBelow(6));
    const auto ci = static_cast<std::int32_t>(rng.NextBelow(5));
    const auto vi = static_cast<float>(rng.Normal());
    r.push_back(ri);
    c.push_back(ci);
    v.push_back(vi);
    dense.at(ri, ci) += vi;
  }
  const Csr sparse = Csr::FromCoo(6, 5, r, c, v);
  const Tensor x = Tensor::Randn({5, 4}, rng);
  EXPECT_LT(MaxAbsDiff(SpMM(sparse, x), MatMul(dense, x)), 1e-4f);
}

TEST(SpMM, ShapeMismatchThrows) {
  const Csr a = Csr::FromCoo(2, 3, {0}, {0}, {1.0f});
  const Tensor x({2, 2});
  EXPECT_THROW(SpMM(a, x), std::invalid_argument);
}

// ---- packed GEMM ----

void ExpectTensorsClose(const tensor::Tensor& a, const tensor::Tensor& b, float tol) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    ASSERT_LE(std::abs(x - y), tol * std::max(1.0f, std::abs(x))) << "element " << i;
  }
}

TEST(PackedGemm, MatchesNaiveAcrossShapes) {
  // Full panels, ragged panels, ragged row blocks, single rows.
  const struct { std::int64_t m, k, n; } shapes[] = {
      {1, 8, 16},  {6, 8, 16},   {7, 33, 16},  {13, 17, 40},
      {3, 100, 17}, {50, 20, 100}, {64, 64, 64}, {61, 47, 129},
  };
  util::Rng rng(11);
  for (const auto& s : shapes) {
    const tensor::Tensor a = tensor::Tensor::Randn({s.m, s.k}, rng);
    const tensor::Tensor b = tensor::Tensor::Randn({s.k, s.n}, rng);
    const tensor::Tensor packed = tensor::MatMulPacked(a, tensor::PackB(b));
    ExpectTensorsClose(packed, tensor::MatMulNaive(a, b), 1e-5f);
  }
}

TEST(PackedGemm, PackTransposedMatchesPackOfTranspose) {
  util::Rng rng(12);
  const tensor::Tensor bt = tensor::Tensor::Randn({40, 23}, rng);  // (n, k)
  const tensor::Tensor b = tensor::Transpose2D(bt);                // (k, n)
  tensor::PackedB from_t;
  tensor::PackBTransposedInto(bt.data().data(), b.dim(0), b.dim(1), from_t);
  const tensor::PackedB direct = tensor::PackB(b);
  ASSERT_EQ(from_t.data.size(), direct.data.size());
  for (std::size_t i = 0; i < direct.data.size(); ++i) {
    ASSERT_EQ(from_t.data[i], direct.data[i]) << "panel element " << i;
  }
}

TEST(PackedGemm, ThreadedIsBitIdenticalToSingleThread) {
  // Above the 4Mi-MAC threading threshold so the threaded
  // path actually engages (when more than one hardware thread exists).
  const std::int64_t m = 600, k = 64, n = 128;
  util::Rng rng(13);
  const tensor::Tensor a = tensor::Tensor::Randn({m, k}, rng);
  const tensor::PackedB b = tensor::PackB(tensor::Tensor::Randn({k, n}, rng));
  const tensor::Tensor single = tensor::MatMulPacked(a, b, /*allow_threads=*/false);
  const tensor::Tensor threaded = tensor::MatMulPacked(a, b, /*allow_threads=*/true);
  for (std::int64_t i = 0; i < single.numel(); ++i) {
    ASSERT_EQ(single.data()[i], threaded.data()[i]) << "element " << i;
  }
}

TEST(PackedGemm, DispatchPredicatesMatchDocumentedShapeFloor) {
  EXPECT_FALSE(tensor::UsePackedGemm(6, 8, 8));     // n below one panel
  EXPECT_FALSE(tensor::UsePackedGemm(6, 4, 64));    // k too small
  EXPECT_FALSE(tensor::UsePackedGemm(2, 64, 64));   // m below one row block
  EXPECT_FALSE(tensor::UsePackedGemm(16, 16, 16));  // under the work floor
  EXPECT_TRUE(tensor::UsePackedGemm(64, 64, 64));
}

}  // namespace
}  // namespace predtop::tensor
