// CSR sparse matrix + sparse-dense product with autograd. Used by NGCF to
// propagate embeddings over the normalized user-item adjacency.
#ifndef POISONREC_NN_SPARSE_H_
#define POISONREC_NN_SPARSE_H_

#include <cstddef>
#include <vector>

#include "nn/tensor.h"

namespace poisonrec::nn {

/// Immutable CSR matrix built from COO triplets. Duplicate entries are
/// summed.
class CsrMatrix {
 public:
  struct Triplet {
    std::size_t row;
    std::size_t col;
    float value;
  };

  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// y = A * x for a dense vector-like accessor; used internally.
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<float>& values() const { return values_; }

  /// Transposed view (Aᵀ in CSR over the original columns), built at
  /// construction for the backward pass: entries of column c appear in
  /// ascending original-row order — exactly the order the serial
  /// scatter dx += Aᵀ·dout accumulates them — so the backward can
  /// partition by column with the kernels' row-ownership contract and
  /// stay bit-identical at any thread count.
  const std::vector<std::size_t>& t_row_offsets() const {
    return t_row_offsets_;
  }
  const std::vector<std::size_t>& t_col_indices() const {
    return t_col_indices_;
  }
  const std::vector<float>& t_values() const { return t_values_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<float> values_;
  std::vector<std::size_t> t_row_offsets_;  // size cols_+1
  std::vector<std::size_t> t_col_indices_;  // original row per entry
  std::vector<float> t_values_;
};

/// Dense product A (sparse, m x k) * x (dense, k x n) -> (m x n).
/// Backward: dx += A^T * dout. A itself is constant (no gradient).
/// This is the only place the library exploits sparsity: the dense GEMM
/// kernels (nn/kernels.h) carry no zero-skip branches, so matrices that
/// are actually sparse must come through here as CsrMatrix.
Tensor SparseMatMul(const CsrMatrix& a, const Tensor& x);

namespace internal {

/// Tests and bench_kernels only: SparseMatMul with its row splits
/// (forward and backward) from `min_work` multiply-accumulates on
/// instead of kernels::kParallelRowsMinWork.
Tensor SparseMatMulAt(const CsrMatrix& a, const Tensor& x,
                      std::size_t min_work);

}  // namespace internal

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_SPARSE_H_
