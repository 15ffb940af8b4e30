#include "nn/sparse.h"

#include <map>

#include "nn/kernels.h"

namespace poisonrec::nn {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  // Coalesce duplicates, then sort by (row, col).
  std::map<std::pair<std::size_t, std::size_t>, float> coalesced;
  for (const Triplet& t : triplets) {
    POISONREC_CHECK_LT(t.row, rows);
    POISONREC_CHECK_LT(t.col, cols);
    coalesced[{t.row, t.col}] += t.value;
  }
  row_offsets_.assign(rows + 1, 0);
  col_indices_.reserve(coalesced.size());
  values_.reserve(coalesced.size());
  for (const auto& [rc, v] : coalesced) {
    ++row_offsets_[rc.first + 1];
    col_indices_.push_back(rc.second);
    values_.push_back(v);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    row_offsets_[r + 1] += row_offsets_[r];
  }

  // Transpose by counting sort. Walking the forward CSR in storage
  // order and appending to each column's bucket keeps every column's
  // entries in ascending original-row order (see t_row_offsets() docs).
  t_row_offsets_.assign(cols + 1, 0);
  for (std::size_t c : col_indices_) ++t_row_offsets_[c + 1];
  for (std::size_t c = 0; c < cols; ++c) {
    t_row_offsets_[c + 1] += t_row_offsets_[c];
  }
  t_col_indices_.resize(values_.size());
  t_values_.resize(values_.size());
  std::vector<std::size_t> cursor(t_row_offsets_.begin(),
                                  t_row_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      const std::size_t dst = cursor[col_indices_[p]]++;
      t_col_indices_[dst] = r;
      t_values_[dst] = values_[p];
    }
  }
}

Tensor SparseMatMul(const CsrMatrix& a, const Tensor& x) {
  return internal::SparseMatMulAt(a, x, kernels::kParallelRowsMinWork);
}

Tensor internal::SparseMatMulAt(const CsrMatrix& a, const Tensor& x,
                                std::size_t min_work) {
  POISONREC_CHECK_EQ(a.cols(), x.rows());
  const std::size_t n = x.cols();
  Tensor out = Tensor::Zeros(a.rows(), n);
  // Forward rows are partitioned like the dense kernels: each output row
  // is owned by one thread and its entry order (p ascending) never
  // depends on the partition, so results are bit-identical at any thread
  // count.
  float* od = out.mutable_data().data();
  const float* xd = x.data().data();
  kernels::ParallelRows(
      a.rows(), a.nnz() * n,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          float* orow = od + r * n;
          for (std::size_t p = a.row_offsets()[r]; p < a.row_offsets()[r + 1];
               ++p) {
            const float v = a.values()[p];
            const float* xrow = xd + a.col_indices()[p] * n;
            for (std::size_t c = 0; c < n; ++c) orow[c] += v * xrow[c];
          }
        }
      },
      min_work);
  if (internal::TrackGrad({&x})) {
    internal::TensorImpl* xi = x.impl().get();
    internal::TensorImpl* oraw = out.impl().get();
    const CsrMatrix* am = &a;  // caller must keep the matrix alive
    // Attach marks x read densely: dx spans every row (see tensor.h).
    internal::Attach(out.impl(), {&x}, [am, xi, oraw, n, min_work]() {
      // dx = Aᵀ · dout over the transposed CSR: dx row c accumulates
      // its column's entries in ascending original-row order — the
      // exact order the old serial (r, p) scatter used — and each dx
      // row is owned by one thread.
      kernels::ParallelRows(
          am->cols(), am->nnz() * n,
          [&](std::size_t c0, std::size_t c1) {
            for (std::size_t c = c0; c < c1; ++c) {
              float* xgrow = xi->grad.data() + c * n;
              for (std::size_t p = am->t_row_offsets()[c];
                   p < am->t_row_offsets()[c + 1]; ++p) {
                const float v = am->t_values()[p];
                const float* grow =
                    oraw->grad.data() + am->t_col_indices()[p] * n;
                for (std::size_t j = 0; j < n; ++j) xgrow[j] += v * grow[j];
              }
            }
          },
          min_work);
    });
  }
  return out;
}

}  // namespace poisonrec::nn
