// Dense GEMM kernel layer beneath the tensor API (the torch-style
// split: tensor.cc owns autograd bookkeeping, kernels.cc owns the
// floating-point loops). All three transpose variants used by MatMul
// and its backward pass are explicit, so callers never re-derive
// transposed access patterns inline:
//
//   forward   C  = A · B      -> GemmNN
//   backward  dA = dC · Bᵀ    -> GemmNT
//   backward  dB = Aᵀ · dC    -> GemmTN
//
// All kernels ACCUMULATE into C (C += ...), matching what the backward
// pass needs; zero-fill C first for a plain product.
//
// Order contract. Every operation is a float operation rounded to
// float (the build forbids FMA contraction, -ffp-contract=off), and each
// output element's sequence of operations depends only on (m, k, n) and
// the element's indices:
//
//   NN, TN  c = c + a·b for kk = 0, 1, …, k−1, where a·b is
//           A(i,kk)·B(kk,j).
//   NT      with k4 = k − k mod 4, lane l ∈ {0,1,2,3} starts at +0 and
//           sums s_l = s_l + A[i][kk]·B[j][kk] over kk < k4, kk ≡ l
//           (mod 4), in ascending kk; a tail starts at +0 and sums the
//           same products over kk ≥ k4 in ascending kk; then
//           c = c + (((s0 + s1) + (s2 + s3)) + tail).
//
// How the kernels tile rows and columns, and the SIMD width they run
// at, never changes a bit: tests/kernels_test.cc checks the kernels
// against a scalar statement of this contract with bitwise equality.
//
// Determinism contract: kernels are row-partitioned across the
// persistent pool in util/parallel. Each output row is owned by exactly
// one thread, and by the order contract its values do not depend on the
// partitioning, so results are bit-identical for every thread count.
#ifndef POISONREC_NN_KERNELS_H_
#define POISONREC_NN_KERNELS_H_

#include <cstddef>
#include <functional>

namespace poisonrec::nn {

/// Process-wide kernel thread budget (mirrors torch::set_num_threads).
/// 0 (the default) resolves to std::thread::hardware_concurrency().
/// Thread-safe; takes effect on the next kernel call.
void SetNumThreads(std::size_t num_threads);

/// Resolved thread budget (never 0).
std::size_t GetNumThreads();

namespace kernels {

/// C(m×n) += A(m×k) · B(k×n). All matrices row-major and dense.
void GemmNN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c);

/// C(m×n) += Aᵀ · B with A stored (k×m), B stored (k×n). This is the
/// dB = Aᵀ·dC accumulation of the MatMul backward pass.
void GemmTN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c);

/// C(m×n) += A · Bᵀ with A stored (m×k), B stored (n×k). This is the
/// dA = dC·Bᵀ accumulation of the MatMul backward pass.
void GemmNT(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c);

/// Row-partitions [0, m) across the kernel thread budget and invokes
/// `rows(i0, i1)` for each block — the same partitioner the dense GEMMs
/// use, exported so fused elementwise ops and sparse kernels share the
/// row-ownership determinism contract: every row is owned by exactly
/// one thread, so any per-row computation that never reduces across
/// rows is bit-identical at every thread count. `work` is the total
/// multiply-accumulate (or equivalent) count; below the same threshold
/// the GEMMs use, the call runs inline as rows(0, m).
void ParallelRows(std::size_t m, std::size_t work,
                  const std::function<void(std::size_t, std::size_t)>& rows);

}  // namespace kernels

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_KERNELS_H_
