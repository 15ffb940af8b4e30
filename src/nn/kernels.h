// Dense GEMM kernel layer beneath the tensor API (the torch-style
// split: tensor.cc owns autograd bookkeeping, kernels.cc owns the
// floating-point loops), and the lane-wise tanh, exp, sigmoid and
// softplus the gates and the decision node run. All three transpose
// variants used by MatMul and its backward pass are explicit, so
// callers never re-derive transposed access patterns inline:
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
// A product a·b may be computed exactly in double and rounded once to
// float, float(double(a)·double(b)), which gives the float product's
// bits: its at most 48 significant bits and its exponent fit double's
// normal range. The kernels do so when B holds a subnormal (below).
//
// How the kernels tile rows and columns, and the SIMD width they run
// at, never changes a bit: tests/kernels_test.cc checks the kernels, at
// every lane width, against a scalar statement of this contract with
// bitwise equality.
//
// Lane widths. The tiles are one source templated on W float lanes per
// register: W = 4 (SSE2 on x86-64, scalar code elsewhere) and, on
// x86-64 only, W = 8 in functions built for AVX2. NN and TN hold 4 rows
// × 2 vectors of C across each 64-step k block (4×8 or 4×16) and 1 × 4
// vectors for the last m mod 4 rows; each lane is one output's chain,
// so the width cannot reorder it. NT keeps four lanes per output: at
// W = 8 one register holds two adjacent outputs' lanes (s0…s3 of column
// j, then of column j+1), A's four values are broadcast into both
// halves, and the combine regroups the lanes of four outputs before
// running the contract's sum four outputs at a time. An NT product with
// k < 4 fills no lane: each output is c + (+0 + tail), one column loop
// per row that the compiler vectorizes.
//
// Dispatch. One process-wide choice, made on the first kernel call: 8
// lanes when the CPU reports AVX2, 4 otherwise, for every kernel alike,
// and the form of glibc's expf that libm resolved in this process
// (ExpFma()) for Exp, Sigmoid and Softplus. It takes no option and shows
// in the `poisonrec_gemm_lanes` and `poisonrec_expf_fma` gauges.
//
// Subnormal operands. A float multiply whose input or result is
// subnormal takes a microcode assist on x86-64 (about 30 ns), about a
// thousand times the 8-lane tiles' cost per product. An NN or TN GEMM with
// at least kSubnormalScanMinRows rows, and an NT one with k < 4, scans B
// once on the calling thread and, if B holds a subnormal, runs the same
// tiles with every product in the exact form above (the
// `poisonrec_gemm_subnormal_calls_total` counter counts these calls).
// Its bits are the float rows' bits, so the choice only decides how fast
// the rows run. On a clean B the exact form costs about 5 times the float
// rows, so it never runs there; NT's tiles with k ≥ 4 keep the float
// form, which costs less in the products that reach them
// (docs/performance.md).
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

/// Below this many multiply-accumulates (m·k·n) a GEMM runs on the
/// calling thread: the smallest rung of bench_kernels' size ladder at
/// which both 2 and 4 threads beat one thread (median time below the
/// one-thread time in every variant) at the 8 lanes an AVX2 CPU
/// dispatches to (results/kernel_ladder_runs.csv, docs/performance.md).
/// Below it the pool handoff costs about as much as the split saves.
inline constexpr std::size_t kParallelMinWork = std::size_t{1} << 21;

/// From this many rows of C on, a GEMM scans B for a subnormal and runs
/// its exact-product rows if it finds one. B's k·n floats are each
/// multiplied m times, so the scan's share of a clean product falls as
/// 1/m: bench_kernels' `scan_*` rows put it at 0.71–0.92 of the product
/// at 1 row, 0.38 at 4 rows and 0.21–0.23 at 8 (pinned medians at the 8
/// lanes an AVX2 CPU dispatches to). Below 4 rows run GRU4Rec's cell and
/// logit products, about 4.8M per gru4rec-par run, which never hold a
/// subnormal; a 4-row product with one subnormal in B already pays 4
/// assists, more than its whole clean time (docs/performance.md).
inline constexpr std::size_t kSubnormalScanMinRows = 4;

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

/// The lane width every kernel dispatched to in this process: 8 or 4.
std::size_t GemmLanes();

/// Whether Exp, Sigmoid and Softplus run the operations of glibc's
/// __expf_fma (true) or of __expf_sse2. glibc picks one of the two when
/// it loads libm, and they round differently; the kernels follow the
/// pick, found once by calling expf on an input where the two differ.
bool ExpFma();

/// The lane-wise libm routines below run at the dispatched width, each
/// lane with the scalar routine's operations in their order, and return
/// its bits for every float, NaNs included (kernels.cc lists the
/// branches). y may equal x; otherwise the two must not overlap.
///
/// y[i] = tanhf(x[i]), from glibc 2.36's tanhf and the expm1f it calls.
void Tanh(const float* x, float* y, std::size_t n);

/// y[i] = expf(x[i]), from glibc 2.36's expf in the form ExpFma() names.
void Exp(const float* x, float* y, std::size_t n);

/// The logistic: with e = expf(x ≥ 0 ? −x : x), y = (x ≥ 0 ? 1 : e) /
/// (1 + e), which is 1/(1 + e^−x) without overflow.
void Sigmoid(const float* x, float* y, std::size_t n);

/// log(1 + e^x): with l = log1pf(expf(x > 0 ? −x : x)), y = x > 0 ?
/// x + l : l; log1pf is glibc 2.36's (fdlibm's).
void Softplus(const float* x, float* y, std::size_t n);

/// dx[i] += x[i] > 0 ? g[i] : g[i]·slope: the backward of ReLU (slope 0)
/// and of LeakyRelu, with the bits of dx += g·(x > 0 ? 1 : slope), since
/// g·1 is g. It selects without a branch per element, and multiplies only
/// a dead lane's g, so a subnormal g in a live lane takes no multiply
/// assist. dx must not overlap x or g.
void ReluBackward(const float* x, const float* g, float slope, float* dx,
                  std::size_t n);

/// Below this much work a ParallelRows call runs on the calling thread:
/// the smallest rung of bench_kernels' second ladder at which both 2
/// and 4 threads beat one thread (median time below the one-thread
/// time) for the LSTM gates' forward, their backward and SparseMatMul,
/// in each of two rounds of pinned runs
/// (results/parallel_rows_ladder_runs.csv, docs/performance.md). The
/// forward alone wins from 2^12; the backward, which makes no libm
/// call, decides.
inline constexpr std::size_t kParallelRowsMinWork = std::size_t{1} << 17;

/// Row-partitions [0, m) across the kernel thread budget and invokes
/// `rows(i0, i1)` for each block — the same partitioner the dense GEMMs
/// use, exported so fused elementwise ops and sparse kernels share the
/// row-ownership determinism contract: every row is owned by exactly
/// one thread, so any per-row computation that never reduces across
/// rows is bit-identical at every thread count. `work` is the total
/// element (or multiply-accumulate) count; below `min_work` the call
/// runs inline as rows(0, m). Only tests and bench_kernels pass a
/// `min_work` of their own (its ladder passes 0 to split at every size).
void ParallelRows(std::size_t m, std::size_t work,
                  const std::function<void(std::size_t, std::size_t)>& rows,
                  std::size_t min_work = kParallelRowsMinWork);

namespace internal {

/// Which products a Gemm*At call's rows compute: the form the public
/// GEMMs choose (exact when they scan B and find a subnormal, which the
/// subnormal counter counts), or one form whatever the operands,
/// uncounted.
enum class Products { kChosen, kFloat, kExact };

/// Tests and bench_kernels only: the GEMMs at a chosen lane width
/// instead of the dispatched one, so both widths' rows run on a CPU that
/// dispatches to one. Counted like the public calls, and threaded like
/// them from `min_work` multiply-accumulates on; bench_kernels' size
/// ladder passes 0 to time the row split at every size, below the
/// threshold too. CanRunLanes(lanes) must hold: 4 always, 8 on an
/// x86-64 CPU with AVX2. With `fma`, it also asks for the FMA form of
/// expf, which an x86-64 CPU runs when it has AVX2 and FMA.
bool CanRunLanes(std::size_t lanes, bool fma = false);
void GemmNNAt(std::size_t lanes, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c,
              std::size_t min_work = kParallelMinWork,
              Products products = Products::kChosen);
void GemmTNAt(std::size_t lanes, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c,
              std::size_t min_work = kParallelMinWork,
              Products products = Products::kChosen);
void GemmNTAt(std::size_t lanes, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c,
              std::size_t min_work = kParallelMinWork,
              Products products = Products::kChosen);

/// Tests and bench_kernels only: the scan that routes a GEMM's B, at a
/// chosen lane width: whether any of x's n floats is subnormal.
bool HasSubnormalAt(std::size_t lanes, const float* x, std::size_t n);

/// Tests and bench_kernels only: the libm kernels at a chosen lane
/// width, those that call expf also in a chosen form (by default the
/// one ExpFma() names, which libm's own results follow), and log1pf on
/// its own. CanRunLanes(lanes, fma) must hold.
void TanhAt(std::size_t lanes, const float* x, float* y, std::size_t n);
void Log1pAt(std::size_t lanes, const float* x, float* y, std::size_t n);
void ExpAt(std::size_t lanes, const float* x, float* y, std::size_t n,
           bool fma = ExpFma());
void SigmoidAt(std::size_t lanes, const float* x, float* y, std::size_t n,
               bool fma = ExpFma());
void SoftplusAt(std::size_t lanes, const float* x, float* y, std::size_t n,
                bool fma = ExpFma());

}  // namespace internal

}  // namespace kernels

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_KERNELS_H_
