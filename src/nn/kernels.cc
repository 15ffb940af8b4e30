#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace poisonrec::nn {

namespace {

// 0 = resolve to hardware concurrency at call time.
std::atomic<std::size_t> g_num_threads{0};

// Shared-dimension block: a kBlockK×n panel of B (256 floats wide at
// n=64) stays resident in L1/L2 while every row tile of the current
// range streams through it. C is stored between blocks, which rounds
// nothing: each element's chain simply resumes in the next block.
constexpr std::size_t kBlockK = 64;

// Below this many multiply-accumulates a GEMM runs single-threaded; the
// pool handoff costs more than it saves on the tiny per-step matmuls
// (e.g. the 1×d policy step).
constexpr std::size_t kParallelMinWork = std::size_t{1} << 15;

// Four floats in one register: GCC's vector extension, which lowers to
// SSE2 on x86-64 and to scalar code where the target has no 4-float
// vectors. Every operation below is lane-wise (a scalar operand is
// broadcast), so each lane computes exactly the scalar expression it
// stands for and the kernels' results do not depend on the vector width.
using F4 = float __attribute__((vector_size(16)));

inline F4 Load(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

// The tiles below hold their accumulators in arrays indexed by constant
// loops. `#pragma GCC unroll` fully unrolls those loops so the arrays
// live in registers; GCC 12 at -O2 leaves them rolled otherwise, with
// the accumulators on the stack.

// ---- NN and TN: C[i][j] = C[i][j] + A(i,kk)·B[kk][j], kk ascending ----

// A(i, kk): row-major m×k for NN; for TN, A is stored k×m and read
// transposed.
template <bool kTransA>
inline float AAt(const float* a, std::size_t m, std::size_t k, std::size_t i,
                 std::size_t kk) {
  return kTransA ? a[kk * m + i] : a[i * k + kk];
}

// Rows [i, i+R) × columns [j, j+4V) over steps [k0, k1): R·V vector
// accumulators, each lane one output's chain.
template <bool kTransA, int R, int V>
inline void TileNN(std::size_t i, std::size_t j, std::size_t k0,
                   std::size_t k1, std::size_t m, std::size_t k,
                   std::size_t n, const float* a, const float* b, float* c) {
  F4 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = Load(c + (i + r) * n + j + 4 * v);
  }
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const float* brow = b + kk * n + j;
    F4 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) bv[v] = Load(brow + 4 * v);
    // TN's R values of A are contiguous: one load, then per-lane reads.
    F4 at = {};
    if constexpr (kTransA && R == 4) at = Load(a + kk * m + i);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av =
          kTransA && R == 4 ? at[r] : AAt<kTransA>(a, m, k, i + r, kk);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) acc[r][v] = acc[r][v] + av * bv[v];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) Store(c + (i + r) * n + j + 4 * v, acc[r][v]);
  }
}

// One column j of rows [i, i+R): R scalar chains.
template <bool kTransA, int R>
inline void ColumnNN(std::size_t i, std::size_t j, std::size_t k0,
                     std::size_t k1, std::size_t m, std::size_t k,
                     std::size_t n, const float* a, const float* b, float* c) {
  float acc[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) acc[r] = c[(i + r) * n + j];
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const float bv = b[kk * n + j];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r] = acc[r] + AAt<kTransA>(a, m, k, i + r, kk) * bv;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) c[(i + r) * n + j] = acc[r];
}

// Columns [j, n) of rows [i, i+R): tiles of V vectors, then one of each
// narrower width, then single columns.
template <bool kTransA, int R, int V>
inline void ColumnTilesNN(std::size_t i, std::size_t j, std::size_t k0,
                          std::size_t k1, std::size_t m, std::size_t k,
                          std::size_t n, const float* a, const float* b,
                          float* c) {
  for (; j + 4 * V <= n; j += 4 * V) {
    TileNN<kTransA, R, V>(i, j, k0, k1, m, k, n, a, b, c);
  }
  if constexpr (V > 1) {
    ColumnTilesNN<kTransA, R, V / 2>(i, j, k0, k1, m, k, n, a, b, c);
  } else {
    for (; j < n; ++j) ColumnNN<kTransA, R>(i, j, k0, k1, m, k, n, a, b, c);
  }
}

// Rows [i0, i1) of C: 4×8 tiles, and 1×16 tiles for the last m mod 4
// rows (a single row needs the wider tile for enough independent
// chains).
template <bool kTransA>
void GemmRows(std::size_t i0, std::size_t i1, std::size_t m, std::size_t k,
              std::size_t n, const float* a, const float* b, float* c) {
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = std::min(k, k0 + kBlockK);
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      ColumnTilesNN<kTransA, 4, 2>(i, 0, k0, k1, m, k, n, a, b, c);
    }
    for (; i < i1; ++i) {
      ColumnTilesNN<kTransA, 1, 4>(i, 0, k0, k1, m, k, n, a, b, c);
    }
  }
}

// ---- NT: C[i][j] += dot(A row i, B row j) in four lanes plus a tail ----

// The order contract for one output in scalar form, for the columns no
// tile covers: lane l sums kk ≡ l (mod 4) below k4, the tail sums
// kk ≥ k4, each from +0.
inline void DotNT(const float* arow, const float* brow, std::size_t k,
                  std::size_t k4, float* cij) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (std::size_t kk = 0; kk < k4; kk += 4) {
    s0 = s0 + arow[kk] * brow[kk];
    s1 = s1 + arow[kk + 1] * brow[kk + 1];
    s2 = s2 + arow[kk + 2] * brow[kk + 2];
    s3 = s3 + arow[kk + 3] * brow[kk + 3];
  }
  float tail = 0.0f;
  for (std::size_t kk = k4; kk < k; ++kk) tail = tail + arow[kk] * brow[kk];
  *cij = *cij + (((s0 + s1) + (s2 + s3)) + tail);
}

// Rows [i, i+R) × columns [j, j+Q), Q a multiple of 4: one vector
// accumulator per output, lane l holding that output's s_l. A 4×4
// transpose per four columns turns lanes into outputs, and the combine
// runs four outputs per vector op.
template <int R, int Q>
inline void TileNT(std::size_t i, std::size_t j, std::size_t k,
                   std::size_t k4, std::size_t n, const float* a,
                   const float* b, float* c) {
  F4 acc[R][Q] = {};  // +0 in every lane
  for (std::size_t kk = 0; kk < k4; kk += 4) {
    F4 av[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) av[r] = Load(a + (i + r) * k + kk);
#pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
      const F4 bv = Load(b + (j + q) * k + kk);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) acc[r][q] = acc[r][q] + av[r] * bv;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    const float* arow = a + (i + r) * k;
#pragma GCC unroll 2
    for (int g = 0; g < Q; g += 4) {
      const F4* x = acc[r] + g;
      const F4 s0 = {x[0][0], x[1][0], x[2][0], x[3][0]};
      const F4 s1 = {x[0][1], x[1][1], x[2][1], x[3][1]};
      const F4 s2 = {x[0][2], x[1][2], x[2][2], x[3][2]};
      const F4 s3 = {x[0][3], x[1][3], x[2][3], x[3][3]};
      F4 tail = {};
      for (std::size_t kk = k4; kk < k; ++kk) {
        const float* bk = b + (j + g) * k + kk;
        const F4 bv = {bk[0], bk[k], bk[2 * k], bk[3 * k]};
        tail = tail + arow[kk] * bv;
      }
      float* cij = c + (i + r) * n + j + g;
      Store(cij, Load(cij) + (((s0 + s1) + (s2 + s3)) + tail));
    }
  }
}

// Columns [j, n) of rows [i, i+R): tiles of Q columns, one of 4 if Q is
// wider, then the scalar dot per remaining output.
template <int R, int Q>
inline void ColumnTilesNT(std::size_t i, std::size_t k, std::size_t k4,
                          std::size_t n, const float* a, const float* b,
                          float* c) {
  std::size_t j = 0;
  for (; j + Q <= n; j += Q) TileNT<R, Q>(i, j, k, k4, n, a, b, c);
  if constexpr (Q > 4) {
    if (j + 4 <= n) {
      TileNT<R, 4>(i, j, k, k4, n, a, b, c);
      j += 4;
    }
  }
  for (; j < n; ++j) {
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      DotNT(a + (i + r) * k, b + j * k, k, k4, c + (i + r) * n + j);
    }
  }
}

// Rows [i0, i1) of C: 2×4 tiles (8 independent chains), and 1×8 tiles
// for an odd last row.
void GemmNTRows(std::size_t i0, std::size_t i1, std::size_t k, std::size_t n,
                const float* a, const float* b, float* c) {
  const std::size_t k4 = k - k % 4;
  std::size_t i = i0;
  for (; i + 2 <= i1; i += 2) ColumnTilesNT<2, 4>(i, k, k4, n, a, b, c);
  if (i < i1) ColumnTilesNT<1, 8>(i, k, k4, n, a, b, c);
}

// Row-partitions [0, m) across the kernel thread budget and runs
// `rows(i0, i1)` for each block. Rows are handed out in blocks of
// roughly m / (threads * 4) so the atomic index counter stays cold
// while load still balances when rows have uneven cost.
template <typename RowsFn>
void ForEachRowBlock(std::size_t m, std::size_t work, const RowsFn& rows) {
  if (work < kParallelMinWork) {  // skip even the thread-budget lookup
    rows(0, m);
    return;
  }
  const std::size_t threads = std::min(GetNumThreads(), m);
  if (threads <= 1) {
    rows(0, m);
    return;
  }
  const std::size_t block =
      std::max<std::size_t>(1, m / (threads * 4));
  const std::size_t num_blocks = (m + block - 1) / block;
  // Span only around the threaded branch: these are the regions the
  // perf backlog (ROADMAP.md) needs to see, and the tiny single-threaded
  // matmuls are far too frequent to trace individually.
  POISONREC_TRACE_SPAN("gemm/threaded");
  ParallelFor(num_blocks, threads, [&](std::size_t bi) {
    const std::size_t i0 = bi * block;
    rows(i0, std::min(m, i0 + block));
  });
}

// Call/flop accounting shared by the three variants. The counters are
// sharded (obs::Counter), so the two relaxed adds here stay off any
// contended cache line even when every pool worker issues GEMMs.
inline void CountGemm(obs::Counter* calls, std::size_t m, std::size_t k,
                      std::size_t n) {
  static obs::Counter* const flops =
      obs::MetricsRegistry::Global().GetCounter("poisonrec_gemm_flops_total");
  calls->Increment();
  flops->Increment(static_cast<std::uint64_t>(2) * m * k * n);
}

}  // namespace

void SetNumThreads(std::size_t num_threads) {
  g_num_threads.store(num_threads, std::memory_order_relaxed);
}

std::size_t GetNumThreads() {
  const std::size_t n = g_num_threads.load(std::memory_order_relaxed);
  if (n != 0) return n;
  static const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return hardware;
}

namespace kernels {

void GemmNN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  static obs::Counter* const calls =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_nn_calls_total");
  CountGemm(calls, m, k, n);
  ForEachRowBlock(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    GemmRows<false>(i0, i1, m, k, n, a, b, c);
  });
}

void GemmTN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  static obs::Counter* const calls =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_tn_calls_total");
  CountGemm(calls, m, k, n);
  ForEachRowBlock(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    GemmRows<true>(i0, i1, m, k, n, a, b, c);
  });
}

void GemmNT(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  static obs::Counter* const calls =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_nt_calls_total");
  CountGemm(calls, m, k, n);
  ForEachRowBlock(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    GemmNTRows(i0, i1, k, n, a, b, c);
  });
}

void ParallelRows(std::size_t m, std::size_t work,
                  const std::function<void(std::size_t, std::size_t)>& rows) {
  ForEachRowBlock(m, work, rows);
}

}  // namespace kernels

}  // namespace poisonrec::nn
