#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
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

// W floats in one register: GCC's vector extension, which lowers to
// SSE2 (W = 4) or AVX (W = 8) on x86-64 and to scalar code where the
// target has no such vectors. Every operation below is lane-wise (a
// scalar operand is broadcast), so each lane computes exactly the scalar
// expression it stands for and the kernels' results do not depend on W.
// The attribute needs a dependent typedef; an alias template drops it.
// The libm routines below also run on int32 and uint32 lanes, and expf
// on W double and uint64 lanes (two or four registers' worth).
template <typename T, int W>
struct VecOf {
  typedef T type __attribute__((vector_size(sizeof(T) * W)));
};
template <int W>
using Vec = typename VecOf<float, W>::type;
template <int W>
using IVec = typename VecOf<std::int32_t, W>::type;
template <int W>
using UVec = typename VecOf<std::uint32_t, W>::type;
template <int W>
using DVec = typename VecOf<double, W>::type;
template <int W>
using U64Vec = typename VecOf<std::uint64_t, W>::type;
using F4 = Vec<4>;

// Loads go through an out-parameter and stores read a const reference:
// passing or returning a 32-byte vector by value from a function not
// built for AVX changes the ABI, and GCC warns about it (-Wpsabi).
template <int W>
inline void Load(const float* p, Vec<W>* v) {
  std::memcpy(v, p, sizeof(*v));
}

template <int W>
inline void Store(float* p, const Vec<W>& v) {
  std::memcpy(p, &v, sizeof(v));
}

// The double-precision parts run four lanes at a time: one AVX register,
// or two SSE2 ones. Eight lanes of doubles are held as two such halves:
// one 64-byte vector spills.
using D4 = DVec<4>;

// ---- Products: the float multiply, or the exact product rounded once ----
//
// A float product a·b has at most 48 significant bits and an exponent in
// [−298, 256], both inside double's normal range, so double(a)·double(b)
// is exact, and its conversion to float rounds it once, under the same
// MXCSR rounding mode as the float multiply: the same bits for every a
// and b, signed zeros, subnormal results, underflow to zero, overflow to
// inf and NaNs included. The float multiply takes a microcode assist
// (about 31 ns on a Xeon) whenever an input or its result is subnormal;
// the widening, the double multiply and the narrowing take none
// (docs/performance.md). The row templates take one of two tags, and
// Gemm runs the ExactProducts rows when B holds a subnormal.
//
// GCC rewrites a scalar float(double(a)·double(b)) as a float multiply
// (legal, since double has more than 2·24 + 2 bits, and exactly what the
// exact form must avoid); it keeps vector conversions, so every exact
// product below is one. tools/ci_check.sh fails if an ExactProducts
// function holds a float multiply.
struct FloatProducts {};
struct ExactProducts {};

template <typename Prod>
inline constexpr bool kExact = std::is_same_v<Prod, ExactProducts>;

#if defined(__x86_64__)
// The exact products at x86-64's widths, in intrinsics: GCC 12 moves a
// generic vector of 4 doubles through memory on SSE2, and widens 4
// floats in two halves even where one AVX instruction does it.
//
// p = a·b in 4 lanes, each side widened in two halves of two doubles.
inline void ExactMul(const F4& a, const F4& b, F4* p) {
  const __m128d lo = _mm_mul_pd(_mm_cvtps_pd(a), _mm_cvtps_pd(b));
  const __m128d hi = _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(a, a)),
                                _mm_cvtps_pd(_mm_movehl_ps(b, b)));
  *p = _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi));
}

// p = a·b in 4 lanes, a in every lane.
inline void ExactMul(float a, const F4& b, F4* p) {
  const __m128d ad = _mm_set1_pd(a);
  const __m128d lo = _mm_mul_pd(ad, _mm_cvtps_pd(b));
  const __m128d hi = _mm_mul_pd(ad, _mm_cvtps_pd(_mm_movehl_ps(b, b)));
  *p = _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi));
}

#pragma GCC push_options
#pragma GCC target("avx2")
// The same in 8 lanes, as two halves of 4 doubles. Built for AVX2, so
// only the 8-lane functions can inline them.
inline void ExactMul(const Vec<8>& a, const Vec<8>& b, Vec<8>* p) {
  const __m256d lo =
      _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(a)),
                    _mm256_cvtps_pd(_mm256_castps256_ps128(b)));
  const __m256d hi =
      _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(a, 1)),
                    _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1)));
  *p = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                            _mm256_cvtpd_ps(hi), 1);
}

inline void ExactMul(float a, const Vec<8>& b, Vec<8>* p) {
  const __m256d ad = _mm256_set1_pd(a);
  const __m256d lo =
      _mm256_mul_pd(ad, _mm256_cvtps_pd(_mm256_castps256_ps128(b)));
  const __m256d hi =
      _mm256_mul_pd(ad, _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1)));
  *p = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                            _mm256_cvtpd_ps(hi), 1);
}
#pragma GCC pop_options
#else
// Elsewhere the vector extension's conversions (only W = 4 runs there).
inline void ExactMul(const F4& a, const F4& b, F4* p) {
  *p = __builtin_convertvector(
      __builtin_convertvector(a, D4) * __builtin_convertvector(b, D4), F4);
}

inline void ExactMul(float a, const F4& b, F4* p) {
  *p = __builtin_convertvector(
      static_cast<double>(a) * __builtin_convertvector(b, D4), F4);
}
#endif

// p = a·b lane by lane; a is a vector, or a float in every lane.
template <typename Prod, int W, typename A>
inline void Mul(const A& a, const Vec<W>& b, Vec<W>* p) {
  if constexpr (kExact<Prod>) {
    ExactMul(a, b, p);
  } else {
    *p = a * b;
  }
}

// a·b for one pair: the exact form in one lane of two.
template <typename Prod>
inline float Mul(float a, float b) {
  if constexpr (!kExact<Prod>) {
    return a * b;
  } else {
    const DVec<2> ad = {static_cast<double>(a), static_cast<double>(a)};
    return __builtin_convertvector(ad * static_cast<double>(b), Vec<2>)[0];
  }
}

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

// Rows [i, i+R) × columns [j, j+W·V) over steps [k0, k1): R·V vector
// accumulators, each lane one output's chain. Prod, here and below, is
// the products' form: FloatProducts or ExactProducts.
template <bool kTransA, int W, int R, int V, typename Prod>
inline void TileNN(std::size_t i, std::size_t j, std::size_t k0,
                   std::size_t k1, std::size_t m, std::size_t k,
                   std::size_t n, const float* a, const float* b, float* c) {
  Vec<W> acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      Load<W>(c + (i + r) * n + j + W * v, &acc[r][v]);
    }
  }
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const float* brow = b + kk * n + j;
    Vec<W> bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) Load<W>(brow + W * v, &bv[v]);
    // TN's R values of A are contiguous: one load, then per-lane reads.
    F4 at = {};
    if constexpr (kTransA && R == 4) Load<4>(a + kk * m + i, &at);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av =
          kTransA && R == 4 ? at[r] : AAt<kTransA>(a, m, k, i + r, kk);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        Vec<W> product;
        Mul<Prod, W>(av, bv[v], &product);
        acc[r][v] = acc[r][v] + product;
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      Store<W>(c + (i + r) * n + j + W * v, acc[r][v]);
    }
  }
}

// One column j of rows [i, i+R): R scalar chains. The exact form takes
// the 4 rows' products as one vector.
template <bool kTransA, int R, typename Prod>
inline void ColumnNN(std::size_t i, std::size_t j, std::size_t k0,
                     std::size_t k1, std::size_t m, std::size_t k,
                     std::size_t n, const float* a, const float* b, float* c) {
  float acc[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) acc[r] = c[(i + r) * n + j];
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const float bv = b[kk * n + j];
    if constexpr (kExact<Prod> && R == 4) {
      const F4 av = {AAt<kTransA>(a, m, k, i, kk),
                     AAt<kTransA>(a, m, k, i + 1, kk),
                     AAt<kTransA>(a, m, k, i + 2, kk),
                     AAt<kTransA>(a, m, k, i + 3, kk)};
      F4 product;
      Mul<Prod, 4>(bv, av, &product);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) acc[r] = acc[r] + product[r];
    } else {
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        acc[r] = acc[r] + Mul<Prod>(AAt<kTransA>(a, m, k, i + r, kk), bv);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) c[(i + r) * n + j] = acc[r];
}

// Columns [j, n) of rows [i, i+R): tiles of V vectors, then one of each
// narrower vector count, then (at W = 8) one 4-lane tile, then single
// columns.
template <bool kTransA, int W, int R, int V, typename Prod>
inline void ColumnTilesNN(std::size_t i, std::size_t j, std::size_t k0,
                          std::size_t k1, std::size_t m, std::size_t k,
                          std::size_t n, const float* a, const float* b,
                          float* c) {
  for (; j + W * V <= n; j += W * V) {
    TileNN<kTransA, W, R, V, Prod>(i, j, k0, k1, m, k, n, a, b, c);
  }
  if constexpr (V > 1) {
    ColumnTilesNN<kTransA, W, R, V / 2, Prod>(i, j, k0, k1, m, k, n, a, b, c);
  } else if constexpr (W > 4) {
    ColumnTilesNN<kTransA, 4, R, 1, Prod>(i, j, k0, k1, m, k, n, a, b, c);
  } else {
    for (; j < n; ++j) {
      ColumnNN<kTransA, R, Prod>(i, j, k0, k1, m, k, n, a, b, c);
    }
  }
}

// Rows [i0, i1) of C: 4×2W tiles, and 1×4W tiles for the last m mod 4
// rows (a single row needs the wider tile for enough independent
// chains).
template <bool kTransA, int W, typename Prod>
void GemmRows(std::size_t i0, std::size_t i1, std::size_t m, std::size_t k,
              std::size_t n, const float* a, const float* b, float* c) {
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = std::min(k, k0 + kBlockK);
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      ColumnTilesNN<kTransA, W, 4, 2, Prod>(i, 0, k0, k1, m, k, n, a, b, c);
    }
    for (; i < i1; ++i) {
      ColumnTilesNN<kTransA, W, 1, 4, Prod>(i, 0, k0, k1, m, k, n, a, b, c);
    }
  }
}

// ---- NT: C[i][j] += dot(A row i, B row j) in four lanes plus a tail ----

// The order contract for one output in scalar form, for the columns no
// tile covers: lane l sums kk ≡ l (mod 4) below k4, the tail sums
// kk ≥ k4, each from +0.
template <typename Prod>
inline void DotNT(const float* arow, const float* brow, std::size_t k,
                  std::size_t k4, float* cij) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (std::size_t kk = 0; kk < k4; kk += 4) {
    s0 = s0 + Mul<Prod>(arow[kk], brow[kk]);
    s1 = s1 + Mul<Prod>(arow[kk + 1], brow[kk + 1]);
    s2 = s2 + Mul<Prod>(arow[kk + 2], brow[kk + 2]);
    s3 = s3 + Mul<Prod>(arow[kk + 3], brow[kk + 3]);
  }
  float tail = 0.0f;
  for (std::size_t kk = k4; kk < k; ++kk) {
    tail = tail + Mul<Prod>(arow[kk], brow[kk]);
  }
  *cij = *cij + (((s0 + s1) + (s2 + s3)) + tail);
}

// An NT register holds the four lanes of P = W/4 adjacent outputs side
// by side. LoadQuads fills it with P runs of four floats, the g-th read
// from p + g·stride: rows j … j+P−1 of B (stride k), or one run of A
// broadcast into every quarter (stride 0).
template <int W>
inline void LoadQuads(const float* p, std::size_t stride, Vec<W>* v) {
  if constexpr (W == 4) {
    Load<4>(p, v);
  } else {
    static_assert(W == 8);
    F4 lo, hi;
    Load<4>(p, &lo);
    Load<4>(p + stride, &hi);
    *v = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
  }
}

// Lane l of four adjacent outputs, from the registers x[0 … 4/P − 1]
// that hold them: at W = 4 (x0[l], x1[l], x2[l], x3[l]), at W = 8
// (x0[l], x0[4+l], x1[l], x1[4+l]).
template <int W>
inline void LaneOfFour(const Vec<W>* x, int l, F4* s) {
  constexpr int P = W / 4;
  *s = F4{x[0 / P][(0 % P) * 4 + l], x[1 / P][(1 % P) * 4 + l],
          x[2 / P][(2 % P) * 4 + l], x[3 / P][(3 % P) * 4 + l]};
}

// Rows [i, i+R) × columns [j, j+Q), Q a multiple of 4: Q/P registers
// per row, lane 4p+l of register q holding output j+P·q+p's s_l. Per
// four columns the combine regroups lanes into outputs and runs four
// outputs per 4-lane vector op.
template <int W, int R, int Q, typename Prod>
inline void TileNT(std::size_t i, std::size_t j, std::size_t k,
                   std::size_t k4, std::size_t n, const float* a,
                   const float* b, float* c) {
  constexpr int P = W / 4;
  Vec<W> acc[R][Q / P] = {};  // +0 in every lane
  for (std::size_t kk = 0; kk < k4; kk += 4) {
    Vec<W> av[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) LoadQuads<W>(a + (i + r) * k + kk, 0, &av[r]);
#pragma GCC unroll 8
    for (int q = 0; q < Q / P; ++q) {
      Vec<W> bv;
      LoadQuads<W>(b + (j + P * q) * k + kk, k, &bv);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        Vec<W> product;
        Mul<Prod, W>(av[r], bv, &product);
        acc[r][q] = acc[r][q] + product;
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    const float* arow = a + (i + r) * k;
#pragma GCC unroll 2
    for (int g = 0; g < Q; g += 4) {
      const Vec<W>* x = acc[r] + g / P;
      F4 s0, s1, s2, s3;
      LaneOfFour<W>(x, 0, &s0);
      LaneOfFour<W>(x, 1, &s1);
      LaneOfFour<W>(x, 2, &s2);
      LaneOfFour<W>(x, 3, &s3);
      F4 tail = {};
      for (std::size_t kk = k4; kk < k; ++kk) {
        const float* bk = b + (j + g) * k + kk;
        const F4 bv = {bk[0], bk[k], bk[2 * k], bk[3 * k]};
        F4 product;
        Mul<Prod, 4>(arow[kk], bv, &product);
        tail = tail + product;
      }
      float* cij = c + (i + r) * n + j + g;
      F4 cv;
      Load<4>(cij, &cv);
      Store<4>(cij, cv + (((s0 + s1) + (s2 + s3)) + tail));
    }
  }
}

// Columns [0, n) of rows [i, i+R): tiles of Q columns, one of 4 if Q is
// wider, then the scalar dot per remaining output.
template <int W, int R, int Q, typename Prod>
inline void ColumnTilesNT(std::size_t i, std::size_t k, std::size_t k4,
                          std::size_t n, const float* a, const float* b,
                          float* c) {
  std::size_t j = 0;
  for (; j + Q <= n; j += Q) TileNT<W, R, Q, Prod>(i, j, k, k4, n, a, b, c);
  if constexpr (Q > 4) {
    if (j + 4 <= n) {
      TileNT<W, R, 4, Prod>(i, j, k, k4, n, a, b, c);
      j += 4;
    }
  }
  for (; j < n; ++j) {
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      DotNT<Prod>(a + (i + r) * k, b + j * k, k, k4, c + (i + r) * n + j);
    }
  }
}

// Rows [i0, i1) with 0 < k < 4, where every lane is empty: each output is
// c + (+0 + tail), the tail summed from +0 in ascending kk, which is
// DotNT's expression. The tiles would spend the product zeroing and
// combining empty lanes; with K a constant this column loop vectorizes.
// The compiler leaves the exact products' loop scalar, so that form runs
// W columns at a time by hand, each kk's B values gathered from their
// K-strided rows into one vector.
template <std::size_t K, int W, typename Prod>
inline void ShortNTRows(std::size_t i0, std::size_t i1, std::size_t n,
                        const float* __restrict a,
                        const float* __restrict b, float* __restrict c) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * K;
    float* crow = c + i * n;
    std::size_t j = 0;
    if constexpr (kExact<Prod>) {
      for (; j + W <= n; j += W) {
        Vec<W> tail = {};
#pragma GCC unroll 4
        for (std::size_t kk = 0; kk < K; ++kk) {
          Vec<W> bv;
          if constexpr (K == 1) {
            Load<W>(b + j, &bv);
          } else {
#pragma GCC unroll 8
            for (int l = 0; l < W; ++l) bv[l] = b[(j + l) * K + kk];
          }
          Vec<W> product;
          Mul<Prod, W>(arow[kk], bv, &product);
          tail = tail + product;
        }
        Vec<W> cv;
        Load<W>(crow + j, &cv);
        Store<W>(crow + j, cv + (0.0f + tail));
      }
    }
    for (; j < n; ++j) {
      float tail = 0.0f;
#pragma GCC unroll 4
      for (std::size_t kk = 0; kk < K; ++kk) {
        tail = tail + Mul<Prod>(arow[kk], b[j * K + kk]);
      }
      crow[j] = crow[j] + (0.0f + tail);
    }
  }
}

// Rows [i0, i1) of C: 2×W tiles (8 registers at W = 8, 8 chains at
// W = 4), and 1×8 tiles for an odd last row; ShortNTRows for k < 4. m
// is unused; it keeps the row functions' signatures alike.
template <int W, typename Prod>
void GemmNTRows(std::size_t i0, std::size_t i1, std::size_t /*m*/,
                std::size_t k, std::size_t n, const float* a, const float* b,
                float* c) {
  switch (k) {
    case 1: return ShortNTRows<1, W, Prod>(i0, i1, n, a, b, c);
    case 2: return ShortNTRows<2, W, Prod>(i0, i1, n, a, b, c);
    case 3: return ShortNTRows<3, W, Prod>(i0, i1, n, a, b, c);
    default: break;
  }
  const std::size_t k4 = k - k % 4;
  std::size_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    ColumnTilesNT<W, 2, W, Prod>(i, k, k4, n, a, b, c);
  }
  if (i < i1) ColumnTilesNT<W, 1, 8, Prod>(i, k, k4, n, a, b, c);
}

// Whether any of x's n floats is subnormal (exponent bits 0, mantissa
// not): |x|'s bits minus 1, unsigned, below 0x7fffff, which is the signed
// test (|x|'s bits + 0x7fffffff) < 0x807fffff that SSE2 has. One pass, W
// lanes at a time, with no early exit (a clean B, the common case, is
// read through anyway).
template <int W>
bool HasSubnormal(const float* x, std::size_t n) {
  using U = UVec<W>;
  using I = IVec<W>;
  I found = {};
  std::size_t i = 0;
#pragma GCC unroll 4
  for (; i + W <= n; i += W) {
    U bits;
    std::memcpy(&bits, x + i, sizeof(bits));
    found |= reinterpret_cast<I>((bits & 0x7fffffffu) + 0x7fffffffu) <
             static_cast<std::int32_t>(0x807fffffu);
  }
  // Fold the lanes in halves: fewer instructions than reading each lane,
  // which the small B of GRU4Rec's outer products notices.
  IVec<4> folded;
  if constexpr (W == 8) {
    folded = __builtin_shufflevector(found, found, 0, 1, 2, 3) |
             __builtin_shufflevector(found, found, 4, 5, 6, 7);
  } else {
    folded = found;
  }
  folded |= __builtin_shufflevector(folded, folded, 2, 3, 0, 1);
  folded |= __builtin_shufflevector(folded, folded, 1, 0, 3, 2);
  bool any = folded[0] != 0;
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, x + i, sizeof(bits));
    any |= (bits & 0x7fffffffu) - 1u < 0x7fffffu;
  }
  return any;
}

// ---- The libm routines, lane by lane ----
//
// Each routine below maps W floats to W floats (reading all of x before
// it writes *y) and transcribes one of glibc 2.36's scalar routines:
// every lane evaluates every branch with the C source's operations in
// its order and picks its result by mask, so it rounds exactly as the
// scalar call does.
template <int W>
using LaneFn = void (*)(const Vec<W>& x, Vec<W>* y);

// ---- tanh: glibc's __tanhf and __expm1f ----
//
// sysdeps/ieee754/flt-32 s_tanhf.c and s_expm1f.c (fdlibm's
// single-precision routines; libm has no other variant of either and no
// FMA in them).

// expm1f(a) on the arguments __tanhf passes it: a in (−2, −2^-54] or
// [2, 44), or +0 in a lane whose tanh takes no expm1f. Those never reach
// expm1f's overflow, −1 or k = 1 branches, which are left out. Its
// branches here, by |a| and by k:
//   |a| < 2^-25          a
//   |a| ≤ ln2/2: k = 0   x − (x·e − hxs)
//   k = −1               0.5·(x − e) − 0.5                 (|a| < 1.5 ln2)
//   k ≤ −2 or k > 56     2^k·(1 − (e − x)) − 1
//   2 ≤ k ≤ 22           2^k·((1 − 2^-k) − (e − x))
//   23 ≤ k ≤ 56          2^k·((x − (e + 2^-k)) + 1)
// with x = hi − lo the reduced argument and e the correction (the second
// e of the source from k = −1 on).
template <int W>
inline void Expm1Lanes(const Vec<W>& a_in, Vec<W>* out) {
  using V = Vec<W>;
  using I = IVec<W>;
  using U = UVec<W>;
  const V zero = {};
  const V one = zero + 1.0f;
  const I hx = reinterpret_cast<I>(a_in) & 0x7fffffff;
  const I positive = reinterpret_cast<I>(a_in) >= 0;
  // The |a| < 2^-25 lanes return a; the rest of the routine runs on +0
  // there, which keeps their products out of the subnormals.
  const I tiny = hx < 0x33000000;
  const V a = tiny ? zero : a_in;
  // Argument reduction. Every lane's a is in (−2, 44), so k's float →
  // int conversion stays in range.
  const V half = positive ? zero + 0.5f : zero - 0.5f;
  const I k_round = __builtin_convertvector(a * 1.4426950216e+00f + half, I);
  const I k_one = positive ? I{} + 1 : I{} - 1;
  I k = hx < 0x3f851592 ? k_one : k_round;
  k = hx > 0x3eb17218 ? k : I{};
  // t·ln2_hi is exact; at k = 0 this leaves x = a and c = 0, and at
  // k = ±1 it is the source's a ∓ ln2_hi, ±ln2_lo.
  const V t = __builtin_convertvector(k, V);
  const V hi = a - t * 6.9313812256e-01f;
  const V lo = t * 9.0580006145e-06f;
  const V x = hi - lo;
  const V c = (hi - x) - lo;
  // The primary range.
  const V hfx = 0.5f * x;
  const V hxs = x * hfx;
  const V r1 =
      one +
      hxs * (-3.3333335072e-02f +
             hxs * (1.5873016091e-03f +
                    hxs * (-7.9365076090e-05f +
                           hxs * (4.0082177293e-06f +
                                  hxs * -2.0109921195e-07f))));
  const V t3 = 3.0f - r1 * hfx;
  V e = hxs * ((r1 - t3) / (6.0f - x * t3));
  const V r_k0 = x - (x * e - hxs);
  e = x * (e - c) - c;
  e = e - hxs;
  const V r_km1 = 0.5f * (x - e) - 0.5f;
  // 2^-k from its exponent field, in unsigned lanes (k may be negative
  // there); 1 − 2^-k is exact for k ≤ 24.
  const U k_bits = reinterpret_cast<U>(k);
  const U two_minus_k = (0x7fu - k_bits) << 23;
  const V p = reinterpret_cast<V>(two_minus_k);
  const I mid = (k >= 2) & (k <= 22);
  const I high = (k >= 23) & (k <= 56);
  const V y_mid = (mid ? one - p : one) - (e - x);
  const V y_high = (x - (e + p)) + one;
  const V y0 = high ? y_high : y_mid;
  const U y_bits = reinterpret_cast<U>(y0) + (k_bits << 23);
  const V y = reinterpret_cast<V>(y_bits);
  V r = (mid | high) ? y : y - one;
  r = k == -1 ? r_km1 : r;
  r = k == 0 ? r_k0 : r;
  *out = tiny ? a_in : r;
}

// tanhf. Its branches, by |x|:
//   ±0                   x
//   |x| < 2^-55          x·(1 + x)
//   |x| < 1              ±(−t / (t + 2)),   t = expm1f(−2|x|)
//   1 ≤ |x| < 22         ±(1 − 2 / (t + 2)), t = expm1f(2|x|)
//   |x| ≥ 22             ±(1 − 10^-30)
//   inf or NaN           1/x + 1, or 1/x − 1 if the sign bit is set
template <int W>
inline void TanhLanes(const Vec<W>& x, Vec<W>* out) {
  using V = Vec<W>;
  using I = IVec<W>;
  const V zero = {};
  const V one = zero + 1.0f;
  const V two = zero + 2.0f;
  const I jx = reinterpret_cast<I>(x);
  const I ix = jx & 0x7fffffff;
  const V abs_x = reinterpret_cast<V>(ix);
  const I ge1 = ix >= 0x3f800000;
  const I calls_expm1 = (ix >= 0x24000000) & (ix < 0x41b00000);
  V a = (ge1 ? two : -two) * abs_x;
  a = calls_expm1 ? a : zero;
  V t;
  Expm1Lanes<W>(a, &t);
  // One division per lane: 2/(t + 2) or −t/(t + 2).
  const V q = (ge1 ? two : -t) / (t + two);
  V z = ge1 ? one - q : q;
  z = ix < 0x41b00000 ? z : zero + (1.0f - 1.0e-30f);
  z = jx >= 0 ? z : -z;
  z = ix < 0x24000000 ? x * (one + x) : z;
  z = ix == 0 ? x : z;
  // Only the inf and NaN lanes divide by x.
  const I special = ix >= 0x7f800000;
  const V inv = one / (special ? x : one);
  *out = special ? (jx >= 0 ? inv + one : inv - one) : z;
}

// ---- expf: glibc's __expf_sse2 and __expf_fma ----
//
// sysdeps/ieee754/flt-32/e_expf.c and the __exp2f_data it reads. libm
// builds that source twice, as __expf_sse2 and (with -mfma -mavx2) as
// __expf_fma, and an ifunc picks one when libm loads: the FMA one on a
// CPU with FMA and AVX2, unless GLIBC_TUNABLES masks them. The compiler
// fused four of the routine's multiply-adds in __expf_fma (see objdump
// of libm.a's e_expf-fma.o), so the two round differently:
//   kd = InvLn2N·x + SHIFT    fma(InvLn2N, x, SHIFT)
//   r = InvLn2N·x − kd        fma(InvLn2N, x, −kd), so InvLn2N·x is
//                             never rounded
//   z = C0·r + C1, y = C2·r + 1 and y = z·r² + y, one fma each
// with x widened to double. __expf_sse2 rounds every product. kFma picks
// the fused form, whose instances exist only inside functions built for
// FMA; the build never contracts a·b + c by itself (-ffp-contract=off).

// __exp2f_data.tab: bits(2^(i/32)) − (i << 47), for i < 32.
constexpr std::uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
// __exp2f_data.invln2_scaled (32/ln2), .shift and .poly_scaled.
constexpr double kInvLn2N = 0x1.71547652b82fep+5;
constexpr double kShift = 0x1.8p+52;
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2,fma")
// out = fma(a, b, c) in each lane. Built for FMA, so only the FMA form's
// functions can inline it.
inline void FusedMulAdd(const D4& a, const D4& b, const D4& c, D4* out) {
  *out = _mm256_fmadd_pd(a, b, c);
}
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
// out[l] = kExp2fTable[i[l]], one AVX2 gather (i < 32). Only functions
// built for AVX2 can inline it.
inline void GatherExp2fTable(const U64Vec<4>& i, U64Vec<4>* out) {
  *out = reinterpret_cast<U64Vec<4>>(_mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExp2fTable),
      reinterpret_cast<__m256i>(i), 8));
}
#pragma GCC pop_options
#else
inline void FusedMulAdd(const D4& a, const D4& b, const D4& c, D4* out) {
  for (int l = 0; l < 4; ++l) (*out)[l] = __builtin_fma(a[l], b[l], c[l]);
}

inline void GatherExp2fTable(const U64Vec<4>& i, U64Vec<4>* out) {
  for (int l = 0; l < 4; ++l) (*out)[l] = kExp2fTable[i[l]];
}
#endif

// a·b + c: fused in the FMA form, two roundings in the SSE2 form.
template <bool kFma>
inline void MulAdd(const D4& a, const D4& b, const D4& c, D4* out) {
  if constexpr (kFma) {
    FusedMulAdd(a, b, c, out);
  } else {
    *out = a * b + c;
  }
}

// expf's main path for four floats x, in double: kd = round(32x/ln2)
// against the 0x1.8p52 shift, whose low bits are k; r = 32x/ln2 − k;
// s = 2^(k/32) as tab[k mod 32] + (k << 47); then y·s with y = C0·r³ +
// C1·r² + C2·r + 1 evaluated as z = C0·r + C1, y = C2·r + 1,
// y = z·r² + y; rounded to float. kGather reads the table with one AVX2
// gather instead of four loads, in functions built for AVX2.
template <bool kFma, bool kGather>
inline void ExpMainPath(const F4& x, F4* out) {
  const D4 zero = {};
  const D4 xd = __builtin_convertvector(x, D4);
  const D4 inv_ln2_n = zero + kInvLn2N;
  const D4 shift = zero + kShift;
  D4 kd, r, z, y, y_r2;
  MulAdd<kFma>(inv_ln2_n, xd, shift, &kd);
  const U64Vec<4> ki = reinterpret_cast<U64Vec<4>>(kd);
  kd = kd - shift;
  // InvLn2N·x − kd, written as the sum with −kd that it is.
  MulAdd<kFma>(inv_ln2_n, xd, -kd, &r);
  U64Vec<4> t;
  if constexpr (kGather) {
    GatherExp2fTable(ki % 32, &t);
  } else {
#pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) t[l] = kExp2fTable[ki[l] % 32];
  }
  const D4 s = reinterpret_cast<D4>(t + (ki << 47));
  MulAdd<kFma>(r, zero + kExpC0, zero + kExpC1, &z);
  const D4 r2 = r * r;
  MulAdd<kFma>(r, zero + kExpC2, zero + 1.0, &y);
  MulAdd<kFma>(z, r2, y, &y_r2);
  *out = __builtin_convertvector(y_r2 * s, F4);
}

// expf: the main path in every lane, four at a time; the lanes the
// |x| ≥ 88 branch returns early pick by mask:
//   x = −inf               +0
//   x = +inf or NaN        x + x
//   x > 0x1.62e42ep6       +inf (__math_oflowf)
//   x < −0x1.9fe368p6      +0 (__math_uflowf)
//   x < −0x1.9d1d9ep6      0x1p-149 (__math_may_uflowf, which glibc's
//                          build calls to set errno)
template <bool kFma, int W>
inline void ExpLanes(const Vec<W>& x, Vec<W>* out) {
  using V = Vec<W>;
  using I = IVec<W>;
  // Every 8-lane function and every FMA-form one is built for AVX2.
  constexpr bool kGather = kFma || W == 8;
  V e;
  if constexpr (W == 4) {
    ExpMainPath<kFma, kGather>(x, &e);
  } else {
    static_assert(W == 8);
    F4 lo, hi;
    ExpMainPath<kFma, kGather>(__builtin_shufflevector(x, x, 0, 1, 2, 3),
                               &lo);
    ExpMainPath<kFma, kGather>(__builtin_shufflevector(x, x, 4, 5, 6, 7),
                               &hi);
    e = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
  }
  const V zero = {};
  const I hx = reinterpret_cast<I>(x);
  e = x < -0x1.9d1d9ep6f ? zero + 0x1p-149f : e;
  e = x < -0x1.9fe368p6f ? zero : e;
  e = x > 0x1.62e42ep6f ? zero + std::numeric_limits<float>::infinity() : e;
  e = ((hx >> 20) & 0x7ff) >= 0x7f8 ? x + x : e;
  *out = hx == static_cast<std::int32_t>(0xff800000u) ? zero : e;
}

// ---- log1pf: glibc's __log1pf ----
//
// sysdeps/ieee754/flt-32/s_log1pf.c (fdlibm's; libm exports it as a
// plain symbol, and libm.a has no other variant and no FMA in it). Its
// branches, by the bits hx of x:
//   x ≤ −1 (or −inf, or a NaN with the sign bit)
//                          −2^25/0 = −inf at −1, (x − x)/(x − x) below
//   |x| < 2^-54            x
//   |x| < 2^-29            x − x·x·0.5
//   x in [−0.2929, 0.41422)    k = 0, f = x
//   +inf or NaN            x + x
//   otherwise              u = 1 + x (u = x from 2^53 on, with c = 0),
//                          k = u's exponent, c = (1 − (u − x))/u for
//                          k > 0 and (x − (u − 1))/u else; u's mantissa
//                          m scaled into [√2/2, √2), k + 1 from m ≥
//                          0x3504f7; f = u − 1
// and then, with hfsq = 0.5·f·f, R = hfsq·(1 − (2/3)·f) when u is a
// power of two (|f| < 2^-20) and s = f/(2 + f), R = s²·(Lp1 + s²·(…Lp7))
// otherwise, the k = 0 and k ≠ 0 results of each. The x ≤ −1 lanes
// divide in the lane that would divide c by u.
template <int W>
inline void Log1pLanes(const Vec<W>& x, Vec<W>* out) {
  using V = Vec<W>;
  using I = IVec<W>;
  constexpr float kLn2Hi = 6.9313812256e-01f;
  constexpr float kLn2Lo = 9.0580006145e-06f;
  const V zero = {};
  const V one = zero + 1.0f;
  const I hx = reinterpret_cast<I>(x);
  const I ax = hx & 0x7fffffff;
  const I below_one = (hx < 0x3ed413d7) & (ax >= 0x3f800000);
  const I near_zero =
      (hx < 0x3ed413d7) &
      ((hx > 0) | (hx <= static_cast<std::int32_t>(0xbe95f61fu)));
  // k ≠ 0: 2^k·u from 1 + x, or from x itself from 2^53 on.
  const I big = hx >= 0x5a000000;
  const V u_in = big ? x : one + x;
  const I hu_in = reinterpret_cast<I>(u_in);
  I k = (hu_in >> 23) - 127;
  const V c_num = k > 0 ? one - (u_in - x) : x - (u_in - one);
  const V x_minus_x = x - x;
  const V q = (below_one ? (x == -1.0f ? zero - 3.355443200e+07f : x_minus_x)
                         : c_num) /
              (below_one ? (x == -1.0f ? zero : x_minus_x) : u_in);
  const V c = big ? zero : q;
  const I m = hu_in & 0x007fffff;
  const I upper = m >= 0x3504f7;
  const V u = reinterpret_cast<V>(m | (upper ? I{} + 0x3f000000
                                             : I{} + 0x3f800000));
  k = upper ? k + 1 : k;
  const I hu = upper ? (0x00800000 - m) >> 2 : m;
  k = near_zero ? I{} : k;
  const V f = near_zero ? x : u - 1.0f;
  const I pow2 = near_zero ? I{} : hu == 0;  // |f| < 2^-20
  const V hfsq = 0.5f * f * f;
  const V kf = __builtin_convertvector(k, V);
  const V k_hi = kf * kLn2Hi;
  const V c_lo = c + kf * kLn2Lo;
  // u a power of two.
  const V r_pow2 = hfsq * (1.0f - 6.6666668653e-01f * f);
  V y_pow2 = k == 0 ? f - r_pow2 : k_hi - ((r_pow2 - c_lo) - f);
  y_pow2 = f == zero ? (k == 0 ? zero : k_hi + c_lo) : y_pow2;
  // The general case.
  const V s = f / (2.0f + f);
  const V z = s * s;
  const V r =
      z * (6.6666668653e-01f +
           z * (4.0000000596e-01f +
                z * (2.8571429849e-01f +
                     z * (2.2222198546e-01f +
                          z * (1.8183572590e-01f +
                               z * (1.5313838422e-01f +
                                    z * 1.4798198640e-01f))))));
  const V s_r = s * (hfsq + r);
  V y = k == 0 ? f - (hfsq - s_r) : k_hi - ((hfsq - (s_r + c_lo)) - f);
  y = pow2 ? y_pow2 : y;
  y = ax < 0x31000000 ? (ax < 0x24800000 ? x : x - x * x * 0.5f) : y;
  y = below_one ? q : y;
  *out = hx >= 0x7f800000 ? x + x : y;
}

// ---- The logistic and softplus, as scalar code computes them ----

// e = expf(x ≥ 0 ? −x : x), σ = (x ≥ 0 ? 1 : e)/(1 + e): 1/(1 + e^−x)
// with no overflow. A NaN lane takes expf(x), where a scalar x ≥ 0 test
// sends it.
template <bool kFma, int W>
inline void SigmoidLanes(const Vec<W>& x, Vec<W>* out) {
  using V = Vec<W>;
  const V one = V{} + 1.0f;
  const IVec<W> nonneg = x >= 0.0f;
  V e;
  ExpLanes<kFma, W>(nonneg ? -x : x, &e);
  *out = (nonneg ? one : e) / (one + e);
}

// l = log1pf(expf(x > 0 ? −x : x)), softplus = x > 0 ? x + l : l.
template <bool kFma, int W>
inline void SoftplusLanes(const Vec<W>& x, Vec<W>* out) {
  using V = Vec<W>;
  const IVec<W> positive = x > 0.0f;
  V e, l;
  ExpLanes<kFma, W>(positive ? -x : x, &e);
  Log1pLanes<W>(e, &l);
  *out = positive ? x + l : l;
}

// y = f(x) over n floats. A row of W or more runs as full vectors, the
// last of them ending at n: where W does not divide n it overlaps the one
// before it, whose floats it writes again with the same values. It is
// read before anything is stored, so an in-place call still sees its
// inputs. A shorter row moves lane by lane into a zero-padded vector.
template <int W, LaneFn<W> kF>
void MapRow(const float* x, float* y, std::size_t n) {
  Vec<W> in = {}, out;
  if (n < W) {
#pragma GCC unroll 8
    for (std::size_t l = 0; l < W; ++l) {
      if (l < n) in[l] = x[l];
    }
    kF(in, &out);
#pragma GCC unroll 8
    for (std::size_t l = 0; l < W; ++l) {
      if (l < n) y[l] = out[l];
    }
    return;
  }
  Vec<W> last;
  Load<W>(x + n - W, &last);
  for (std::size_t i = 0; i + W < n; i += W) {
    Load<W>(x + i, &in);
    kF(in, &out);
    Store<W>(y + i, out);
  }
  kF(last, &out);
  Store<W>(y + n - W, out);
}

// ---- Row functions per lane width and expf form, and the one choice ----

using RowsFn = void (*)(std::size_t i0, std::size_t i1, std::size_t m,
                        std::size_t k, std::size_t n, const float* a,
                        const float* b, float* c);
using MapFn = void (*)(const float* x, float* y, std::size_t n);
using ScanFn = bool (*)(const float* x, std::size_t n);

enum Variant { kNN, kTN, kNT };

// One lane width's kernels, with those that call expf in one form.
struct RowKernels {
  std::size_t lanes;
  bool fma;  // __expf_fma's form, not __expf_sse2's
  RowsFn rows[3];        // float products, indexed by Variant
  RowsFn exact_rows[3];  // exact products, for a B that holds a subnormal
  ScanFn has_subnormal;
  MapFn tanh, log1p, exp, sigmoid, softplus;
};

#if defined(__x86_64__)
// The FMA form at either width exists only inside these functions:
// flatten inlines everything into them, FusedMulAdd included.
template <int W, LaneFn<W> kF>
[[gnu::target("avx2,fma"), gnu::flatten]] void MapRowFma(const float* x,
                                                          float* y,
                                                          std::size_t n) {
  MapRow<W, kF>(x, y, n);
}
#else
template <int W, LaneFn<W> kF>
void MapRowFma(const float* x, float* y, std::size_t n) {
  MapRow<W, kF>(x, y, n);
}
#endif

constexpr RowKernels kRows4 = {4,
                               false,
                               {GemmRows<false, 4, FloatProducts>,
                                GemmRows<true, 4, FloatProducts>,
                                GemmNTRows<4, FloatProducts>},
                               {GemmRows<false, 4, ExactProducts>,
                                GemmRows<true, 4, ExactProducts>,
                                GemmNTRows<4, ExactProducts>},
                               HasSubnormal<4>,
                               MapRow<4, TanhLanes<4>>,
                               MapRow<4, Log1pLanes<4>>,
                               MapRow<4, ExpLanes<false, 4>>,
                               MapRow<4, SigmoidLanes<false, 4>>,
                               MapRow<4, SoftplusLanes<false, 4>>};
constexpr RowKernels kRows4Fma = {4,
                                  true,
                                  {GemmRows<false, 4, FloatProducts>,
                                   GemmRows<true, 4, FloatProducts>,
                                   GemmNTRows<4, FloatProducts>},
                                  {GemmRows<false, 4, ExactProducts>,
                                   GemmRows<true, 4, ExactProducts>,
                                   GemmNTRows<4, ExactProducts>},
                                  HasSubnormal<4>,
                                  MapRow<4, TanhLanes<4>>,
                                  MapRow<4, Log1pLanes<4>>,
                                  MapRowFma<4, ExpLanes<true, 4>>,
                                  MapRowFma<4, SigmoidLanes<true, 4>>,
                                  MapRowFma<4, SoftplusLanes<true, 4>>};

#if defined(__x86_64__)
// The 8-lane instances exist only inside these AVX2 functions: flatten
// inlines the tiles into them, so their 32-byte vectors are built for
// AVX2. The GEMMs' target never names "fma": the order contract rounds
// every product before its add.
template <typename Prod>
[[gnu::target("avx2"), gnu::flatten]] void GemmNNRows8(
    std::size_t i0, std::size_t i1, std::size_t m, std::size_t k,
    std::size_t n, const float* a, const float* b, float* c) {
  GemmRows<false, 8, Prod>(i0, i1, m, k, n, a, b, c);
}

template <typename Prod>
[[gnu::target("avx2"), gnu::flatten]] void GemmTNRows8(
    std::size_t i0, std::size_t i1, std::size_t m, std::size_t k,
    std::size_t n, const float* a, const float* b, float* c) {
  GemmRows<true, 8, Prod>(i0, i1, m, k, n, a, b, c);
}

template <typename Prod>
[[gnu::target("avx2"), gnu::flatten]] void GemmNTRows8(
    std::size_t i0, std::size_t i1, std::size_t m, std::size_t k,
    std::size_t n, const float* a, const float* b, float* c) {
  GemmNTRows<8, Prod>(i0, i1, m, k, n, a, b, c);
}

[[gnu::target("avx2"), gnu::flatten]] bool HasSubnormal8(const float* x,
                                                         std::size_t n) {
  return HasSubnormal<8>(x, n);
}

template <LaneFn<8> kF>
[[gnu::target("avx2"), gnu::flatten]] void MapRow8(const float* x, float* y,
                                                   std::size_t n) {
  MapRow<8, kF>(x, y, n);
}

constexpr RowKernels kRows8 = {8,
                               false,
                               {GemmNNRows8<FloatProducts>,
                                GemmTNRows8<FloatProducts>,
                                GemmNTRows8<FloatProducts>},
                               {GemmNNRows8<ExactProducts>,
                                GemmTNRows8<ExactProducts>,
                                GemmNTRows8<ExactProducts>},
                               HasSubnormal8,
                               MapRow8<TanhLanes<8>>,
                               MapRow8<Log1pLanes<8>>,
                               MapRow8<ExpLanes<false, 8>>,
                               MapRow8<SigmoidLanes<false, 8>>,
                               MapRow8<SoftplusLanes<false, 8>>};
constexpr RowKernels kRows8Fma = {8,
                                  true,
                                  {GemmNNRows8<FloatProducts>,
                                   GemmTNRows8<FloatProducts>,
                                   GemmNTRows8<FloatProducts>},
                                  {GemmNNRows8<ExactProducts>,
                                   GemmTNRows8<ExactProducts>,
                                   GemmNTRows8<ExactProducts>},
                                  HasSubnormal8,
                                  MapRow8<TanhLanes<8>>,
                                  MapRow8<Log1pLanes<8>>,
                                  MapRowFma<8, ExpLanes<true, 8>>,
                                  MapRowFma<8, SigmoidLanes<true, 8>>,
                                  MapRowFma<8, SoftplusLanes<true, 8>>};
#endif

bool CpuHasAvx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Whether this CPU runs the FMA form: AVX2 and FMA on x86-64, anywhere
// else through __builtin_fma.
bool CpuRunsFmaForm() {
#if defined(__x86_64__)
  return CpuHasAvx2() && __builtin_cpu_supports("fma") != 0;
#else
  return true;
#endif
}

// The expf form this process's libm resolved. __expf_fma and
// __expf_sse2 differ on 0x1.04845ep+5 (bits 0x4202422f): the first
// returns 0x56fc9f1c, the second 0x56fc9f1b. (Over all 2^32 floats they
// differ there and at 0xc27c65d9 only.) The volatile keeps the compiler
// from folding the call. The CPU's feature bits cannot stand in for the
// call: GLIBC_TUNABLES can mask FMA from libm's choice.
bool LibmExpfIsFma() {
  volatile float probe = 0x1.04845ep+5f;
  const float e = ::expf(probe);
  std::uint32_t bits;
  std::memcpy(&bits, &e, sizeof(bits));
  return bits == 0x56fc9f1cu;
}

const RowKernels& RowsAt(std::size_t lanes, bool fma) {
  POISONREC_CHECK(kernels::internal::CanRunLanes(lanes, fma))
      << lanes << "-lane kernels" << (fma ? " with expf's FMA form" : "")
      << " cannot run on this CPU";
#if defined(__x86_64__)
  if (lanes == 8) return fma ? kRows8Fma : kRows8;
#endif
  return fma ? kRows4Fma : kRows4;
}

// The process-wide choice: made once, on first use (so a GEMM issued
// from a static initializer is still dispatched), and published as two
// gauges. The width cannot move a bit, since every width keeps the order
// contract and every lane its routine's operations; it only decides how
// fast the rows run. The expf form is libm's own.
const RowKernels& DispatchedRows() {
  static const RowKernels& rows = []() -> const RowKernels& {
    const RowKernels& chosen =
        RowsAt(CpuHasAvx2() ? 8 : 4, LibmExpfIsFma());
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("poisonrec_gemm_lanes")
        ->Set(static_cast<double>(chosen.lanes));
    registry.GetGauge("poisonrec_expf_fma")->Set(chosen.fma ? 1.0 : 0.0);
    return chosen;
  }();
  return rows;
}

// Row-partitions [0, m) across the kernel thread budget and runs
// `rows(i0, i1)` for each block; below `min_work` it runs rows(0, m)
// inline. Rows are handed out in blocks of roughly m / (threads * 4) so
// the atomic index counter stays cold while load still balances when
// rows have uneven cost.
template <typename Fn>
void ForEachRowBlock(std::size_t m, std::size_t work, std::size_t min_work,
                     const Fn& rows) {
  if (work < min_work) {  // skip even the thread-budget lookup
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

using kernels::internal::Products;

// Whether a product whose B holds a subnormal runs faster in the exact
// form: NN and TN do, and NT only below k = 4 (ShortNTRows). NT's tiles
// cost about 3 times their float form in the exact one, and in NeuMF's
// NT products (dX through a ReLU layer, whose backward zeroes the
// columns of dH that meet most of B's subnormals) the float form pays
// few assists; bench_kernels' sub*_neumf_*_dx rows measure both
// (docs/performance.md).
bool ExactPays(Variant variant, std::size_t k) {
  return variant != kNT || k < 4;
}

// One GEMM at the given width: call/flop accounting, then the variant's
// rows across the thread budget from `min_work` multiply-accumulates on.
// From kSubnormalScanMinRows rows on, where ExactPays, a B that holds a
// subnormal takes the exact-product rows, which return the same bits
// without the float multiply's assists; other products never scan. The
// counters are sharded (obs::Counter), so the relaxed adds here stay off
// any contended cache line even when every pool worker issues GEMMs.
void Gemm(const RowKernels& width, Variant variant, std::size_t m,
          std::size_t k, std::size_t n, const float* a, const float* b,
          float* c, std::size_t min_work,
          Products products = Products::kChosen) {
  static obs::Counter* const calls[3] = {
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_nn_calls_total"),
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_tn_calls_total"),
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_nt_calls_total")};
  static obs::Counter* const flops =
      obs::MetricsRegistry::Global().GetCounter("poisonrec_gemm_flops_total");
  calls[variant]->Increment();
  flops->Increment(static_cast<std::uint64_t>(2) * m * k * n);
  RowsFn rows = width.rows[variant];
  if (m >= kernels::kSubnormalScanMinRows && products == Products::kChosen) {
    if (ExactPays(variant, k) && width.has_subnormal(b, k * n)) {
      static obs::Counter* const subnormal_calls =
          obs::MetricsRegistry::Global().GetCounter(
              "poisonrec_gemm_subnormal_calls_total");
      subnormal_calls->Increment();
      rows = width.exact_rows[variant];
    }
  } else if (products == Products::kExact) {
    rows = width.exact_rows[variant];
  }
  ForEachRowBlock(m, m * k * n, min_work,
                  [&](std::size_t i0, std::size_t i1) {
                    rows(i0, i1, m, k, n, a, b, c);
                  });
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
  Gemm(DispatchedRows(), kNN, m, k, n, a, b, c, kParallelMinWork);
}

void GemmTN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  Gemm(DispatchedRows(), kTN, m, k, n, a, b, c, kParallelMinWork);
}

void GemmNT(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  Gemm(DispatchedRows(), kNT, m, k, n, a, b, c, kParallelMinWork);
}

std::size_t GemmLanes() { return DispatchedRows().lanes; }

bool ExpFma() { return DispatchedRows().fma; }

void Tanh(const float* x, float* y, std::size_t n) {
  DispatchedRows().tanh(x, y, n);
}

void Exp(const float* x, float* y, std::size_t n) {
  DispatchedRows().exp(x, y, n);
}

void Sigmoid(const float* x, float* y, std::size_t n) {
  DispatchedRows().sigmoid(x, y, n);
}

void Softplus(const float* x, float* y, std::size_t n) {
  DispatchedRows().softplus(x, y, n);
}

void ReluBackward(const float* x, const float* g, float slope, float* dx,
                  std::size_t n) {
  // A vector select: GCC keeps the scalar one as a branch per element,
  // because g·slope may trap and -ftrapping-math forbids computing it for
  // a lane that does not use it. The last n mod 4 lanes run zero-padded.
  const auto row = [slope](const float* xs, const float* gs, float* ds,
                           std::size_t len) {
    F4 xv = {}, gv = {}, dv = {};
    std::memcpy(&xv, xs, len * sizeof(float));
    std::memcpy(&gv, gs, len * sizeof(float));
    std::memcpy(&dv, ds, len * sizeof(float));
    const F4 zero = {};
    const IVec<4> live = xv > zero;
    dv += live ? gv : (live ? zero : gv) * slope;
    std::memcpy(ds, &dv, len * sizeof(float));
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) row(x + i, g + i, dx + i, 4);
  if (i < n) row(x + i, g + i, dx + i, n - i);
}

void ParallelRows(std::size_t m, std::size_t work,
                  const std::function<void(std::size_t, std::size_t)>& rows,
                  std::size_t min_work) {
  ForEachRowBlock(m, work, min_work, rows);
}

namespace internal {

bool CanRunLanes(std::size_t lanes, bool fma) {
  return (lanes == 4 || (lanes == 8 && CpuHasAvx2())) &&
         (!fma || CpuRunsFmaForm());
}

void GemmNNAt(std::size_t lanes, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c, std::size_t min_work,
              Products products) {
  Gemm(RowsAt(lanes, false), kNN, m, k, n, a, b, c, min_work, products);
}

void GemmTNAt(std::size_t lanes, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c, std::size_t min_work,
              Products products) {
  Gemm(RowsAt(lanes, false), kTN, m, k, n, a, b, c, min_work, products);
}

void GemmNTAt(std::size_t lanes, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c, std::size_t min_work,
              Products products) {
  Gemm(RowsAt(lanes, false), kNT, m, k, n, a, b, c, min_work, products);
}

bool HasSubnormalAt(std::size_t lanes, const float* x, std::size_t n) {
  return RowsAt(lanes, false).has_subnormal(x, n);
}

void TanhAt(std::size_t lanes, const float* x, float* y, std::size_t n) {
  RowsAt(lanes, false).tanh(x, y, n);
}

void Log1pAt(std::size_t lanes, const float* x, float* y, std::size_t n) {
  RowsAt(lanes, false).log1p(x, y, n);
}

void ExpAt(std::size_t lanes, const float* x, float* y, std::size_t n,
           bool fma) {
  RowsAt(lanes, fma).exp(x, y, n);
}

void SigmoidAt(std::size_t lanes, const float* x, float* y, std::size_t n,
               bool fma) {
  RowsAt(lanes, fma).sigmoid(x, y, n);
}

void SoftplusAt(std::size_t lanes, const float* x, float* y, std::size_t n,
                bool fma) {
  RowsAt(lanes, fma).softplus(x, y, n);
}

}  // namespace internal

}  // namespace kernels

}  // namespace poisonrec::nn
