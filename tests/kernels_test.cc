// Tests for the dense GEMM kernel layer (nn/kernels.h) and the
// GradMode/NoGradScope inference switch: kernel-vs-reference
// equivalence over randomized shapes, the kernels' order contract bit
// for bit at every lane width (with subnormal operands, which send a
// GEMM to its exact-product rows, too), the exact products against the
// float ones on special values, which GEMMs take the exact rows,
// bit-identical threaded vs single-threaded execution, the lane-wise
// tanh, exp, log1p, sigmoid and softplus against libm bit for bit, the
// width and expf-form dispatch, and tape-free no-grad outputs.
#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bit_identity.h"
#include "gtest/gtest.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

using kernels::GemmNN;
using kernels::GemmNT;
using kernels::GemmTN;

// Restores the process-wide kernel thread budget on scope exit so a
// failing test cannot leak its override into later tests.
class ThreadBudgetOverride {
 public:
  explicit ThreadBudgetOverride(std::size_t n) { SetNumThreads(n); }
  ~ThreadBudgetOverride() { SetNumThreads(0); }
};

std::vector<float> RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return m;
}

// Naive O(m·k·n) references, one per transpose variant. Accumulate into
// c like the kernels do.
void RefGemmNN(std::size_t m, std::size_t k, std::size_t n,
               const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      (*c)[i * n + j] += static_cast<float>(acc);
    }
  }
}

void RefGemmTN(std::size_t m, std::size_t k, std::size_t n,
               const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>* c) {
  // A stored (k×m): C[i][j] = sum_p A[p][i] * B[p][j].
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      }
      (*c)[i * n + j] += static_cast<float>(acc);
    }
  }
}

void RefGemmNT(std::size_t m, std::size_t k, std::size_t n,
               const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>* c) {
  // B stored (n×k): C[i][j] = sum_kk A[i][kk] * B[j][kk].
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[j * k + kk];
      }
      (*c)[i * n + j] += static_cast<float>(acc);
    }
  }
}

void ExpectNear(const std::vector<float>& got, const std::vector<float>& want,
                float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "element " << i;
  }
}

TEST(KernelsTest, GemmNNMatchesReferenceOverRandomShapes) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = rng.Index(40) + 1;
    const std::size_t k = rng.Index(40) + 1;
    const std::size_t n = rng.Index(40) + 1;
    const std::vector<float> a = RandomMatrix(m, k, &rng);
    const std::vector<float> b = RandomMatrix(k, n, &rng);
    std::vector<float> got(m * n, 0.5f);  // nonzero: checks accumulate semantics
    std::vector<float> want = got;
    GemmNN(m, k, n, a.data(), b.data(), got.data());
    RefGemmNN(m, k, n, a, b, &want);
    ExpectNear(got, want, 1e-4f);
  }
}

TEST(KernelsTest, GemmTNMatchesReferenceOverRandomShapes) {
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = rng.Index(40) + 1;
    const std::size_t k = rng.Index(40) + 1;
    const std::size_t n = rng.Index(40) + 1;
    const std::vector<float> a = RandomMatrix(k, m, &rng);
    const std::vector<float> b = RandomMatrix(k, n, &rng);
    std::vector<float> got(m * n, -0.25f);
    std::vector<float> want = got;
    GemmTN(m, k, n, a.data(), b.data(), got.data());
    RefGemmTN(m, k, n, a, b, &want);
    ExpectNear(got, want, 1e-4f);
  }
}

TEST(KernelsTest, GemmNTMatchesReferenceOverRandomShapes) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = rng.Index(40) + 1;
    const std::size_t k = rng.Index(40) + 1;
    const std::size_t n = rng.Index(40) + 1;
    const std::vector<float> a = RandomMatrix(m, k, &rng);
    const std::vector<float> b = RandomMatrix(n, k, &rng);
    std::vector<float> got(m * n, 1.0f);
    std::vector<float> want = got;
    GemmNT(m, k, n, a.data(), b.data(), got.data());
    RefGemmNT(m, k, n, a, b, &want);
    ExpectNear(got, want, 1e-4f);
  }
}

// The order contract of nn/kernels.h, one output element at a time, in
// plain scalar float arithmetic.
enum class Variant { kNN, kTN, kNT };

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kNN:
      return "NN";
    case Variant::kTN:
      return "TN";
    case Variant::kNT:
      return "NT";
  }
  return "?";
}

void SpecGemm(Variant variant, std::size_t m, std::size_t k, std::size_t n,
              const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>* c) {
  // A(i, kk) and B(kk, j) in each variant's storage.
  const auto a_at = [&](std::size_t i, std::size_t kk) {
    return variant == Variant::kTN ? a[kk * m + i] : a[i * k + kk];
  };
  const auto b_at = [&](std::size_t kk, std::size_t j) {
    return variant == Variant::kNT ? b[j * k + kk] : b[kk * n + j];
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float& cij = (*c)[i * n + j];
      if (variant != Variant::kNT) {
        for (std::size_t kk = 0; kk < k; ++kk) {
          cij = cij + a_at(i, kk) * b_at(kk, j);
        }
        continue;
      }
      const std::size_t k4 = k - k % 4;
      float s[4] = {0.0f, 0.0f, 0.0f, 0.0f};
      for (std::size_t kk = 0; kk < k4; ++kk) {
        s[kk % 4] = s[kk % 4] + a_at(i, kk) * b_at(kk, j);
      }
      float tail = 0.0f;
      for (std::size_t kk = k4; kk < k; ++kk) {
        tail = tail + a_at(i, kk) * b_at(kk, j);
      }
      cij = cij + (((s[0] + s[1]) + (s[2] + s[3])) + tail);
    }
  }
}

// Operands that make a moved operation visible: exponents spread over
// 2^±8 so that reordered sums round differently, and exact zeros of
// both signs (the lanes and the tail start at +0, which turns a -0
// product into +0).
std::vector<float> SpreadOperands(std::size_t size, Rng* rng) {
  std::vector<float> values(size);
  for (float& v : values) {
    const std::size_t kind = rng->Index(16);
    if (kind == 0) {
      v = 0.0f;
    } else if (kind == 1) {
      v = -0.0f;
    } else {
      const float mantissa = static_cast<float>(rng->Uniform(-1.0, 1.0));
      v = std::ldexp(mantissa, static_cast<int>(rng->Index(17)) - 8);
    }
  }
  return values;
}

float FromBits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

std::uint32_t ToBits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// A subnormal of either sign, its mantissa uniform over [1, 2^23).
float Subnormal(Rng* rng) {
  const auto mantissa = static_cast<std::uint32_t>(rng->Index(0x7fffff)) + 1;
  return FromBits(mantissa | (rng->Index(2) == 0 ? 0u : 0x80000000u));
}

// SpreadOperands' values, and in one place in four a value whose
// products leave the normal range: a subnormal of either sign (a float
// multiply with it takes an assist), or a normal below 2^-55, whose
// product with another such underflows to a subnormal or to zero. One
// entry, at a random place, is always subnormal, so a GEMM whose B this
// fills takes the exact-product rows from kSubnormalScanMinRows rows on.
std::vector<float> SubnormalOperands(std::size_t size, Rng* rng) {
  std::vector<float> values = SpreadOperands(size, rng);
  for (float& v : values) {
    const std::size_t kind = rng->Index(8);
    if (kind == 0) {
      v = Subnormal(rng);
    } else if (kind == 1) {
      const float mantissa = static_cast<float>(rng->Uniform(0.5, 1.0));
      v = std::ldexp(rng->Index(2) == 0 ? mantissa : -mantissa,
                     -55 - static_cast<int>(rng->Index(40)));
    }
  }
  values[rng->Index(size)] = Subnormal(rng);
  return values;
}

using Operands = std::vector<float> (*)(std::size_t size, Rng* rng);

// One variant's rows at a given lane width, through the kernels'
// test-only entry point: dispatch runs only the widest width the CPU
// has, so it alone would leave the other untested.
void RunKernel(Variant variant, std::size_t lanes, std::size_t m,
               std::size_t k, std::size_t n, const std::vector<float>& a,
               const std::vector<float>& b, std::vector<float>* c,
               kernels::internal::Products products =
                   kernels::internal::Products::kChosen) {
  const std::size_t min_work = kernels::kParallelMinWork;
  switch (variant) {
    case Variant::kNN:
      kernels::internal::GemmNNAt(lanes, m, k, n, a.data(), b.data(),
                                  c->data(), min_work, products);
      return;
    case Variant::kTN:
      kernels::internal::GemmTNAt(lanes, m, k, n, a.data(), b.data(),
                                  c->data(), min_work, products);
      return;
    case Variant::kNT:
      kernels::internal::GemmNTAt(lanes, m, k, n, a.data(), b.data(),
                                  c->data(), min_work, products);
      return;
  }
}

// One (variant, shape) case: the kernel, run into a copy of a C that
// already holds values (and signed zeros), must match the spec bit for
// bit.
::testing::AssertionResult MatchesSpec(Variant variant, std::size_t lanes,
                                       std::size_t m, std::size_t k,
                                       std::size_t n, Operands operands,
                                       Rng* rng) {
  const std::vector<float> a = operands(m * k, rng);
  const std::vector<float> b = operands(k * n, rng);
  std::vector<float> want = operands(m * n, rng);
  std::vector<float> got = want;
  SpecGemm(variant, m, k, n, a, b, &want);
  RunKernel(variant, lanes, m, k, n, a, b, &got);
  ::testing::AssertionResult same = SameBits(got, want);
  if (!same) {
    same << " (Gemm" << VariantName(variant) << " " << m << "x" << k << "x"
         << n << ", " << lanes << " lanes)";
  }
  return same;
}

// The kernel tests that run both lane widths; the 8-lane half skips on
// a CPU without AVX2.
class LaneWidthTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!kernels::internal::CanRunLanes(GetParam())) {
      GTEST_SKIP() << GetParam() << "-lane rows need AVX2";
    }
  }
};

// Every tile, every remainder and the threaded row split run: all small
// shapes exhaustively (n up to 40 covers the widest tile, 32 columns,
// and every remainder after it), then random ones up to 300×300×240,
// many above the threading threshold, at one and four threads. Then the
// same again with subnormal operands, whose B sends every product from
// kSubnormalScanMinRows rows on to the exact-product rows (fewer rows
// run the float rows on them).
TEST_P(LaneWidthTest, EveryVariantFollowsTheOrderContractBitForBit) {
  const std::size_t lanes = GetParam();
  for (const Operands operands : {SpreadOperands, SubnormalOperands}) {
    SCOPED_TRACE(operands == SpreadOperands ? "spread operands"
                                            : "subnormal operands");
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(threads);
      ThreadBudgetOverride budget(threads);
      Rng rng((operands == SpreadOperands ? 77 : 177) + threads);
      for (const Variant variant :
           {Variant::kNN, Variant::kTN, Variant::kNT}) {
        for (std::size_t m = 1; m <= 9; ++m) {
          for (std::size_t k = 1; k <= 13; ++k) {
            for (std::size_t n = 1; n <= 40; ++n) {
              ASSERT_TRUE(
                  MatchesSpec(variant, lanes, m, k, n, operands, &rng));
            }
          }
        }
        std::size_t split = 0;
        for (int trial = 0; trial < 40; ++trial) {
          const std::size_t m = rng.Index(300) + 1;
          const std::size_t k = rng.Index(300) + 1;
          const std::size_t n = rng.Index(240) + 1;
          if (m * k * n >= kernels::kParallelMinWork) ++split;
          ASSERT_TRUE(MatchesSpec(variant, lanes, m, k, n, operands, &rng));
        }
        EXPECT_GE(split, 12u) << "too few random shapes reach the row split";
      }
    }
  }
}

// SubnormalOperands' values, and in about one place in 16 ±inf, a NaN,
// or a normal from 2^100 up, whose product with another such overflows
// to inf.
std::vector<float> ExtremeOperands(std::size_t size, Rng* rng) {
  std::vector<float> values = SubnormalOperands(size, rng);
  for (float& v : values) {
    const std::size_t kind = rng->Index(64);
    if (kind == 0) {
      v = std::numeric_limits<float>::infinity();
    } else if (kind == 1) {
      v = -std::numeric_limits<float>::infinity();
    } else if (kind == 2) {
      v = std::numeric_limits<float>::quiet_NaN();
    } else if (kind < 7) {
      const float mantissa = static_cast<float>(rng->Uniform(0.5, 1.0));
      v = std::ldexp(rng->Index(2) == 0 ? mantissa : -mantissa,
                     100 + static_cast<int>(rng->Index(28)));
    }
  }
  return values;
}

// The same bits, except that a NaN need only meet a NaN: which of two
// NaN operands a sum or product returns follows the operands' order,
// which the compiler may swap in either form.
::testing::AssertionResult SameBitsOrBothNaN(const std::vector<float>& got,
                                             const std::vector<float>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (ToBits(got[i]) == ToBits(want[i]) ||
        (std::isnan(got[i]) && std::isnan(want[i]))) {
      continue;
    }
    return ::testing::AssertionFailure()
           << "element " << i << ": " << std::hex << ToBits(got[i]) << " vs "
           << ToBits(want[i]);
  }
  return ::testing::AssertionSuccess();
}

// The exact-product rows against the float rows on the same operands,
// every small shape of every variant: ±0, ±inf, NaNs, products that
// overflow, subnormal inputs, and products that round to a subnormal or
// to zero. The outputs must cover each of those results.
TEST_P(LaneWidthTest, ExactProductRowsMatchFloatRowsBitForBit) {
  using kernels::internal::Products;
  const std::size_t lanes = GetParam();
  Rng rng(91);
  std::size_t zeros = 0, subnormals = 0, infs = 0, nans = 0;
  for (const Variant variant : {Variant::kNN, Variant::kTN, Variant::kNT}) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t k = 1; k <= 13; ++k) {
        for (std::size_t n = 1; n <= 40; ++n) {
          const std::vector<float> a = ExtremeOperands(m * k, &rng);
          const std::vector<float> b = ExtremeOperands(k * n, &rng);
          std::vector<float> floats = SubnormalOperands(m * n, &rng);
          std::vector<float> exact = floats;
          RunKernel(variant, lanes, m, k, n, a, b, &floats, Products::kFloat);
          RunKernel(variant, lanes, m, k, n, a, b, &exact, Products::kExact);
          ASSERT_TRUE(SameBitsOrBothNaN(exact, floats))
              << " (Gemm" << VariantName(variant) << " " << m << "x" << k
              << "x" << n << ", " << lanes << " lanes)";
          for (const float v : exact) {
            zeros += v == 0.0f;
            subnormals += std::fpclassify(v) == FP_SUBNORMAL;
            infs += std::isinf(v);
            nans += std::isnan(v);
          }
        }
      }
    }
  }
  EXPECT_GT(zeros, 0u);
  EXPECT_GT(subnormals, 0u);
  EXPECT_GT(infs, 0u);
  EXPECT_GT(nans, 0u);
}

// The determinism contract: threaded kernels must be bit-identical to
// single-threaded, not merely close. The shape is above the threading
// threshold, with a row count that does not divide evenly into blocks.
TEST_P(LaneWidthTest, ThreadedGemmIsBitIdenticalToSingleThreaded) {
  const std::size_t lanes = GetParam();
  Rng rng(44);
  const std::size_t m = 197, k = 83, n = 131;
  ASSERT_GE(m * k * n, kernels::kParallelMinWork);
  const std::vector<float> a = RandomMatrix(m, k, &rng);
  const std::vector<float> bnn = RandomMatrix(k, n, &rng);
  const std::vector<float> btn = RandomMatrix(k, m, &rng);  // A for TN
  const std::vector<float> bnt = RandomMatrix(n, k, &rng);  // B for NT
  const auto run = [&](std::vector<float>* nn, std::vector<float>* tn,
                       std::vector<float>* nt) {
    kernels::internal::GemmNNAt(lanes, m, k, n, a.data(), bnn.data(),
                                nn->data());
    kernels::internal::GemmTNAt(lanes, m, k, n, btn.data(), bnn.data(),
                                tn->data());
    kernels::internal::GemmNTAt(lanes, m, k, n, a.data(), bnt.data(),
                                nt->data());
  };

  std::vector<float> single_nn(m * n, 0.0f), single_tn(m * n, 0.0f),
      single_nt(m * n, 0.0f);
  {
    ThreadBudgetOverride one_thread(1);
    run(&single_nn, &single_tn, &single_nt);
  }
  for (std::size_t threads : {2, 4, 7}) {
    ThreadBudgetOverride many(threads);
    std::vector<float> got_nn(m * n, 0.0f), got_tn(m * n, 0.0f),
        got_nt(m * n, 0.0f);
    run(&got_nn, &got_tn, &got_nt);
    EXPECT_EQ(got_nn, single_nn) << "GemmNN, " << threads << " threads";
    EXPECT_EQ(got_tn, single_tn) << "GemmTN, " << threads << " threads";
    EXPECT_EQ(got_nt, single_nt) << "GemmNT, " << threads << " threads";
  }
}

// ---- The libm kernels against libm ----

std::string Hex(std::uint32_t u) {
  std::ostringstream out;
  out << "0x" << std::hex << u;
  return out.str();
}

// The scalar forms the kernels must return the bits of: libm's routines,
// and the logistic and softplus as src/nn computed them one element at a
// time before the kernels, from std::exp and std::log1p.
float ScalarSigmoid(float x) {
  const float e = std::exp(x >= 0.0f ? -x : x);
  return (x >= 0.0f ? 1.0f : e) / (1.0f + e);
}

float ScalarSoftplus(float x) {
  const float l = std::log1p(std::exp(x > 0.0f ? -x : x));
  return x > 0.0f ? x + l : l;
}

// A kernel at a chosen lane width (expf's form: the one libm resolved),
// and the scalar function it stands for.
struct LibmCase {
  void (*kernel)(std::size_t lanes, const float* x, float* y, std::size_t n);
  float (*scalar)(float x);
};

const LibmCase kTanh = {kernels::internal::TanhAt,
                        [](float x) { return std::tanh(x); }};
const LibmCase kExp = {[](std::size_t lanes, const float* x, float* y,
                          std::size_t n) {
                         kernels::internal::ExpAt(lanes, x, y, n);
                       },
                       [](float x) { return std::exp(x); }};
const LibmCase kLog1p = {kernels::internal::Log1pAt,
                         [](float x) { return std::log1p(x); }};
const LibmCase kSigmoid = {[](std::size_t lanes, const float* x, float* y,
                              std::size_t n) {
                             kernels::internal::SigmoidAt(lanes, x, y, n);
                           },
                           ScalarSigmoid};
const LibmCase kSoftplus = {[](std::size_t lanes, const float* x, float* y,
                               std::size_t n) {
                              kernels::internal::SoftplusAt(lanes, x, y, n);
                            },
                            ScalarSoftplus};

// Inputs whose kernel bits differ from the scalar function's: the count,
// and the first such input's bits in *first.
std::uint64_t Mismatches(const LibmCase& f, std::size_t lanes,
                         const std::vector<float>& x, std::uint32_t* first) {
  std::vector<float> got(x.size());
  f.kernel(lanes, x.data(), got.data(), x.size());
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (ToBits(got[i]) != ToBits(f.scalar(x[i])) && differing++ == 0) {
      *first = ToBits(x[i]);
    }
  }
  return differing;
}

::testing::AssertionResult MatchesLibm(const LibmCase& f, std::size_t lanes,
                                       const std::vector<float>& x) {
  std::uint32_t first = 0;
  const std::uint64_t differing = Mismatches(f, lanes, x, &first);
  if (differing == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << differing << " of " << x.size() << " inputs differ; first x = "
         << Hex(first) << ": libm " << Hex(ToBits(f.scalar(FromBits(first))))
         << " (" << lanes << " lanes, expf form "
         << (kernels::ExpFma() ? "FMA" : "SSE2") << ")";
}

// Every 97th float (97 is odd, so every exponent, sign and low mantissa
// bit turns up); ±2^12 ulps around each threshold, both signs; the
// special values; every length up to two vectors and a tail, and in
// place.
void ExpectMatchesLibm(const LibmCase& f, std::size_t lanes,
                       const std::vector<float>& thresholds) {
  std::vector<float> x;
  x.reserve(std::size_t{1} << 16);
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 97) {
    x.push_back(FromBits(static_cast<std::uint32_t>(u)));
    if (x.size() == x.capacity()) {
      ASSERT_TRUE(MatchesLibm(f, lanes, x));
      x.clear();
    }
  }
  ASSERT_TRUE(MatchesLibm(f, lanes, x));

  x.clear();
  for (const float threshold : thresholds) {
    const std::int64_t center = ToBits(threshold) & 0x7fffffffu;
    for (std::int64_t u = std::max<std::int64_t>(0, center - 4096);
         u <= center + 4096; ++u) {
      const auto bits = static_cast<std::uint32_t>(u);
      x.push_back(FromBits(bits));
      x.push_back(FromBits(bits | 0x80000000u));
    }
  }
  EXPECT_TRUE(MatchesLibm(f, lanes, x));

  // ±0, ±inf, quiet and signalling NaNs of both signs, the extremes, and
  // the two floats where glibc's two expf forms differ.
  x.clear();
  for (const std::uint32_t bits :
       {0x00000000u, 0x7f800000u, 0x7fc00000u, 0x7fc12345u, 0x7fffffffu,
        0x7f800001u, 0x7fa00000u, 0x7fbfffffu, 0x7f7fffffu, 0x00800000u,
        0x00000001u, 0x007fffffu, 0x4202422fu, 0x427c65d9u}) {
    x.push_back(FromBits(bits));
    x.push_back(FromBits(bits | 0x80000000u));
  }
  EXPECT_TRUE(MatchesLibm(f, lanes, x));

  // Every length to 2W + 1, out of place and in place; nothing past n is
  // written.
  Rng rng(97);
  const float sentinel = 123.0f;
  for (std::size_t n = 0; n <= 2 * lanes + 1; ++n) {
    SCOPED_TRACE(n);
    std::vector<float> in(n + 1, sentinel);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<float>(rng.Normal(0.0, 2.0));
    }
    std::vector<float> want(n + 1, sentinel);
    for (std::size_t i = 0; i < n; ++i) want[i] = f.scalar(in[i]);
    std::vector<float> out(n + 1, sentinel);
    f.kernel(lanes, in.data(), out.data(), n);
    EXPECT_TRUE(SameBits(out, want));
    f.kernel(lanes, in.data(), in.data(), n);
    EXPECT_TRUE(SameBits(in, want));
  }
}

// All 2^32 floats, on four threads.
void ExpectMatchesLibmOnEveryFloat(const LibmCase& f, std::size_t lanes) {
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::vector<std::uint64_t> differing(kThreads, 0);
  std::vector<std::uint32_t> first(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> x(kChunk);
      for (std::uint64_t base = t * kChunk; base < (std::uint64_t{1} << 32);
           base += kThreads * kChunk) {
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          x[i] = FromBits(static_cast<std::uint32_t>(base + i));
        }
        std::uint32_t bad = 0;
        const std::uint64_t d = Mismatches(f, lanes, x, &bad);
        if (d != 0 && differing[t] == 0) first[t] = bad;
        differing[t] += d;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(differing[t], 0u)
        << "thread " << t << "'s first mismatch: x = " << Hex(first[t]);
  }
}

// The |x| at each threshold of expf: its |x| ≥ 88 branch, overflow,
// underflow to 0 and to 0x1p-149, and the two floats where its forms
// differ.
std::vector<float> ExpThresholds() {
  return {88.0f, 0x1.62e42ep6f, 0x1.9fe368p6f, 0x1.9d1d9ep6f,
          FromBits(0x4202422f), FromBits(0x427c65d9)};
}

// The |x| at each threshold of log1pf: its k = 0 range (0x3ed413d7 and
// 0xbe95f61f), 2^-29, 2^-54, −1 and 2^53 (0x5a000000); where 1 + x
// crosses the mantissa split 0x3504f7 in three binades, and x itself
// from 2^53 on; and where 1 + x or x is a power of two (|f| < 2^-20).
std::vector<float> Log1pThresholds() {
  return {FromBits(0x3ed413d7),
          FromBits(0x3e95f61f),
          FromBits(0x31000000),
          FromBits(0x24800000),
          1.0f,
          FromBits(0x5a000000),
          FromBits(0x3fb504f7) - 1.0f,
          FromBits(0x403504f7) - 1.0f,
          FromBits(0x3f3504f7) - 1.0f,
          FromBits(0x5a3504f7),
          3.0f,
          0.5f,
          0.75f,
          FromBits(0x5b000000)};
}

// The composites call expf at −|x|, so its thresholds; softplus also
// calls log1pf at e = expf(−|x|), so the |x| = −log e at which e crosses
// log1pf's thresholds in (0, 1]: 2^-54, 2^-29, 0x3ed413d7, and the
// mantissa split of 1 + e.
std::vector<float> SoftplusThresholds() {
  std::vector<float> t = ExpThresholds();
  for (const double e : {0x1p-54, 0x1p-29,
                         static_cast<double>(FromBits(0x3ed413d7)),
                         static_cast<double>(FromBits(0x3fb504f7)) - 1.0}) {
    t.push_back(static_cast<float>(-std::log(e)));
  }
  return t;
}

TEST_P(LaneWidthTest, TanhMatchesLibmBitForBit) {
  // |x| at each threshold: tanhf's 0, 2^-55, 1, 22 and inf; expm1f's on
  // a = ±2|x|, halved: |a| = 2^-25, ln2/2, 1.5 ln2 and 27 ln2, and the
  // a at which k = round(a/ln2) goes from −2 to −3, 22 to 23 and 56 to
  // 57.
  const double ln2 = std::log(2.0);
  ExpectMatchesLibm(kTanh, GetParam(),
                    {0.0f, FromBits(0x24000000), 1.0f, 22.0f,
                     std::numeric_limits<float>::infinity(),
                     FromBits(0x33000000) / 2.0f, FromBits(0x3eb17218) / 2.0f,
                     FromBits(0x3f851592) / 2.0f, FromBits(0x4195b844) / 2.0f,
                     static_cast<float>(2.5 * ln2 / 2.0),
                     static_cast<float>(22.5 * ln2 / 2.0),
                     static_cast<float>(56.5 * ln2 / 2.0)});
}

TEST_P(LaneWidthTest, ExpMatchLibmBitForBit) {
  ExpectMatchesLibm(kExp, GetParam(), ExpThresholds());
}

TEST_P(LaneWidthTest, Log1pMatchLibmBitForBit) {
  ExpectMatchesLibm(kLog1p, GetParam(), Log1pThresholds());
}

TEST_P(LaneWidthTest, SigmoidMatchLibmBitForBit) {
  ExpectMatchesLibm(kSigmoid, GetParam(), ExpThresholds());
}

TEST_P(LaneWidthTest, SoftplusMatchLibmBitForBit) {
  ExpectMatchesLibm(kSoftplus, GetParam(), SoftplusThresholds());
}

// The sweeps of all 2^32 floats. tools/ci_check.sh runs them in its
// -march=native leg, those that call expf under both of libm's forms.
TEST_P(LaneWidthTest, DISABLED_TanhMatchesLibmOnEveryFloat) {
  ExpectMatchesLibmOnEveryFloat(kTanh, GetParam());
}

TEST_P(LaneWidthTest, DISABLED_ExpMatchLibmOnEveryFloat) {
  ExpectMatchesLibmOnEveryFloat(kExp, GetParam());
}

TEST_P(LaneWidthTest, DISABLED_Log1pMatchLibmOnEveryFloat) {
  ExpectMatchesLibmOnEveryFloat(kLog1p, GetParam());
}

TEST_P(LaneWidthTest, DISABLED_SigmoidMatchLibmOnEveryFloat) {
  ExpectMatchesLibmOnEveryFloat(kSigmoid, GetParam());
}

TEST_P(LaneWidthTest, DISABLED_SoftplusMatchLibmOnEveryFloat) {
  ExpectMatchesLibmOnEveryFloat(kSoftplus, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, LaneWidthTest, ::testing::Values(4, 8),
                         [](const auto& info) {
                           return "Lanes" + std::to_string(info.param);
                         });

// The public GEMMs scan B from kSubnormalScanMinRows rows on: a B that
// holds one subnormal sends a 4-row product, and any wider one, to the
// exact-product rows, which the counter counts once per call; the same B
// at 1 to 3 rows runs the float rows unscanned, and a clean B never
// moves the counter. NT takes the exact rows only below k = 4, so at
// k = 6 its subnormal B never moves the counter either. Every call
// matches the order contract.
TEST(KernelsTest, SubnormalBRoutesFromFourRows) {
  ASSERT_EQ(kernels::kSubnormalScanMinRows, 4u);
  const obs::Counter* const routed =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_subnormal_calls_total");
  Rng rng(5);
  const std::size_t n = 10;
  for (const auto& [variant, k] :
       {std::pair<Variant, std::size_t>{Variant::kNN, 6},
        {Variant::kTN, 6},
        {Variant::kNT, 3},
        {Variant::kNT, 6}}) {
    const bool exact_pays = variant != Variant::kNT || k < 4;
    const std::vector<float> clean = SpreadOperands(k * n, &rng);
    std::vector<float> dirty = clean;
    dirty[rng.Index(k * n)] = Subnormal(&rng);
    for (std::size_t m = 1; m <= 8; ++m) {
      for (const bool subnormal : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "Gemm" << VariantName(variant) << " " << m << "x" << k
                     << "x" << n << (subnormal ? ", subnormal B" : ""));
        const std::vector<float>& b = subnormal ? dirty : clean;
        const std::vector<float> a = SpreadOperands(m * k, &rng);
        std::vector<float> want = SpreadOperands(m * n, &rng);
        std::vector<float> got = want;
        SpecGemm(variant, m, k, n, a, b, &want);
        const std::uint64_t before = routed->Value();
        switch (variant) {
          case Variant::kNN:
            GemmNN(m, k, n, a.data(), b.data(), got.data());
            break;
          case Variant::kTN:
            GemmTN(m, k, n, a.data(), b.data(), got.data());
            break;
          case Variant::kNT:
            GemmNT(m, k, n, a.data(), b.data(), got.data());
            break;
        }
        EXPECT_EQ(routed->Value() - before,
                  subnormal && m >= 4 && exact_pays ? 1u : 0u);
        EXPECT_TRUE(SameBits(got, want));
      }
    }
  }
}

// Dispatch runs the widest width this CPU has and the expf form libm
// resolved, the same for every call, and publishes both in the registry.
TEST(KernelsTest, DispatchRunsTheWidestLanesAndPublishesThem) {
  const std::size_t lanes = kernels::GemmLanes();
  EXPECT_EQ(lanes, kernels::internal::CanRunLanes(8) ? 8u : 4u);
  EXPECT_TRUE(kernels::internal::CanRunLanes(4));
  const bool fma = kernels::ExpFma();
  EXPECT_TRUE(kernels::internal::CanRunLanes(lanes, fma));
  const float one = 1.0f;
  float c = 0.0f;
  GemmNN(1, 1, 1, &one, &one, &c);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("poisonrec_gemm_lanes")->Value(),
            static_cast<double>(lanes));
  EXPECT_EQ(registry.GetGauge("poisonrec_expf_fma")->Value(),
            fma ? 1.0 : 0.0);
  EXPECT_EQ(kernels::GemmLanes(), lanes);
  EXPECT_EQ(kernels::ExpFma(), fma);
}

// The form is libm's own: std::exp returns the chosen form's bits at
// 0x4202422f, where the forms differ. Where GLIBC_TUNABLES masks FMA from
// glibc's ifunc (tests/CMakeLists.txt runs the libm cases so) it is the
// SSE2 form, so that run cannot check the FMA form a second time; with
// no tunables it is the FMA form exactly on a CPU with FMA and AVX2, as
// glibc 2.36 picks.
TEST(KernelsTest, ExpFormFollowsLibm) {
  volatile float probe = FromBits(0x4202422f);
  EXPECT_EQ(ToBits(std::exp(probe)),
            kernels::ExpFma() ? 0x56fc9f1cu : 0x56fc9f1bu);
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables == nullptr) {
    EXPECT_EQ(kernels::ExpFma(), kernels::internal::CanRunLanes(4, true));
  } else if (std::string(tunables).find("glibc.cpu.hwcaps=-FMA") !=
             std::string::npos) {
    EXPECT_FALSE(kernels::ExpFma())
        << "GLIBC_TUNABLES=" << tunables << " left libm on __expf_fma";
  }
}

TEST(KernelsTest, MatMulForwardAndBackwardUseKernelsCorrectly) {
  // End-to-end through the tensor op: gradients must match the
  // numerical gradient, which pins both backward kernel mappings
  // (dA = dC·Bᵀ via GemmNT, dB = Aᵀ·dC via GemmTN).
  Rng rng(55);
  Tensor a = Tensor::Rand(4, 6, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
  Tensor b = Tensor::Rand(6, 5, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
  Tensor loss = Sum(MatMul(a, b));
  loss.Backward();

  const std::vector<float> da_num = NumericalGradient(
      [&b](const Tensor& x) { return Sum(MatMul(x, b)).item(); }, a);
  const std::vector<float> db_num = NumericalGradient(
      [&a](const Tensor& x) { return Sum(MatMul(a, x)).item(); }, b);
  for (std::size_t i = 0; i < da_num.size(); ++i) {
    EXPECT_NEAR(a.grad()[i], da_num[i], 5e-2f) << "dA element " << i;
  }
  for (std::size_t i = 0; i < db_num.size(); ++i) {
    EXPECT_NEAR(b.grad()[i], db_num[i], 5e-2f) << "dB element " << i;
  }
}

TEST(KernelsTest, SetNumThreadsRoundTripsAndZeroMeansHardware) {
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3u);
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1u);  // resolved, never 0
}

TEST(NoGradScopeTest, LeavesNoGraphNodes) {
  Rng rng(66);
  Tensor a = Tensor::Rand(3, 4, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
  Tensor b = Tensor::Rand(4, 2, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
  Tensor out;
  {
    NoGradScope no_grad;
    out = Sigmoid(MatMul(a, b));
  }
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(out.impl()->backward_fn));
  EXPECT_TRUE(out.impl()->grad.empty());

  // Outside the scope the same expression records the tape again.
  Tensor tracked = Sigmoid(MatMul(a, b));
  EXPECT_TRUE(tracked.requires_grad());
  EXPECT_FALSE(tracked.impl()->parents.empty());
}

TEST(NoGradScopeTest, NestsAndRestoresCorrectly) {
  EXPECT_TRUE(GradMode::Enabled());
  {
    NoGradScope outer;
    EXPECT_FALSE(GradMode::Enabled());
    {
      NoGradScope inner;
      EXPECT_FALSE(GradMode::Enabled());
    }
    EXPECT_FALSE(GradMode::Enabled());  // inner exit must not re-enable
  }
  EXPECT_TRUE(GradMode::Enabled());
}

}  // namespace
}  // namespace poisonrec::nn
