// GEMM kernel microbenchmark: the seed scalar loops (the MatMul the
// repo shipped with, and its transposed forms) versus the register-tiled
// kernels of nn/kernels.h at each lane width this CPU runs (4, and 8
// with AVX2), single-threaded and threaded, over the matrix shapes the
// system actually runs:
//   - the policy's LSTM gate products and DNN head, the batched PPO
//     recompute, the AutoRec encoder and the canonical 256x256x256
//     acceptance shape (GemmNN, sized from the bench config);
//   - the products campbench's workloads issue, in all three variants:
//     NeuMF's 63-row training products and 100-row scoring product at
//     |e|=16, the attacker's 1600-row (M·N = 8×200) LSTM and head
//     products, and GRU4Rec's 1-row cell products;
//   - a size ladder per variant (the attacker's k·n = 1024 products at
//     8 to 4096 rows), which places the threading threshold
//     kernels::kParallelMinWork. Its rungs are split across the threads
//     at every size, below the threshold too, so the ladder measures
//     what a split would cost wherever the constant sits;
//   - kernels::Tanh at each lane width against a std::tanh loop, on the
//     attacker's 1600×16 gate block and a GRU4Rec row of 16;
//   - kernels::Exp, Sigmoid, Softplus and log1pf at each lane width and
//     (for those that call expf) each of libm's expf forms this CPU
//     runs, against scalar loops of the libm calls, on the attacker's
//     gate blocks row by row and on one BCBT decision batch;
//   - a second ladder for kernels::kParallelRowsMinWork, split at every
//     size the same way: the LSTM gates' forward and backward and
//     SparseMatMul's forward, from 2^10 (2^12) to 2^20 elements of work;
//   - NeuMF's products with 0, 1, 8 and 80 subnormal entries in B, where
//     a dead hidden unit's weights would be, in the float rows and the
//     exact-product rows at each lane width ("sub<count>_<shape>" rows,
//     variant "<NN|TN|NT>/<float|exact>": seed_ms is the float rows'
//     time, so speedup_1t is the float rows' time over this form's).
//     NT's A has the zero columns ReLU's backward leaves where dead units
//     meet B's subnormals;
//   - the subnormal scan against the clean product at 1 to 8 rows, which
//     places kernels::kSubnormalScanMinRows ("scan_<B shape>" rows,
//     variant "scan/<m>": seed_ms is the scan's time over B, kernel_ms the
//     m-row float product's, speedup_1t the scan's share of it);
//   - on x86-64, the host's cost of the instructions behind the exact
//     form: a float multiply with a subnormal input, one with normal
//     inputs and a subnormal result, a float add with a subnormal input
//     (and of two), the float → double and double → float conversions of
//     subnormals, and a double multiply ("insn_*" rows: kernel_ms is the
//     time per instruction, the table prints it in ns).
//
// The workload products are split only from kParallelMinWork on, as
// the library runs them; below it their threaded columns read
// "unsplit", since a threaded call would run on one thread.
//
// Timing protocol: min over POISONREC_REPEATS repetitions (default 5)
// of the mean time across enough inner iterations to fill ~10ms, so
// small shapes are not measured at clock resolution. Emits a table and
// machine-readable JSON (results/kernel_timing.json), one row per shape,
// lane width and threaded count; kernel_ms is the one-thread time, and
// seed_ms the seed loop's (for the libm kernels, the scalar calls').
//
//   POISONREC_REPEATS  min-of-N repetitions (default 5; CI smoke uses 2)
//   POISONREC_THREADS  comma list of threaded counts (default 2,4)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bench/common.h"
#include "nn/kernels.h"
#include "nn/sparse.h"
#include "nn/tensor.h"
#include "util/random.h"
#include "util/timer.h"

namespace poisonrec::bench {
namespace {

enum class Variant { kNN, kTN, kNT };

struct Shape {
  std::string label;
  Variant variant;
  std::size_t m, k, n;
  bool ladder = false;  // split at every size
};

// The seed kernel: the naive i-k-j loop with the dense zero-skip branch
// that MatMul used before the kernel layer existed, and the same loop
// over a transposed operand for the two backward products. Baseline for
// the speedup column.
void SeedGemm(Variant variant, std::size_t m, std::size_t k, std::size_t n,
              const float* a, const float* b, float* c) {
  if (variant == Variant::kNT) {  // C[i][j] += dot(A row i, B row j)
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += a[i * k + kk] * b[j * k + kk];
        }
        c[i * n + j] += acc;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = variant == Variant::kTN ? a[kk * m + i] : a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

using nn::kernels::internal::Products;

// The tiled kernel at a given lane width, through the kernels'
// test-and-bench entry point (dispatch would always pick the widest),
// split across the thread budget from `min_work` multiply-accumulates on,
// in the products' form the library would choose or in a forced one.
void Kernel(Variant variant, std::size_t lanes, std::size_t min_work,
            std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c,
            Products products = Products::kChosen) {
  switch (variant) {
    case Variant::kNN:
      return nn::kernels::internal::GemmNNAt(lanes, m, k, n, a, b, c,
                                             min_work, products);
    case Variant::kTN:
      return nn::kernels::internal::GemmTNAt(lanes, m, k, n, a, b, c,
                                             min_work, products);
    case Variant::kNT:
      return nn::kernels::internal::GemmNTAt(lanes, m, k, n, a, b, c,
                                             min_work, products);
  }
}

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

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback
                      : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

// A comma list of counts, e.g. "2,4".
std::vector<std::size_t> EnvSizes(const char* name,
                                  std::vector<std::size_t> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::vector<std::size_t> sizes;
  for (char* end = nullptr;; v = end + 1) {
    sizes.push_back(static_cast<std::size_t>(std::strtoull(v, &end, 10)));
    if (*end != ',') break;
  }
  return sizes;
}

// Min-of-N of the per-call time of fn(), with enough inner iterations
// per sample to amortize timer resolution.
template <typename Fn>
double MinSeconds(std::size_t repeats, const Fn& fn) {
  // Calibrate the iteration count off one warm-up call.
  Timer calibrate;
  fn();
  const double once = std::max(calibrate.ElapsedSeconds(), 1e-9);
  const std::size_t iters =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.01 / once));
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    Timer timer;
    for (std::size_t it = 0; it < iters; ++it) fn();
    const double per_call = timer.ElapsedSeconds() / static_cast<double>(iters);
    if (r == 0 || per_call < best) best = per_call;
  }
  return best;
}

std::string Fmt(double v, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// The scalar loops the libm kernels replaced: one libm call (two for
// softplus) and the logistic's division per element.
float ScalarSigmoid(float x) {
  const float e = std::exp(x >= 0.0f ? -x : x);
  return (x >= 0.0f ? 1.0f : e) / (1.0f + e);
}

float ScalarSoftplus(float x) {
  const float l = std::log1p(std::exp(x > 0.0f ? -x : x));
  return x > 0.0f ? x + l : l;
}

// A subnormal of either sign, its mantissa uniform over [1, 2^23).
float Subnormal(Rng* rng) {
  std::uint32_t bits = static_cast<std::uint32_t>(rng->Index(0x7fffff)) + 1;
  if (rng->Index(2) == 1) bits |= 0x80000000u;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

#if defined(__x86_64__)
// Nanoseconds per instruction of op(x, y), from 8 independent copies per
// iteration: the empty asm hides x's value, so the compiler cannot hoist
// op out of the loop, and consumes each result.
template <typename In, typename Op>
double NsPerInstruction(std::size_t repeats, In x, In y, const Op& op) {
  constexpr int kIterations = 1024;
  constexpr int kCopies = 8;
  const double seconds = MinSeconds(repeats, [&] {
    for (int it = 0; it < kIterations; ++it) {
#pragma GCC unroll 8
      for (int c = 0; c < kCopies; ++c) {
        In xc = x;
        asm volatile("" : "+x"(xc));
        const auto out = op(xc, y);
        asm volatile("" : : "x"(out));
      }
    }
  });
  return seconds * 1e9 / (kIterations * kCopies);
}
#endif

// A libm kernel at a lane width and expf form, and its scalar loop.
struct LibmKernel {
  const char* name;
  bool calls_expf;
  void (*at)(std::size_t lanes, const float* x, float* y, std::size_t n,
             bool fma);
  float (*scalar)(float x);
};

int Main() {
  const BenchConfig config = LoadBenchConfig();
  const std::size_t repeats = EnvSize("POISONREC_REPEATS", 5);
  const std::vector<std::size_t> thread_counts =
      EnvSizes("POISONREC_THREADS", {2, 4});
  std::vector<std::size_t> lane_widths;
  for (const std::size_t lanes : {4, 8}) {
    if (nn::kernels::internal::CanRunLanes(lanes)) lane_widths.push_back(lanes);
  }
  std::printf("dispatch: %zu-lane rows, expf's %s form\n",
              nn::kernels::GemmLanes(), nn::kernels::ExpFma() ? "FMA" : "SSE2");

  const std::size_t dim = config.embedding_dim;
  std::vector<Shape> shapes = {
      // LSTM cell gate products as the attacker issues them: the N
      // attacker rows of one episode (SampleEpisode) and the M·N-row
      // stack that TrainStep samples and recomputes.
      {"lstm_batch", Variant::kNN, config.num_attackers, dim, 4 * dim},
      {"lstm_batch_step", Variant::kNN,
       config.samples_per_step * config.num_attackers, dim, 4 * dim},
      // DNN head: hidden → item logits over the candidate set.
      {"dnn_head", Variant::kNN, config.num_attackers, dim,
       2 * config.candidate_originals},
      // PPO recompute: all M·T decisions of a step in one product.
      {"ppo_recompute", Variant::kNN,
       config.samples_per_step * config.trajectory_length, dim, 4 * dim},
      // AutoRec-style encoder on a mid-size catalog.
      {"autorec_encode", Variant::kNN, 500, dim, 500},
      // Canonical acceptance shape.
      {"gemm_256", Variant::kNN, 256, 256, 256},
      // NeuMF retrain (neumf-seq): 63-row batches through the MLP tower
      // (32 → 16 → 8) and the 24-wide fuse layer, and the 100-candidate
      // scoring forward.
      {"neumf_mlp1", Variant::kNN, 63, 32, 16},
      {"neumf_mlp1_dx", Variant::kNT, 63, 16, 32},
      {"neumf_mlp1_dw", Variant::kTN, 32, 63, 16},
      {"neumf_mlp2", Variant::kNN, 63, 16, 8},
      {"neumf_mlp2_dx", Variant::kNT, 63, 8, 16},
      {"neumf_fuse_dx", Variant::kNT, 63, 1, 24},
      {"neumf_fuse_dw", Variant::kTN, 24, 63, 1},
      {"neumf_score", Variant::kNN, 100, 32, 16},
      // Attacker update at N=200 (itempop-n200): the 1600-row LSTM
      // pre-activation and its dX, and the head's dX.
      {"attacker_lstm", Variant::kNN, 1600, 16, 64},
      {"attacker_lstm_dx", Variant::kNT, 1600, 64, 16},
      {"attacker_head_dx", Variant::kNT, 1600, 16, 16},
      // GRU4Rec retrain (gru4rec-par): one session row through the cell.
      {"gru4rec_cell", Variant::kNN, 1, 16, 48},
      {"gru4rec_cell_dx", Variant::kNT, 1, 48, 16},
  };
  // The threading ladder: work m·1024 from 2^13 to 2^22, always split.
  for (std::size_t m = 8; m <= 4096; m *= 2) {
    const std::string rows = std::to_string(m);
    shapes.push_back({"ladder_nn_" + rows, Variant::kNN, m, 16, 64, true});
    shapes.push_back({"ladder_tn_" + rows, Variant::kTN, 64, m, 16, true});
    shapes.push_back({"ladder_nt_" + rows, Variant::kNT, m, 64, 16, true});
  }

  PrintTableHeader({"shape", "var", "mkn", "lanes", "threads", "seed_us",
                    "kernel_us", "kern_mt_us", "gflops_1t", "speedup_1t",
                    "speedup_mt"});
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"shape", "variant", "m", "k", "n", "lanes", "threads",
                  "seed_ms", "kernel_ms", "kernel_mt_ms", "gflops_1t",
                  "gflops_mt", "speedup_1t", "speedup_mt"});

  Rng rng(config.seed);
  for (const Shape& s : shapes) {
    // A and B hold m·k and k·n floats in every variant; only the layout
    // the kernel reads them in differs.
    std::vector<float> a(s.m * s.k);
    std::vector<float> b(s.k * s.n);
    std::vector<float> c(s.m * s.n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

    const auto time = [&](const auto& gemm) {
      return MinSeconds(repeats, [&] {
        gemm(s.m, s.k, s.n, a.data(), b.data(), c.data());
      });
    };
    const double seed_s =
        time([&](std::size_t m, std::size_t k, std::size_t n, const float* pa,
                 const float* pb, float* pc) {
          SeedGemm(s.variant, m, k, n, pa, pb, pc);
        });
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const std::string mkn = std::to_string(s.m) + "x" + std::to_string(s.k) +
                            "x" + std::to_string(s.n);
    const std::size_t min_work = s.ladder ? 0 : nn::kernels::kParallelMinWork;
    const bool split = s.m * s.k * s.n >= min_work;
    for (const std::size_t lanes : lane_widths) {
      const auto tiled = [&](std::size_t m, std::size_t k, std::size_t n,
                             const float* pa, const float* pb, float* pc) {
        Kernel(s.variant, lanes, min_work, m, k, n, pa, pb, pc);
      };
      nn::SetNumThreads(1);
      const double one_s = time(tiled);
      for (const std::size_t threads : thread_counts) {
        // An unsplit product would run the threaded call on one thread:
        // its threaded columns say so instead of repeating one_s.
        double mt_s = one_s;
        if (split) {
          nn::SetNumThreads(threads);
          mt_s = time(tiled);
          nn::SetNumThreads(0);
        }
        const auto mt = [&](double v, const char* format) {
          return split ? Fmt(v, format) : std::string("unsplit");
        };
        PrintTableRow({s.label, VariantName(s.variant), mkn,
                       std::to_string(lanes), std::to_string(threads),
                       Fmt(seed_s * 1e6, "%.3f"), Fmt(one_s * 1e6, "%.3f"),
                       mt(mt_s * 1e6, "%.3f"),
                       Fmt(flops / one_s * 1e-9, "%.2f"),
                       Fmt(seed_s / one_s, "%.2f"),
                       mt(seed_s / mt_s, "%.2f")});
        rows.push_back(
            {s.label, VariantName(s.variant), std::to_string(s.m),
             std::to_string(s.k), std::to_string(s.n), std::to_string(lanes),
             std::to_string(threads), Fmt(seed_s * 1e3, "%.5f"),
             Fmt(one_s * 1e3, "%.5f"), mt(mt_s * 1e3, "%.5f"),
             Fmt(flops / one_s * 1e-9, "%.3f"), mt(flops / mt_s * 1e-9, "%.3f"),
             Fmt(seed_s / one_s, "%.3f"), mt(seed_s / mt_s, "%.3f")});
      }
    }
  }

  // tanh: kernels::Tanh at each lane width against a std::tanh loop
  // (seed_ms), one thread, on the attacker's 1600×16 gate block and one
  // GRU4Rec row of 16, from N(0, 0.3) and N(0, 1) inputs. Rows are
  // variant "tanh" with k = 1, so m·k·n counts elements.
  for (const auto& [label, m, n] :
       {std::tuple<const char*, std::size_t, std::size_t>{"tanh_lstm", 1600,
                                                          16},
        {"tanh_gru_row", 1, 16}}) {
    for (const double sd : {0.3, 1.0}) {
      std::vector<float> x(m * n);
      for (float& v : x) v = static_cast<float>(rng.Normal(0.0, sd));
      std::vector<float> y(m * n);
      const std::string shape = std::string(label) + "_sd" + Fmt(sd, "%.1f");
      const double seed_s = MinSeconds(repeats, [&] {
        for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
      });
      for (const std::size_t lanes : lane_widths) {
        const double one_s = MinSeconds(repeats, [&] {
          nn::kernels::internal::TanhAt(lanes, x.data(), y.data(), x.size());
        });
        const double ns = one_s * 1e9 / static_cast<double>(x.size());
        PrintTableRow({shape, "tanh", std::to_string(m) + "x1x" +
                                          std::to_string(n),
                       std::to_string(lanes), "1", Fmt(seed_s * 1e6, "%.3f"),
                       Fmt(one_s * 1e6, "%.3f"), "unsplit",
                       Fmt(ns, "%.2f") + "ns/el", Fmt(seed_s / one_s, "%.2f"),
                       "unsplit"});
        rows.push_back({shape, "tanh", std::to_string(m), "1",
                        std::to_string(n), std::to_string(lanes), "1",
                        Fmt(seed_s * 1e3, "%.5f"), Fmt(one_s * 1e3, "%.5f"),
                        "unsplit", "-", "-", Fmt(seed_s / one_s, "%.3f"),
                        "unsplit"});
      }
    }
  }

  // The libm kernels, one thread, on uniform [−3, 3] inputs: the
  // attacker's gate blocks at N = 200 (M·N = 1600 rows) as LstmGatesRows
  // calls them, one call per row of 2·16 (i|f) and of 16 (o); one call
  // over a decision batch of 1600 (TreeDecisionLogProb's); and one
  // GRU4Rec step's 9 logits (a positive and 8 negatives, LogSoftmaxRow's
  // exp). Rows are variant "<routine>/<expf form>" with k = 1, so m·k·n
  // counts elements.
  const LibmKernel libm_kernels[] = {
      {"exp", true, nn::kernels::internal::ExpAt,
       [](float x) { return std::exp(x); }},
      {"log1p", false,
       [](std::size_t lanes, const float* x, float* y, std::size_t n, bool) {
         nn::kernels::internal::Log1pAt(lanes, x, y, n);
       },
       [](float x) { return std::log1p(x); }},
      {"sigmoid", true, nn::kernels::internal::SigmoidAt, ScalarSigmoid},
      {"softplus", true, nn::kernels::internal::SoftplusAt, ScalarSoftplus},
  };
  for (const auto& [label, m, n] :
       {std::tuple<const char*, std::size_t, std::size_t>{"lstm_if", 1600, 32},
        {"lstm_o", 1600, 16},
        {"decision_batch", 1, 1600},
        {"gru_logits", 1, 9}}) {
    std::vector<float> x(m * n);
    for (float& v : x) v = static_cast<float>(rng.Uniform(-3.0, 3.0));
    std::vector<float> y(m * n);
    for (const LibmKernel& f : libm_kernels) {
      const double seed_s = MinSeconds(repeats, [&] {
        for (std::size_t i = 0; i < x.size(); ++i) y[i] = f.scalar(x[i]);
      });
      for (const std::size_t lanes : lane_widths) {
        for (const bool fma : {false, true}) {
          if (fma && !(f.calls_expf &&
                       nn::kernels::internal::CanRunLanes(lanes, true))) {
            continue;
          }
          const double one_s = MinSeconds(repeats, [&] {
            for (std::size_t r = 0; r < m; ++r) {
              f.at(lanes, x.data() + r * n, y.data() + r * n, n, fma);
            }
          });
          const std::string variant =
              std::string(f.name) +
              (f.calls_expf ? (fma ? "/fma" : "/sse2") : "");
          const double ns = one_s * 1e9 / static_cast<double>(x.size());
          PrintTableRow({label, variant,
                         std::to_string(m) + "x1x" + std::to_string(n),
                         std::to_string(lanes), "1",
                         Fmt(seed_s * 1e6, "%.3f"), Fmt(one_s * 1e6, "%.3f"),
                         "unsplit", Fmt(ns, "%.2f") + "ns/el",
                         Fmt(seed_s / one_s, "%.2f"), "unsplit"});
          rows.push_back({label, variant, std::to_string(m), "1",
                          std::to_string(n), std::to_string(lanes), "1",
                          Fmt(seed_s * 1e3, "%.5f"), Fmt(one_s * 1e3, "%.5f"),
                          "unsplit", "-", "-", Fmt(seed_s / one_s, "%.3f"),
                          "unsplit"});
        }
      }
    }
  }

  // The ParallelRows ladder, which places kernels::kParallelRowsMinWork:
  // the LSTM gates' forward (no tape) and backward at h = 16, m rows
  // (m×4×16: each call's work is 64m elements, the c and h backward
  // nodes' 16m), and SparseMatMul's forward over 16 entries per row into
  // 16 columns (m×16×16, work 256m). Split at every size (min_work 0),
  // at the dispatched width; the seed and speedup columns do not apply.
  const std::string lanes_now = std::to_string(nn::kernels::GemmLanes());
  const auto rung = [&](const std::string& label, const char* variant,
                        std::size_t m, std::size_t k, std::size_t n,
                        const auto& fn) {
    nn::SetNumThreads(1);
    const double one_s = MinSeconds(repeats, fn);
    for (const std::size_t threads : thread_counts) {
      nn::SetNumThreads(threads);
      const double mt_s = MinSeconds(repeats, fn);
      nn::SetNumThreads(0);
      const std::string mkn = std::to_string(m) + "x" + std::to_string(k) +
                              "x" + std::to_string(n);
      PrintTableRow({label, variant, mkn, lanes_now, std::to_string(threads),
                     "-", Fmt(one_s * 1e6, "%.3f"), Fmt(mt_s * 1e6, "%.3f"),
                     "-", "-", "-"});
      rows.push_back({label, variant, std::to_string(m), std::to_string(k),
                      std::to_string(n), lanes_now, std::to_string(threads),
                      "-", Fmt(one_s * 1e3, "%.5f"), Fmt(mt_s * 1e3, "%.5f"),
                      "-", "-", "-", "-"});
    }
  };
  constexpr std::size_t kHidden = 16;
  for (std::size_t m = 16; m <= 16384; m *= 2) {
    const std::string rows_label = std::to_string(m);
    nn::Tensor preact = nn::Tensor::Randn(m, 4 * kHidden, 1.0f, &rng, true);
    nn::Tensor c_prev = nn::Tensor::Randn(m, kHidden, 1.0f, &rng, true);
    rung("ladder_lstm_fwd_" + rows_label, "LSTMF", m, 4, kHidden, [&] {
      nn::NoGradScope no_grad;
      nn::internal::LstmGatesAt(preact, c_prev, 0);
    });
    nn::Tensor loss =
        nn::Sum(nn::internal::LstmGatesAt(preact, c_prev, 0).h);
    rung("ladder_lstm_bwd_" + rows_label, "LSTMB", m, 4, kHidden,
         [&] { loss.Backward(); });
  }
  for (std::size_t m = 16; m <= 4096; m *= 2) {
    constexpr std::size_t kPerRow = 16;
    std::vector<nn::CsrMatrix::Triplet> triplets;
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t e = 0; e < kPerRow; ++e) {
        triplets.push_back({r, (r * kPerRow + e * 7) % m,
                            static_cast<float>(rng.Uniform(-1.0, 1.0))});
      }
    }
    const nn::CsrMatrix a(m, m, std::move(triplets));
    const nn::Tensor x = nn::Tensor::Randn(m, kHidden, 1.0f, &rng);
    rung("ladder_spmm_" + std::to_string(m), "SPMM", m, kPerRow, kHidden,
         [&] {
           nn::NoGradScope no_grad;
           nn::internal::SparseMatMulAt(a, x, 0);
         });
  }

  // NeuMF's products with subnormal entries in B where a dead hidden
  // unit's weights would be: NN's and TN's B (k×n) fill column j by
  // column, NT's B (n×k) fills column kk by column, and in the two NT
  // products behind a ReLU the dead units' columns of A (dH) are zero.
  // One thread; both forms at each width, forced, on the same operands.
  struct SubnormalShape {
    const char* label;
    Variant variant;
    std::size_t m, k, n;
    bool relu_a;  // NT: A's columns that meet a subnormal B column are 0
  };
  for (const SubnormalShape& s : {
           SubnormalShape{"neumf_mlp1", Variant::kNN, 63, 32, 16, false},
           {"neumf_mlp2", Variant::kNN, 63, 16, 8, false},
           {"neumf_score", Variant::kNN, 100, 32, 16, false},
           {"neumf_mlp1_dx", Variant::kNT, 63, 16, 32, true},
           {"neumf_mlp2_dx", Variant::kNT, 63, 8, 16, true},
           {"neumf_fuse_dx", Variant::kNT, 63, 1, 24, false},
           {"neumf_mlp1_dw", Variant::kTN, 32, 63, 16, false}}) {
    for (const std::size_t count : {0, 1, 8, 80}) {
      std::vector<float> a(s.m * s.k);
      std::vector<float> b(s.k * s.n);
      for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      for (std::size_t p = 0; p < std::min(count, b.size()); ++p) {
        if (s.variant == Variant::kNT) {
          const std::size_t kk = p / s.n, j = p % s.n;
          b[j * s.k + kk] = Subnormal(&rng);
          if (s.relu_a) {
            for (std::size_t i = 0; i < s.m; ++i) a[i * s.k + kk] = 0.0f;
          }
        } else {
          b[(p % s.k) * s.n + p / s.k] = Subnormal(&rng);
        }
      }
      std::vector<float> c(s.m * s.n, 0.0f);
      const std::string label =
          "sub" + std::to_string(count) + "_" + s.label;
      const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
      for (const std::size_t lanes : lane_widths) {
        nn::SetNumThreads(1);
        const auto time = [&](Products products) {
          return MinSeconds(repeats, [&] {
            Kernel(s.variant, lanes, nn::kernels::kParallelMinWork, s.m, s.k,
                   s.n, a.data(), b.data(), c.data(), products);
          });
        };
        const double float_s = time(Products::kFloat);
        const double exact_s = time(Products::kExact);
        nn::SetNumThreads(0);
        for (const auto& [form, one_s] :
             {std::pair<const char*, double>{"float", float_s},
              {"exact", exact_s}}) {
          const std::string variant =
              std::string(VariantName(s.variant)) + "/" + form;
          PrintTableRow({label, variant,
                         std::to_string(s.m) + "x" + std::to_string(s.k) +
                             "x" + std::to_string(s.n),
                         std::to_string(lanes), "1",
                         Fmt(float_s * 1e6, "%.3f"), Fmt(one_s * 1e6, "%.3f"),
                         "unsplit", Fmt(flops / one_s * 1e-9, "%.2f"),
                         Fmt(float_s / one_s, "%.2f"), "unsplit"});
          rows.push_back({label, variant, std::to_string(s.m),
                          std::to_string(s.k), std::to_string(s.n),
                          std::to_string(lanes), "1",
                          Fmt(float_s * 1e3, "%.5f"), Fmt(one_s * 1e3, "%.5f"),
                          "unsplit", Fmt(flops / one_s * 1e-9, "%.3f"), "-",
                          Fmt(float_s / one_s, "%.3f"), "unsplit"});
        }
      }
    }
  }

  // The subnormal scan over a clean B against the m-row float product
  // that would pay for it, for GRU4Rec's cell (B 16×48), NeuMF's first
  // MLP layer (32×16) and the attacker's LSTM (16×64), all NN.
  for (const auto& [label, k, n] :
       {std::tuple<const char*, std::size_t, std::size_t>{"scan_gru4rec_cell",
                                                          16, 48},
        {"scan_neumf_mlp1", 32, 16},
        {"scan_attacker_lstm", 16, 64}}) {
    std::vector<float> b(k * n);
    for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    for (const std::size_t lanes : lane_widths) {
      nn::SetNumThreads(1);
      bool found = false;
      const double scan_s = MinSeconds(repeats, [&] {
        found |= nn::kernels::internal::HasSubnormalAt(lanes, b.data(),
                                                        b.size());
      });
      if (found) std::printf("scan: a clean B read as subnormal\n");
      for (const std::size_t m : {1, 2, 3, 4, 8}) {
        std::vector<float> a(m * k);
        for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        std::vector<float> c(m * n, 0.0f);
        const double one_s = MinSeconds(repeats, [&] {
          Kernel(Variant::kNN, lanes, nn::kernels::kParallelMinWork, m, k, n,
                 a.data(), b.data(), c.data(), Products::kFloat);
        });
        const std::string variant = "scan/" + std::to_string(m);
        PrintTableRow({label, variant,
                       std::to_string(m) + "x" + std::to_string(k) + "x" +
                           std::to_string(n),
                       std::to_string(lanes), "1", Fmt(scan_s * 1e6, "%.3f"),
                       Fmt(one_s * 1e6, "%.3f"), "unsplit", "-",
                       Fmt(scan_s / one_s, "%.3f"), "unsplit"});
        rows.push_back({label, variant, std::to_string(m), std::to_string(k),
                        std::to_string(n), std::to_string(lanes), "1",
                        Fmt(scan_s * 1e3, "%.6f"), Fmt(one_s * 1e3, "%.6f"),
                        "unsplit", "-", "-", Fmt(scan_s / one_s, "%.4f"),
                        "unsplit"});
      }
      nn::SetNumThreads(0);
    }
  }

#if defined(__x86_64__)
  // The host's cost per instruction, 4-lane SSE forms (the VEX forms
  // behave alike): each row's operands keep the class it names.
  {
    const __m128 sub = _mm_set1_ps(0x1.8p-130f);
    const __m128 one = _mm_set1_ps(1.0f);
    const __m128 big = _mm_set1_ps(0x1p30f);
    const __m128 tiny = _mm_set1_ps(0x1p-70f);
    const __m128 normal = _mm_set1_ps(1.5f);
    const __m128d tiny_d = _mm_set1_pd(0x1p-140);
    const __m128d normal_d = _mm_set1_pd(1.5);
    const auto mul = [](__m128 x, __m128 y) { return _mm_mul_ps(x, y); };
    const auto add = [](__m128 x, __m128 y) { return _mm_add_ps(x, y); };
    const auto to_d = [](__m128 x, __m128) { return _mm_cvtps_pd(x); };
    const auto to_f = [](__m128d x, __m128d) { return _mm_cvtpd_ps(x); };
    const auto mul_d = [](__m128d x, __m128d y) { return _mm_mul_pd(x, y); };
    const std::pair<const char*, double> costs[] = {
        {"insn_mulps_normal", NsPerInstruction(repeats, normal, normal, mul)},
        {"insn_mulps_subnormal_input",
         NsPerInstruction(repeats, sub, big, mul)},
        {"insn_mulps_subnormal_result",
         NsPerInstruction(repeats, tiny, tiny, mul)},
        {"insn_addps_subnormal_input",
         NsPerInstruction(repeats, sub, one, add)},
        {"insn_addps_subnormal_both", NsPerInstruction(repeats, sub, sub, add)},
        {"insn_cvtps2pd_subnormal", NsPerInstruction(repeats, sub, sub, to_d)},
        {"insn_cvtpd2ps_to_subnormal",
         NsPerInstruction(repeats, tiny_d, tiny_d, to_f)},
        {"insn_mulpd", NsPerInstruction(repeats, normal_d, normal_d, mul_d)},
    };
    for (const auto& [label, ns] : costs) {
      PrintTableRow({label, "insn", "1x1x1", "4", "1", "-",
                     Fmt(ns * 1e-3, "%.5f"), "unsplit",
                     Fmt(ns, "%.2f") + "ns/op", "-", "unsplit"});
      rows.push_back({label, "insn", "1", "1", "1", "4", "1", "-",
                      Fmt(ns * 1e-6, "%.8f"), "unsplit", "-", "-", "-",
                      "unsplit"});
    }
  }
#endif

  WriteCsvOutput(config, "kernel_timing.csv", rows);
  WriteJsonOutput(config, "kernel_timing.json", rows);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Main(); }
