// GEMM kernel microbenchmark: the seed scalar triple loop (the MatMul
// the repo shipped with) versus the cache-blocked kernels of
// nn/kernels.h, single-threaded and threaded, over the matrix shapes
// the system actually runs: the LSTM gate products and DNN head of the
// policy (src/nn/module.cc), the batched PPO recompute, the AutoRec
// encoder, plus the canonical 256x256x256 acceptance shape.
//
// Timing protocol: min over POISONREC_REPEATS repetitions (default 5)
// of the mean time across enough inner iterations to fill ~10ms, so
// small shapes are not measured at clock resolution. Emits a table and
// machine-readable JSON (results/kernel_timing.json).
//
//   POISONREC_REPEATS  min-of-N repetitions (default 5; CI smoke uses 2)
//   POISONREC_THREADS  threaded-kernel thread count (default 4)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "nn/kernels.h"
#include "util/random.h"
#include "util/timer.h"

namespace poisonrec::bench {
namespace {

struct Shape {
  std::string label;
  std::size_t m, k, n;
};

// The seed kernel: the naive i-k-j loop with the dense zero-skip branch
// that MatMul used before the kernel layer existed. Baseline for the
// speedup column.
void SeedGemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback
                      : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
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

int Main() {
  const BenchConfig config = LoadBenchConfig();
  const std::size_t repeats = EnvSize("POISONREC_REPEATS", 5);
  const std::size_t threads = EnvSize("POISONREC_THREADS", 4);

  const std::size_t dim = config.embedding_dim;
  const std::vector<Shape> shapes = {
      // LSTM cell gate products as the attacker issues them: the N
      // attacker rows of one episode (SampleEpisode) and the M·N-row
      // stack that TrainStep samples and recomputes.
      {"lstm_batch", config.num_attackers, dim, 4 * dim},
      {"lstm_batch_step",
       config.samples_per_step * config.num_attackers, dim, 4 * dim},
      // DNN head: hidden → item logits over the candidate set.
      {"dnn_head", config.num_attackers, dim, 2 * config.candidate_originals},
      // PPO recompute: all M·T decisions of a step in one product.
      {"ppo_recompute", config.samples_per_step * config.trajectory_length,
       dim, 4 * dim},
      // AutoRec-style encoder on a mid-size catalog.
      {"autorec_encode", 500, dim, 500},
      // Canonical acceptance shape.
      {"gemm_256", 256, 256, 256},
  };

  PrintTableHeader({"shape", "mkn", "seed_ms", "kernel_ms",
                    "kern_mt_ms", "speedup_1t", "speedup_mt"});
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"shape", "m", "k", "n", "threads", "seed_ms", "kernel_ms",
                  "kernel_mt_ms", "gflops_mt", "speedup_1t", "speedup_mt"});

  Rng rng(config.seed);
  for (const Shape& s : shapes) {
    std::vector<float> a(s.m * s.k);
    std::vector<float> b(s.k * s.n);
    std::vector<float> c(s.m * s.n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

    const double seed_s = MinSeconds(
        repeats, [&] { SeedGemm(s.m, s.k, s.n, a.data(), b.data(), c.data()); });
    nn::SetNumThreads(1);
    const double one_s = MinSeconds(repeats, [&] {
      nn::kernels::GemmNN(s.m, s.k, s.n, a.data(), b.data(), c.data());
    });
    nn::SetNumThreads(threads);
    const double mt_s = MinSeconds(repeats, [&] {
      nn::kernels::GemmNN(s.m, s.k, s.n, a.data(), b.data(), c.data());
    });
    nn::SetNumThreads(0);

    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const std::string mkn = std::to_string(s.m) + "x" + std::to_string(s.k) +
                            "x" + std::to_string(s.n);
    PrintTableRow({s.label, mkn, Fmt(seed_s * 1e3, "%.4f"),
                   Fmt(one_s * 1e3, "%.4f"), Fmt(mt_s * 1e3, "%.4f"),
                   Fmt(seed_s / one_s, "%.2f"), Fmt(seed_s / mt_s, "%.2f")});
    rows.push_back({s.label, std::to_string(s.m), std::to_string(s.k),
                    std::to_string(s.n), std::to_string(threads),
                    Fmt(seed_s * 1e3, "%.5f"), Fmt(one_s * 1e3, "%.5f"),
                    Fmt(mt_s * 1e3, "%.5f"), Fmt(flops / mt_s * 1e-9, "%.3f"),
                    Fmt(seed_s / one_s, "%.3f"), Fmt(seed_s / mt_s, "%.3f")});
  }

  WriteCsvOutput(config, "kernel_timing.csv", rows);
  WriteJsonOutput(config, "kernel_timing.json", rows);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Main(); }
