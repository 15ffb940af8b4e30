// Telemetry overhead harness: the obs subsystem (trace spans around every
// TrainStep phase, sharded metric counters in the GEMM kernels, and the
// per-step structured event stream) is meant to stay on in production
// campaigns, so its cost must be a small fraction of the step itself.
// Trains two identically-seeded attackers in lockstep — telemetry fully
// off vs tracing enabled + event log attached — and compares each step's
// wall-clock with its twin's. Acceptance (gated: nonzero exit on breach):
// the geometric mean of the on/off step ratios under 3%. Twin steps must
// report the same mean reward, loss and policy entropy (the entropy tells
// apart runs whose rewards are all zero), and both attackers of every run
// the same best RecNum, confirming telemetry is observe-only (also
// gated).
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench/common.h"
#include "core/ppo.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace poisonrec::bench {
namespace {

constexpr double kMaxOverheadPct = 3.0;
// Host noise moves a single step pair's ratio by about 12% (one standard
// deviation, measured on a shared 4-core VM under ASan); averaging 100
// log-ratios brings the gate's own noise to about 1.2%, so an overhead
// near zero passes and one of 10% fails.
constexpr std::size_t kStepPairs = 100;

int Run() {
  BenchConfig config = LoadBenchConfig();
  const std::string ranker =
      config.rankers.empty() ? "ItemPop" : config.rankers.front();
  const std::string events_path =
      (std::filesystem::temp_directory_path() / "poisonrec_obs_overhead.jsonl")
          .string();
  std::printf(
      "== Telemetry overhead: obs on vs off (%s on Steam, scale=%.3g) ==\n\n",
      ranker.c_str(), config.scale);

  // One environment serves both attackers: queries only read it. Each run
  // pairs fresh attackers for config.training_steps steps, alternating
  // which one steps first, until kStepPairs pairs are timed. Twin steps
  // run back to back, so a slow spell on the host mostly hits both and
  // cancels in their ratio. The first run is a warm-up (thread pool
  // spawn, metric registration) and is not timed.
  if (config.training_steps == 0) {
    std::printf("FAIL: POISONREC_STEPS must be positive\n");
    return 1;
  }
  const auto environment =
      MakeEnvironment(config, data::DatasetPreset::kSteam, ranker);
  const core::PoisonRecConfig pr = MakePoisonRecConfig(
      config, core::ActionSpaceKind::kBcbtPopular, config.seed ^ 0x0b5u);
  double log_ratio_sum = 0.0;
  double seconds[2] = {0.0, 0.0};  // off, on
  std::size_t pairs = 0;
  std::size_t stepped = 0;
  double best_recnum[2] = {0.0, 0.0};
  bool identical = true;
  for (bool warm_up = true; pairs < kStepPairs; warm_up = false) {
    core::PoisonRecAttacker off(environment.get(), pr);
    core::PoisonRecAttacker on(environment.get(), pr);
    obs::EventLog event_log;
    if (!event_log.Open(events_path)) {
      std::printf("failed to open %s; instrumented run has no event log\n",
                  events_path.c_str());
    }
    on.SetEventLog(&event_log);
    for (std::size_t s = 0; s < config.training_steps && pairs < kStepPairs;
         ++s) {
      const bool on_first = stepped++ % 2 == 1;
      core::TrainStepStats twin[2];  // off, on
      for (const bool instrumented : {on_first, !on_first}) {
        obs::SetTracingEnabled(instrumented);
        twin[instrumented] = (instrumented ? on : off).TrainStep();
        obs::SetTracingEnabled(false);
      }
      identical = identical && twin[0].mean_reward == twin[1].mean_reward &&
                  twin[0].loss == twin[1].loss &&
                  twin[0].entropy == twin[1].entropy;
      if (warm_up) continue;
      log_ratio_sum += std::log(twin[1].seconds / twin[0].seconds);
      seconds[0] += twin[0].seconds;
      seconds[1] += twin[1].seconds;
      ++pairs;
    }
    obs::ClearTrace();
    best_recnum[0] = off.best_episode().reward;
    best_recnum[1] = on.best_episode().reward;
    identical = identical && best_recnum[0] == best_recnum[1];
  }
  std::remove(events_path.c_str());

  const double overhead_pct =
      (std::exp(log_ratio_sum / static_cast<double>(pairs)) - 1.0) * 100.0;

  PrintTableHeader({"mode", "pairs", "mean_s", "total_s", "RecNum"});
  char buffer[32];
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"mode", "step_pairs", "mean_step_seconds", "total_seconds",
       "best_recnum", "overhead_pct"});
  const char* names[] = {"telemetry_off", "telemetry_on"};
  for (int i = 0; i < 2; ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.6f",
                  seconds[i] / static_cast<double>(pairs));
    const std::string mean_s = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.4f", seconds[i]);
    const std::string total_s = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.2f", i == 0 ? 0.0 : overhead_pct);
    PrintTableRow({names[i], std::to_string(pairs), mean_s, total_s,
                   FormatCount(best_recnum[i])});
    rows.push_back({names[i], std::to_string(pairs), mean_s, total_s,
                    FormatCount(best_recnum[i]), buffer});
  }
  std::printf(
      "\ntelemetry overhead: %.2f%% per step, geometric mean of %zu step "
      "pairs (%s identical results)\n",
      overhead_pct, pairs, identical ? "with" : "WITHOUT");
  WriteJsonOutput(config, "obs_overhead.json", rows);

  if (!identical) {
    std::printf("FAIL: telemetry changed the training results\n");
    return 1;
  }
  if (overhead_pct > kMaxOverheadPct) {
    std::printf("FAIL: telemetry overhead %.2f%% exceeds the %.1f%% budget\n",
                overhead_pct, kMaxOverheadPct);
    return 1;
  }
  std::printf("telemetry overhead within the %.1f%% budget\n",
              kMaxOverheadPct);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Run(); }
