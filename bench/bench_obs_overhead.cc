// Overhead harness for the two observers meant to stay on in production
// campaigns: telemetry (trace spans around every TrainStep phase, sharded
// metric counters in the GEMM kernels, and the per-step structured event
// stream) and the stability guardrails (util/guard.h sweeps over rewards,
// logits, loss, gradients, parameters and Adam moments). Each must cost a
// small fraction of the step itself. Trains three identically-seeded
// attackers in lockstep — everything off; tracing enabled + event log
// attached; guard on with thresholds no step reaches (telemetry off) —
// and compares each observed step's wall-clock with its off twin's.
// Acceptance (gated: nonzero exit on breach): the geometric mean of the
// step ratios under 3% for telemetry and under 5% for the guard. Twin
// steps must report the same mean reward, loss and policy entropy (the
// entropy tells apart runs whose rewards are all zero), and all three
// attackers of every run the same best RecNum, confirming both observers
// are observe-only (also gated).
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench/common.h"
#include "core/ppo.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace poisonrec::bench {
namespace {

// The lockstep attackers; kOff is the twin every other mode is timed
// against.
enum Mode : std::size_t { kOff, kTelemetry, kGuard, kNumModes };
constexpr const char* kModeNames[kNumModes] = {"off", "telemetry_on",
                                               "guard_on"};
constexpr double kMaxOverheadPct[kNumModes] = {0.0, 3.0, 5.0};
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
      "== Observer overhead: telemetry and guard on vs off (%s on Steam, "
      "scale=%.3g) ==\n\n",
      ranker.c_str(), config.scale);

  // One environment serves every attacker: queries only read it. Each run
  // steps fresh attackers for config.training_steps steps, rotating which
  // one steps first, until kStepPairs steps of each are timed. Lockstep
  // steps run back to back, so a slow spell on the host mostly hits all
  // three and cancels in their ratios. The first run is a warm-up (thread
  // pool spawn, metric registration) and is not timed.
  if (config.training_steps == 0) {
    std::printf("FAIL: POISONREC_STEPS must be positive\n");
    return 1;
  }
  const auto environment =
      MakeEnvironment(config, data::DatasetPreset::kSteam, ranker);
  const core::PoisonRecConfig pr = MakePoisonRecConfig(
      config, core::ActionSpaceKind::kBcbtPopular, config.seed ^ 0x0b5u);
  core::PoisonRecConfig guarded_pr = pr;
  guarded_pr.guard.enabled = true;
  // Generous thresholds: measure the sweeps, not rollback handling.
  guarded_pr.guard.grad_norm_threshold = 1e12;
  guarded_pr.guard.entropy_floor = 0.0;
  guarded_pr.guard.approx_kl_threshold = 1e12;
  double log_ratio_sum[kNumModes] = {};
  double seconds[kNumModes] = {};
  double best_recnum[kNumModes] = {};
  std::size_t pairs = 0;
  std::size_t stepped = 0;
  bool identical = true;
  for (bool warm_up = true; pairs < kStepPairs; warm_up = false) {
    core::PoisonRecAttacker off(environment.get(), pr);
    core::PoisonRecAttacker telemetry(environment.get(), pr);
    core::PoisonRecAttacker guarded(environment.get(), guarded_pr);
    core::PoisonRecAttacker* const attackers[kNumModes] = {&off, &telemetry,
                                                           &guarded};
    obs::EventLog event_log;
    if (!event_log.Open(events_path)) {
      std::printf("failed to open %s; instrumented run has no event log\n",
                  events_path.c_str());
    }
    telemetry.SetEventLog(&event_log);
    for (std::size_t s = 0; s < config.training_steps && pairs < kStepPairs;
         ++s) {
      const std::size_t first = stepped++ % kNumModes;
      core::TrainStepStats twin[kNumModes];
      for (std::size_t k = 0; k < kNumModes; ++k) {
        const std::size_t mode = (first + k) % kNumModes;
        obs::SetTracingEnabled(mode == kTelemetry);
        twin[mode] = attackers[mode]->TrainStep();
        obs::SetTracingEnabled(false);
      }
      for (std::size_t mode = kTelemetry; mode < kNumModes; ++mode) {
        identical = identical &&
                    twin[mode].mean_reward == twin[kOff].mean_reward &&
                    twin[mode].loss == twin[kOff].loss &&
                    twin[mode].entropy == twin[kOff].entropy;
      }
      if (warm_up) continue;
      for (std::size_t mode = kOff; mode < kNumModes; ++mode) {
        log_ratio_sum[mode] +=
            std::log(twin[mode].seconds / twin[kOff].seconds);
        seconds[mode] += twin[mode].seconds;
      }
      ++pairs;
    }
    obs::ClearTrace();
    for (std::size_t mode = kOff; mode < kNumModes; ++mode) {
      best_recnum[mode] = attackers[mode]->best_episode().reward;
      identical = identical && best_recnum[mode] == best_recnum[kOff];
    }
  }
  std::remove(events_path.c_str());

  double overhead_pct[kNumModes];
  for (std::size_t mode = kOff; mode < kNumModes; ++mode) {
    overhead_pct[mode] =
        (std::exp(log_ratio_sum[mode] / static_cast<double>(pairs)) - 1.0) *
        100.0;
  }

  PrintTableHeader({"mode", "pairs", "mean_s", "total_s", "RecNum",
                    "overhead"});
  char buffer[32];
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"mode", "step_pairs", "mean_step_seconds", "total_seconds",
       "best_recnum", "overhead_pct"});
  for (std::size_t mode = kOff; mode < kNumModes; ++mode) {
    std::snprintf(buffer, sizeof(buffer), "%.6f",
                  seconds[mode] / static_cast<double>(pairs));
    const std::string mean_s = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.4f", seconds[mode]);
    const std::string total_s = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.2f", overhead_pct[mode]);
    const std::vector<std::string> row = {kModeNames[mode],
                                          std::to_string(pairs),
                                          mean_s,
                                          total_s,
                                          FormatCount(best_recnum[mode]),
                                          buffer};
    PrintTableRow(row);
    rows.push_back(row);
  }
  std::printf(
      "\noverhead per step, geometric mean of %zu step pairs (%s identical "
      "results): telemetry %.2f%%, guard %.2f%%\n",
      pairs, identical ? "with" : "WITHOUT", overhead_pct[kTelemetry],
      overhead_pct[kGuard]);
  WriteJsonOutput(config, "obs_overhead.json", rows);

  if (!identical) {
    std::printf("FAIL: telemetry or the guard changed the training results\n");
    return 1;
  }
  int status = 0;
  for (std::size_t mode = kTelemetry; mode < kNumModes; ++mode) {
    if (overhead_pct[mode] > kMaxOverheadPct[mode]) {
      std::printf("FAIL: %s overhead %.2f%% exceeds the %.1f%% budget\n",
                  kModeNames[mode], overhead_pct[mode], kMaxOverheadPct[mode]);
      status = 1;
    }
  }
  if (status == 0) {
    std::printf("telemetry within the %.1f%% budget, guard within %.1f%%\n",
                kMaxOverheadPct[kTelemetry], kMaxOverheadPct[kGuard]);
  }
  return status;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Run(); }
