// Workloads of the campaign-step benchmark and the code that sets one up
// and steps it: a synthetic Steam-preset log, a pretrained black-box
// ranker inside an env::AttackEnvironment, and a core::PoisonRecAttacker
// running Algorithm 1 steps (TrainStep) against it. Every seed of the
// campaign derives from the one workload seed.
#ifndef CAMPBENCH_CAMPAIGN_H_
#define CAMPBENCH_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ppo.h"
#include "env/environment.h"
#include "traced_recommender.h"

namespace poisonrec::campbench {

/// Steps per campaign: one warm-up step and three steady ones. The count
/// is fixed, so every run of a seed does the same work however fast the
/// program is; best_recnum is the best RecNum within these steps.
inline constexpr std::size_t kSteps = 4;

struct Workload {
  std::string name;
  /// Black-box ranker (rec::MakeRecommender name).
  std::string ranker;
  /// N: fake users, each clicking T = 20 items per episode.
  std::size_t num_attackers = 20;
  /// Sampling, reward-query and GEMM threads. With more than one, the M
  /// reward queries of a step also run concurrently.
  std::size_t num_threads = 1;
  /// Campaigns per run (at least 3). Each runs on its own log and seeds,
  /// so that a run's metrics do not hang on one dataset: how much work a
  /// step does depends on what the policy samples, and how much time
  /// NeuMF spends on subnormal floats differs from log to log.
  std::size_t campaigns = 3;
};

/// The benchmark's workloads, by name.
const std::vector<Workload>& Workloads();
/// nullptr when no workload has that name.
const Workload* FindWorkload(const std::string& name);

/// Set-up phases, in seconds.
struct SetupTimes {
  double data_s = 0.0;  // synthetic log
  double core_s = 0.0;  // PoisonRecAttacker
  double total_s = 0.0;  // both, and the AttackEnvironment with its Fit
};

/// One black-box system and the attacker running against it.
struct Campaign {
  std::unique_ptr<env::AttackEnvironment> env;
  std::unique_ptr<core::PoisonRecAttacker> attacker;
  /// Users RecNum counts over; a reward lies in [0, users * top_k].
  std::size_t eval_users = 0;
  SetupTimes times;
};

/// Builds campaign `index` of a run of `workload` with `seed`. With a
/// ledger the ranker is wrapped in a TracedRecommender recording into it.
/// The set-up phases are spans (recorded when tracing is enabled).
Campaign SetUp(const Workload& workload, std::uint64_t seed,
               std::size_t index, std::shared_ptr<RecLedger> ledger);

/// One TrainStep as measured from outside.
struct StepRecord {
  core::TrainStepStats stats;
  double wall_s = 0.0;
  /// Process CPU seconds, summed over all threads.
  double cpu_s = 0.0;
  /// GEMM work of the whole step.
  GemmCount gemm;
  /// Ranker calls of the step (zero without a ledger).
  RecTotals rec;
};

struct CampaignRun {
  std::vector<StepRecord> steps;
  /// Best RecNum of the campaign, and the attack that reached it.
  double best_recnum = 0.0;
  std::vector<env::Trajectory> best_attack;
};

/// Runs kSteps TrainSteps, each a "bench/step" span. With a ledger every
/// step records its ranker calls.
CampaignRun RunSteps(Campaign* campaign, const RecLedger* ledger);

/// Process CPU seconds, summed over all threads.
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMiB();

}  // namespace poisonrec::campbench

#endif  // CAMPBENCH_CAMPAIGN_H_
