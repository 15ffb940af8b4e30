#include "campaign.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <utility>

#include "data/synthetic.h"
#include "nn/kernels.h"
#include "obs/trace.h"
#include "rec/registry.h"
#include "util/logging.h"
#include "util/random.h"

namespace poisonrec::campbench {

namespace {

// Every seed of campaign c is DeriveStreamSeed(seed, c, <one of these>),
// a pure function of the workload seed.
enum SeedStream : std::uint64_t {
  kDataSeed = 1,
  kFitSeed,
  kEnvSeed,
  kAttackerSeed,
  kPolicySeed,
};

// The synthetic log's size relative to the paper's Steam dataset.
constexpr double kScale = 0.1;

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {.name = "neumf-seq",
       .ranker = "NeuMF",
       .num_attackers = 20,
       .num_threads = 1,
       .campaigns = 3},
      {.name = "itempop-n200",
       .ranker = "ItemPop",
       .num_attackers = 200,
       .num_threads = 1,
       .campaigns = 6},
      {.name = "gru4rec-par",
       .ranker = "GRU4Rec",
       .num_attackers = 20,
       .num_threads = 2,
       .campaigns = 3},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Campaign SetUp(const Workload& workload, std::uint64_t seed,
               std::size_t index, std::shared_ptr<RecLedger> ledger) {
  // GEMM threading covers the ranker's Fit as well as the steps.
  nn::SetNumThreads(workload.num_threads);
  // The spans are recorded only while tracing is enabled, which the
  // benchmark does for traced runs alone.
  obs::TraceSpan setup_span("bench/setup");
  Campaign campaign;

  obs::TraceSpan data_span("data/generate");
  const data::Dataset log = data::GenerateSynthetic(data::PresetConfig(
      data::DatasetPreset::kSteam, kScale,
      DeriveStreamSeed(seed, index, kDataSeed)));
  campaign.times.data_s = data_span.Stop();

  obs::TraceSpan env_span("env/setup");
  rec::FitConfig fit;
  fit.embedding_dim = 16;
  fit.epochs = 4;
  fit.update_epochs = 3;
  fit.seed = DeriveStreamSeed(seed, index, kFitSeed);
  auto ranker = rec::MakeRecommender(workload.ranker, fit);
  POISONREC_CHECK(ranker.ok()) << ranker.status();
  std::unique_ptr<rec::Recommender> black_box = std::move(ranker).value();
  if (ledger != nullptr) {
    black_box = std::make_unique<TracedRecommender>(std::move(black_box),
                                                    std::move(ledger));
  }
  env::EnvironmentConfig env_config;
  env_config.num_attackers = workload.num_attackers;
  env_config.trajectory_length = 20;
  env_config.num_target_items = 8;
  env_config.num_candidate_originals = 92;
  env_config.top_k = 10;
  env_config.max_eval_users = 200;
  env_config.seed = DeriveStreamSeed(seed, index, kEnvSeed);
  campaign.env = std::make_unique<env::AttackEnvironment>(
      log, std::move(black_box), env_config);
  env_span.Stop();

  std::size_t users_with_history = 0;
  for (data::UserId u = 0; u < log.num_users(); ++u) {
    if (!log.Sequence(u).empty()) ++users_with_history;
  }
  campaign.eval_users =
      std::min(users_with_history, env_config.max_eval_users);

  obs::TraceSpan core_span("core/init");
  core::PoisonRecConfig config;
  config.samples_per_step = 8;  // M
  config.batch_size = 8;        // B = M
  config.update_epochs = 3;     // K
  config.learning_rate = 2e-3f;
  config.clip_epsilon = 0.1f;
  config.parallel_rewards = workload.num_threads > 1;
  config.num_threads = workload.num_threads;
  config.policy.embedding_dim = 16;
  config.policy.action_space = core::ActionSpaceKind::kBcbtPopular;
  config.policy.seed = DeriveStreamSeed(seed, index, kPolicySeed);
  config.seed = DeriveStreamSeed(seed, index, kAttackerSeed);
  campaign.attacker =
      std::make_unique<core::PoisonRecAttacker>(campaign.env.get(), config);
  campaign.times.core_s = core_span.Stop();

  campaign.times.total_s = setup_span.Stop();
  return campaign;
}

CampaignRun RunSteps(Campaign* campaign, const RecLedger* ledger) {
  CampaignRun run;
  for (std::size_t step = 0; step < kSteps; ++step) {
    StepRecord record;
    const RecTotals rec_before = ledger ? ledger->Totals() : RecTotals{};
    const GemmCount gemm_before = ReadGemmCounters();
    const double cpu_before = ProcessCpuSeconds();
    obs::TraceSpan span("bench/step");
    record.stats = campaign->attacker->TrainStep();
    record.wall_s = span.Stop();
    record.cpu_s = ProcessCpuSeconds() - cpu_before;
    record.gemm = ReadGemmCounters() - gemm_before;
    if (ledger != nullptr) record.rec = ledger->Totals() - rec_before;
    // The share of clicks on target items sets how much a step samples:
    // a target click is about 4 BCBT decisions, an original one about 10.
    std::printf("  step %zu %7.4f s wall %7.4f s cpu  sample %.4f query %.4f "
                "update %.4f  target clicks %.3f  reward mean %.1f max %.0f\n",
                step, record.wall_s, record.cpu_s, record.stats.sample_seconds,
                record.stats.query_seconds, record.stats.update_seconds,
                record.stats.target_click_ratio, record.stats.mean_reward,
                record.stats.max_reward);
    run.steps.push_back(std::move(record));
  }
  run.best_recnum = run.steps.back().stats.best_reward_so_far;
  run.best_attack = campaign->attacker->BestAttack();
  return run;
}

double ProcessCpuSeconds() {
  timespec ts{};
  POISONREC_CHECK_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage usage{};
  POISONREC_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace poisonrec::campbench
