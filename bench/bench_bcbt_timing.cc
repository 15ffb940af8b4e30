// §IV-B timing study: seconds per PoisonRec training step, Plain vs BCBT,
// as the item-set size grows from 3,000 to 30,000. The paper reports that
// Plain degrades linearly in |I| (1.93s -> 15.69s) while BCBT stays nearly
// flat (1.41s -> 2.33s) thanks to O(log|I|) sampling; the reproduction
// target is that shape, not the absolute seconds (which depend on |e|, N,
// T and the machine).
//
// The step here is the stacked rollout of M episodes and Algorithm 1's
// update (core::PpoUpdate, K epochs) on synthetic rewards — the
// policy-side work the optimization targets; environment evaluation cost
// is identical across action spaces and is excluded.
#include <benchmark/benchmark.h>

#include "core/poisonrec.h"
#include "util/random.h"

namespace poisonrec::bench {
namespace {

constexpr std::size_t kAttackers = 8;
constexpr std::size_t kTrajectoryLength = 8;
constexpr std::size_t kTargets = 8;

// One policy-side training step (Algorithm 1 minus the black-box
// queries): the stacked rollout of M episodes, as TrainStep samples them,
// synthetic RecNum rewards, and Algorithm 1's update.
double TrainingStep(const core::PoisonRecConfig& config,
                    const core::Policy& policy, nn::Adam* optimizer,
                    std::size_t step, Rng* rng) {
  std::vector<Rng> rngs;
  for (std::size_t m = 0; m < config.samples_per_step; ++m) {
    rngs.emplace_back(DeriveStreamSeed(config.seed, step, m));
  }
  std::vector<std::vector<core::SampledTrajectory>> sampled =
      policy.SampleEpisodesBatched(rngs.size(), kTrajectoryLength, &rngs);
  std::vector<core::Episode> episodes(sampled.size());
  for (std::size_t m = 0; m < episodes.size(); ++m) {
    episodes[m].trajectories = std::move(sampled[m]);
    episodes[m].reward = rng->Uniform(0.0, 100.0);
  }
  return core::PpoUpdate(config, policy, optimizer, episodes,
                         /*pool=*/nullptr, rng)
      .loss;
}

void BM_TrainingStep(benchmark::State& state) {
  const std::size_t num_original = static_cast<std::size_t>(state.range(0));
  core::PoisonRecConfig config;
  config.samples_per_step = 2;  // M
  config.batch_size = 2;        // B
  config.update_epochs = 3;     // K
  config.policy.embedding_dim = 16;
  config.policy.action_space =
      static_cast<core::ActionSpaceKind>(state.range(1));
  config.policy.seed = 11;
  std::vector<data::ItemId> originals(num_original);
  for (std::size_t i = 0; i < num_original; ++i) originals[i] = i;
  std::vector<data::ItemId> targets(kTargets);
  for (std::size_t i = 0; i < kTargets; ++i) targets[i] = num_original + i;
  const core::Policy policy(kAttackers, num_original + kTargets, originals,
                            targets, config.policy);
  nn::Adam optimizer(policy.Parameters(), config.learning_rate);
  Rng rng(7);
  std::size_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TrainingStep(config, policy, &optimizer, ++step, &rng));
  }
  state.SetLabel(core::ActionSpaceKindName(config.policy.action_space));
}

}  // namespace
}  // namespace poisonrec::bench

BENCHMARK(poisonrec::bench::BM_TrainingStep)
    ->ArgsProduct({{3000, 10000, 30000},
                   {static_cast<int>(
                        poisonrec::core::ActionSpaceKind::kPlain),
                    static_cast<int>(
                        poisonrec::core::ActionSpaceKind::kBcbtPopular)}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
