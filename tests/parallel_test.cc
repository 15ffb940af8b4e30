// ParallelFor tests + the determinism property of parallel reward
// evaluation in the PPO trainer.
#include "util/parallel.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ppo.h"
#include "data/synthetic.h"
#include "nn/kernels.h"
#include "rec/registry.h"

namespace poisonrec {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(100, 4, [&visits](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, 4, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(5, 1, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> total{0};
  ParallelFor(3, 16, [&total](std::size_t i) {
    total += static_cast<int>(i);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelForTest, ResultMatchesSequential) {
  std::vector<double> parallel_out(200);
  std::vector<double> sequential_out(200);
  auto work = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 1000; ++k) {
      acc += static_cast<double>((i * 31 + k) % 97);
    }
    return acc;
  };
  ParallelFor(200, 8, [&](std::size_t i) { parallel_out[i] = work(i); });
  for (std::size_t i = 0; i < 200; ++i) sequential_out[i] = work(i);
  EXPECT_EQ(parallel_out, sequential_out);
}

TEST(ParallelForTest, WorkerExceptionRethrowsOnCallingThread) {
  EXPECT_THROW(
      ParallelFor(64, 4,
                  [](std::size_t i) {
                    if (i == 17) throw std::runtime_error("worker boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, WorkerExceptionPreservesMessage) {
  try {
    ParallelFor(8, 3, [](std::size_t i) {
      if (i == 5) throw std::runtime_error("index five failed");
    });
    FAIL() << "ParallelFor should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index five failed");
  }
}

TEST(ParallelForTest, SingleThreadedExceptionAlsoPropagates) {
  EXPECT_THROW(ParallelFor(4, 1,
                           [](std::size_t i) {
                             if (i == 2) throw std::runtime_error("seq boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, UsableAfterWorkerException) {
  // A throw must not wedge or leak threads: the next call still works.
  try {
    ParallelFor(32, 4, [](std::size_t) {
      throw std::runtime_error("every worker throws");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  ParallelFor(32, 4, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, PoolPersistsAcrossCalls) {
  // The pool is spawn-once: helper threads stick around after a call
  // instead of being joined, so later calls reuse them.
  ParallelFor(64, 4, [](std::size_t) {});
  const std::size_t after_first = internal::PoolThreadCount();
  EXPECT_GE(after_first, 3u);  // caller + >=3 helpers for 4-way execution
  ParallelFor(64, 4, [](std::size_t) {});
  EXPECT_EQ(internal::PoolThreadCount(), after_first);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  std::vector<std::atomic<int>> visits(6 * 8);
  ParallelFor(6, 3, [&visits](std::size_t outer) {
    ParallelFor(8, 4, [&visits, outer](std::size_t inner) {
      ++visits[outer * 8 + inner];
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, InParallelWorkerFlag) {
  EXPECT_FALSE(InParallelWorker());
  std::atomic<int> inside_sightings{0};
  ParallelFor(32, 4, [&inside_sightings](std::size_t) {
    if (InParallelWorker()) ++inside_sightings;
  });
  // Every index executes inside the parallel region — on a helper or on
  // the participating caller — and the flag must reset once the region
  // ends.
  EXPECT_EQ(inside_sightings.load(), 32);
  EXPECT_FALSE(InParallelWorker());
}

// Every ranker's reward queries, run concurrently on 4 threads with
// 4-thread kernels, must give bit-identical training to the sequential
// single-threaded run.
TEST(ParallelRewards, TrainingIsIdenticalToSequential) {
  struct KernelThreads {
    ~KernelThreads() { nn::SetNumThreads(0); }
  } restore;
  const auto train = [](const std::string& ranker, bool parallel) {
    data::SyntheticConfig cfg;
    cfg.num_users = 100;
    cfg.num_items = 80;
    cfg.num_interactions = 1000;
    cfg.seed = 3;
    env::EnvironmentConfig env_cfg;
    env_cfg.num_attackers = 6;
    env_cfg.trajectory_length = 6;
    env_cfg.num_target_items = 3;
    env_cfg.num_candidate_originals = 20;
    env_cfg.seed = 11;
    rec::FitConfig fit;
    fit.embedding_dim = 8;
    fit.epochs = 2;
    nn::SetNumThreads(parallel ? 4 : 1);
    env::AttackEnvironment env(data::GenerateSynthetic(cfg),
                               rec::MakeRecommender(ranker, fit).value(),
                               env_cfg);
    core::PoisonRecConfig attacker_cfg;
    attacker_cfg.samples_per_step = 6;
    attacker_cfg.batch_size = 6;
    attacker_cfg.update_epochs = 2;
    attacker_cfg.policy.embedding_dim = 8;
    attacker_cfg.seed = 5;
    attacker_cfg.parallel_rewards = parallel;
    attacker_cfg.num_threads = parallel ? 4 : 1;
    core::PoisonRecAttacker attacker(&env, attacker_cfg);
    return attacker.Train(3);
  };
  for (const std::string& ranker : rec::ExtendedRecommenderNames()) {
    const auto sequential = train(ranker, /*parallel=*/false);
    const auto parallel = train(ranker, /*parallel=*/true);
    ASSERT_EQ(sequential.size(), parallel.size()) << ranker;
    for (std::size_t step = 0; step < sequential.size(); ++step) {
      const core::TrainStepStats& a = sequential[step];
      const core::TrainStepStats& b = parallel[step];
      EXPECT_EQ(a.mean_reward, b.mean_reward) << ranker << " step " << step;
      EXPECT_EQ(a.max_reward, b.max_reward) << ranker << " step " << step;
      EXPECT_EQ(a.min_reward, b.min_reward) << ranker << " step " << step;
      EXPECT_EQ(a.loss, b.loss) << ranker << " step " << step;
      EXPECT_EQ(a.pre_clip_grad_norm, b.pre_clip_grad_norm)
          << ranker << " step " << step;
    }
  }
}

std::unique_ptr<env::AttackEnvironment> MakeSamplingEnv() {
  data::SyntheticConfig cfg;
  cfg.num_users = 100;
  cfg.num_items = 80;
  cfg.num_interactions = 1000;
  cfg.seed = 3;
  env::EnvironmentConfig env_cfg;
  env_cfg.num_attackers = 6;
  env_cfg.trajectory_length = 6;
  env_cfg.num_target_items = 3;
  env_cfg.num_candidate_originals = 20;
  env_cfg.seed = 11;
  return std::make_unique<env::AttackEnvironment>(
      data::GenerateSynthetic(cfg), rec::MakeRecommender("ItemPop").value(),
      env_cfg);
}

// Per-phase timing satellite: the breakdown must be populated and not
// (detectably) exceed the step total.
TEST(ParallelSampling, TrainStepReportsPhaseTimings) {
  auto env = MakeSamplingEnv();
  core::PoisonRecConfig cfg;
  cfg.samples_per_step = 4;
  cfg.batch_size = 4;
  cfg.update_epochs = 1;
  cfg.policy.embedding_dim = 8;
  cfg.seed = 7;
  core::PoisonRecAttacker attacker(env.get(), cfg);
  const core::TrainStepStats stats = attacker.TrainStep();
  EXPECT_GE(stats.sample_seconds, 0.0);
  EXPECT_GE(stats.query_seconds, 0.0);
  EXPECT_GE(stats.update_seconds, 0.0);
  EXPECT_GT(stats.sample_seconds + stats.query_seconds + stats.update_seconds,
            0.0);
  EXPECT_LE(stats.sample_seconds + stats.query_seconds + stats.update_seconds,
            stats.seconds + 1e-6);
}

}  // namespace
}  // namespace poisonrec
