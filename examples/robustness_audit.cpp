// Using the attack framework defensively: a robustness audit. Given one
// interaction log, train the same fixed-budget PoisonRec attacker against
// every ranker and rank the algorithms by how much target exposure the
// attacker can buy — the number a platform owner needs when choosing a
// model. (The paper's Table III read column-wise.)
//
// Part two flips the question: how much does a *degraded* attack channel
// protect the platform? The same attacker is retrained under increasingly
// hostile conditions (query failures, dropped clicks, shadow bans) and the
// remaining damage is reported per severity level.
//
// Build: cmake --build build && ./build/examples/robustness_audit
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/poisonrec.h"
#include "env/fault.h"

using namespace poisonrec;

int main() {
  data::SyntheticConfig data_config =
      data::PresetConfig(data::DatasetPreset::kPhone, /*scale=*/0.05, 31);
  data::Dataset log = data::GenerateSynthetic(data_config);
  std::printf(
      "robustness audit on synthetic Phone (%zu users, %zu items, %zu "
      "events)\n",
      log.num_users(), log.num_items(), log.num_interactions());
  std::printf("attacker budget: 12 accounts x 12 clicks, 8 target items\n\n");

  struct Row {
    std::string ranker;
    double baseline;
    double poisoned;
  };
  std::vector<Row> rows;
  for (const std::string& name : rec::AllRecommenderNames()) {
    rec::FitConfig fit;
    fit.embedding_dim = 16;
    env::EnvironmentConfig env_config;
    env_config.num_attackers = 12;
    env_config.trajectory_length = 12;
    env_config.num_target_items = 8;
    env_config.num_candidate_originals = 60;
    env_config.max_eval_users = 150;
    env_config.seed = 4;
    env::AttackEnvironment system(
        log, rec::MakeRecommender(name, fit).value(), env_config);

    core::PoisonRecConfig config;
    config.samples_per_step = 6;
    config.batch_size = 6;
    config.policy.embedding_dim = 16;
    core::PoisonRecAttacker attacker(&system, config);
    attacker.Train(8);
    rows.push_back({name, system.BaselineRecNum(),
                    system.Evaluate(attacker.BestAttack())});
    std::printf("audited %s...\n", name.c_str());
  }

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return (a.poisoned - a.baseline) < (b.poisoned - b.baseline);
  });
  std::printf("\n%-14s %10s %10s %10s   (most robust first)\n", "Ranker",
              "baseline", "poisoned", "damage");
  std::printf("---------------------------------------------------\n");
  for (const Row& row : rows) {
    std::printf("%-14s %10.0f %10.0f %10.0f\n", row.ranker.c_str(),
                row.baseline, row.poisoned, row.poisoned - row.baseline);
  }

  // Part two: damage that survives an unreliable attack channel. Severity
  // scales query failures, click drops, and shadow bans together; the
  // attacker retries transient errors and imputes what it never observes.
  std::printf("\nattack-channel degradation sweep (ItemPop target)\n");
  std::printf("%-9s %9s %9s %9s   %s\n", "severity", "failures", "drops",
              "bans", "damage (clean re-eval of learned best attack)");
  std::printf("---------------------------------------------------\n");
  for (const double severity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    rec::FitConfig fit;
    fit.embedding_dim = 16;
    env::EnvironmentConfig env_config;
    env_config.num_attackers = 12;
    env_config.trajectory_length = 12;
    env_config.num_target_items = 8;
    env_config.num_candidate_originals = 60;
    env_config.max_eval_users = 150;
    env_config.seed = 4;
    env::AttackEnvironment system(
        log, rec::MakeRecommender("ItemPop", fit).value(), env_config);

    env::FaultProfile profile;
    profile.query_failure_rate = 0.3 * severity;
    profile.injection_drop_rate = 0.2 * severity;
    profile.shadow_ban_rate = 0.1 * severity;
    profile.seed = 99;
    env::FaultyEnvironment faulty(&system, profile);

    core::PoisonRecConfig config;
    config.samples_per_step = 6;
    config.batch_size = 6;
    config.policy.embedding_dim = 16;
    core::PoisonRecAttacker attacker(&system, config);
    attacker.AttachPlatform(&faulty);
    attacker.Train(8);
    const double damage =
        system.Evaluate(attacker.BestAttack()) - system.BaselineRecNum();
    std::printf("%-9.2f %9.2f %9.2f %9.2f   %.0f\n", severity,
                profile.query_failure_rate, profile.injection_drop_rate,
                profile.shadow_ban_rate, damage);
  }
  return 0;
}
