// Adaptive-defender sweep (beyond the paper; its stated future-work
// direction). The platform runs the detection ensemble in production:
// every `detection_interval` reward queries it audits the accumulated
// poison log and permanently bans the top-suspicion fake accounts. The
// sweep crosses defender aggressiveness (bans per sweep) with the
// attacker's replacement-account reserve and reports how much attack
// damage survives, how many accounts the campaign burned, and whether
// the campaign ran out of accounts entirely (kResourceExhausted abort).
// Expected: without a pool the fleet shrinks monotonically and RecNum
// collapses under an aggressive defender; a funded pool sustains most of
// the undefended damage at the price of burned accounts.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "core/ppo.h"
#include "defense/detector.h"
#include "env/defended.h"

namespace poisonrec::bench {
namespace {

void Run() {
  BenchConfig config = LoadBenchConfig();
  const std::string ranker =
      config.rankers.empty() ? "ItemPop" : config.rankers.front();
  std::printf(
      "== Defended attack: damage vs defender aggressiveness x pool size "
      "(%s on Steam, scale=%.3g) ==\n\n",
      ranker.c_str(), config.scale);

  // Undefended reference for the sustain ratio.
  double undefended = 0.0;
  {
    auto environment =
        MakeEnvironment(config, data::DatasetPreset::kSteam, ranker);
    core::PoisonRecAttacker attacker(
        environment.get(),
        MakePoisonRecConfig(config, core::ActionSpaceKind::kBcbtPopular,
                            config.seed ^ 0xdefu));
    attacker.Train(config.training_steps);
    undefended = environment->Evaluate(attacker.BestAttack());
  }
  std::printf("undefended RecNum %.0f\n\n", undefended);

  PrintTableHeader({"bans/sweep", "reserve", "RecNum", "sustain", "banned",
                    "pool left", "status"});
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"bans_per_sweep", "pool_reserve", "recnum", "sustain_ratio",
                  "banned_accounts", "pool_remaining", "status"});
  for (const std::size_t bans_per_sweep : {1u, 2u, 4u}) {
    for (const std::size_t reserve : {0u, 10u, 40u}) {
      BenchConfig cell = config;
      cell.num_attackers = config.num_attackers + reserve;
      auto environment =
          MakeEnvironment(cell, data::DatasetPreset::kSteam, ranker);

      env::DefenseProfile defense;  // clean channel; defense is the variable
      // One sweep per training step: even short CI-scale campaigns
      // exercise the ban machinery.
      defense.detection_interval = config.samples_per_step;
      defense.bans_per_sweep = bans_per_sweep;
      defense.seed = config.seed ^ 0x0fcu;
      env::DefendedEnvironment platform(
          environment.get(), defense::MakeDefaultEnsemble(), defense);

      core::PoisonRecConfig attacker_config = MakePoisonRecConfig(
          config, core::ActionSpaceKind::kBcbtPopular,
          config.seed ^ (bans_per_sweep * 131 + reserve));
      attacker_config.pool.reserve_accounts = reserve;
      core::PoisonRecAttacker attacker(environment.get(), attacker_config);
      attacker.AttachPlatform(&platform, &platform);
      const auto stats = attacker.Train(config.training_steps);

      // Re-score the learned best attack on the clean channel so the
      // number isolates what the attacker learned from what the defender
      // suppressed mid-training.
      const double rec_num = environment->Evaluate(attacker.BestAttack());
      const double sustain = undefended > 0.0 ? rec_num / undefended : 0.0;
      const std::size_t banned = platform.BannedAccounts().size();
      const std::size_t pool_left =
          stats.empty() ? reserve : stats.back().pool_remaining;
      const std::string status =
          attacker.campaign_status().ok() ? "ok" : "exhausted";
      PrintTableRow({std::to_string(bans_per_sweep), std::to_string(reserve),
                     FormatCount(rec_num), FormatCount(sustain),
                     std::to_string(banned), std::to_string(pool_left),
                     status});
      rows.push_back({std::to_string(bans_per_sweep), std::to_string(reserve),
                      FormatCount(rec_num), std::to_string(sustain),
                      std::to_string(banned), std::to_string(pool_left),
                      status});
    }
  }
  WriteCsvOutput(config, "defended_attack.csv", rows);
  WriteJsonOutput(config, "defended_attack.json", rows);
}

}  // namespace
}  // namespace poisonrec::bench

int main() {
  poisonrec::bench::Run();
  return 0;
}
