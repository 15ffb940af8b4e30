// Resilience sweep (beyond the paper): how much attack damage survives an
// unreliable channel. Sweeps the transient query-failure rate and the
// per-click injection drop rate independently on Steam (first ranker of
// POISONREC_RANKERS; ItemPop by default); the attacker retries transient
// errors and imputes unobserved rewards. For each cell the learned best
// attack is re-scored on the clean channel, so the number isolates what
// the attacker still *learned* from what the channel merely hid.
// Expected: flat-ish in the failure rate (retries recover most queries),
// graceful decay in the drop rate (the training signal itself degrades).
// Exits 1 when a failure rate above 0 forced no retry in any of its
// cells: such a run never exercised the retry path.
#include <cstdio>

#include "bench/common.h"
#include "core/ppo.h"
#include "env/fault.h"
#include "util/retry.h"

namespace poisonrec::bench {
namespace {

int Run() {
  BenchConfig config = LoadBenchConfig();
  const std::string ranker =
      config.rankers.empty() ? "ItemPop" : config.rankers.front();
  std::printf(
      "== Resilience: damage vs fault severity (%s on Steam, scale=%.3g) "
      "==\n\n",
      ranker.c_str(), config.scale);

  const SleepFn no_sleep = [](double) {};
  PrintTableHeader({"fail", "drop", "RecNum", "damage", "failed", "retries"});
  std::vector<std::vector<std::string>> csv;
  csv.push_back(
      {"failure_rate", "drop_rate", "recnum", "damage", "failed", "retries"});
  int exit_code = 0;
  for (const double failure_rate : {0.0, 0.2, 0.4}) {
    std::size_t rate_retries = 0;
    for (const double drop_rate : {0.0, 0.15, 0.3}) {
      auto environment =
          MakeEnvironment(config, data::DatasetPreset::kSteam, ranker);
      // Each cell draws its own fault and attacker streams.
      const std::uint64_t cell =
          static_cast<std::uint64_t>(failure_rate * 1000 + drop_rate * 10);

      env::FaultProfile profile;
      profile.query_failure_rate = failure_rate;
      profile.injection_drop_rate = drop_rate;
      profile.shadow_ban_rate = 0.05;
      profile.seed = config.seed ^ 0x0fau ^ cell;
      env::FaultyEnvironment faulty(environment.get(), profile);

      core::PoisonRecAttacker attacker(
          environment.get(),
          MakePoisonRecConfig(config, core::ActionSpaceKind::kBcbtPopular,
                              config.seed ^ cell));
      attacker.AttachPlatform(&faulty, nullptr, no_sleep);
      const auto stats = attacker.Train(config.training_steps);

      std::size_t failed = 0;
      std::size_t retries = 0;
      for (const auto& s : stats) {
        failed += s.failed_queries;
        retries += s.retries;
      }
      rate_retries += retries;
      const double rec_num = environment->Evaluate(attacker.BestAttack());
      const double damage = rec_num - environment->BaselineRecNum();
      PrintTableRow({FormatCount(failure_rate * 100) + "%",
                     FormatCount(drop_rate * 100) + "%", FormatCount(rec_num),
                     FormatCount(damage), std::to_string(failed),
                     std::to_string(retries)});
      csv.push_back({std::to_string(failure_rate), std::to_string(drop_rate),
                     FormatCount(rec_num), FormatCount(damage),
                     std::to_string(failed), std::to_string(retries)});
    }
    if (failure_rate > 0.0 && rate_retries == 0) {
      std::fprintf(stderr,
                   "fault resilience: no retries in any %.0f%% failure "
                   "cell; raise POISONREC_STEPS or POISONREC_SAMPLES\n",
                   failure_rate * 100);
      exit_code = 1;
    }
  }
  WriteCsvOutput(config, "fault_resilience.csv", csv);
  WriteJsonOutput(config, "fault_resilience.json", csv);
  return exit_code;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Run(); }
