// Fleet orchestration harness: runs the same campaign sweep under the
// supervised orchestrator at increasing worker counts and reports
// wall-clock scaling plus the orchestration overhead (journal +
// supervision + per-step durable checkpoints) relative to the summed
// campaign runtimes. Also asserts the orchestrator's core determinism
// property: per-step committed rewards are bit-identical at every
// concurrency level.
//
// Output: results/fleet_scaling.{csv,json} with one row per worker
// count.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "orch/fleet.h"
#include "orch/journal.h"
#include "orch/lease.h"
#include "orch/spec.h"
#include "orch/status.h"

namespace poisonrec::bench {
namespace {

orch::FleetPlan MakePlan(const BenchConfig& config) {
  orch::FleetPlan plan;
  plan.name = "bench-fleet";
  const std::vector<std::string> presets = {"clean", "clean", "flaky",
                                            "flaky"};
  for (std::size_t i = 0; i < presets.size(); ++i) {
    orch::CampaignSpec spec;
    spec.id = "campaign" + std::to_string(i) + "-" + presets[i];
    spec.fault_preset = presets[i];
    spec.fault = *orch::FaultPresetProfile(presets[i]);
    spec.fault.seed = 1234 + i;
    spec.steps = config.training_steps;
    spec.samples_per_step = config.samples_per_step;
    spec.attackers = config.num_attackers;
    spec.trajectory_length = config.trajectory_length;
    spec.num_target_items = config.num_target_items;
    spec.embedding_dim = config.embedding_dim;
    spec.max_eval_users = config.max_eval_users;
    spec.seed = config.seed + i * 101;
    plan.campaigns.push_back(std::move(spec));
  }
  return plan;
}

int Run() {
  const BenchConfig config = LoadBenchConfig();
  const data::Dataset log = MakeDataset(config, data::DatasetPreset::kSteam);
  const orch::FleetPlan plan = MakePlan(config);
  std::printf("fleet scaling: %zu campaigns x %zu steps, dataset scale "
              "%.2f\n",
              plan.campaigns.size(), config.training_steps, config.scale);

  const std::string work_dir =
      (std::filesystem::temp_directory_path() / "poisonrec_bench_fleet")
          .string();

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"workers", "wall_seconds", "campaign_seconds_sum",
                  "overhead_ratio", "speedup", "done", "identical"});
  PrintTableHeader(
      {"workers", "wall s", "sum s", "overhead", "speedup", "identical"});

  double serial_wall = 0.0;
  std::map<std::string, std::map<std::uint64_t, double>> reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    std::filesystem::remove_all(work_dir);
    orch::FleetOptions options;
    options.journal_path = work_dir + "/journal.jsonl";
    options.checkpoint_dir = work_dir + "/ckpts";
    options.report_json_path.clear();
    options.report_csv_path.clear();
    options.max_concurrent = workers;
    orch::FleetOrchestrator orchestrator(plan, &log, options);
    const orch::FleetResult result = orchestrator.Run();
    if (result.ExitCode() != 0) {
      std::fprintf(stderr, "fleet run failed at %zu workers: %s\n", workers,
                   result.status.ToString().c_str());
      return 1;
    }
    double campaign_sum = 0.0;
    bool identical = true;
    for (const orch::CampaignOutcome& outcome : result.outcomes) {
      campaign_sum += outcome.wall_seconds;
      if (workers == 1) {
        reference[outcome.id] = outcome.step_rewards;
      } else if (reference[outcome.id] != outcome.step_rewards) {
        identical = false;
      }
    }
    if (workers == 1) serial_wall = result.wall_seconds;
    const double overhead =
        campaign_sum > 0.0 ? result.wall_seconds * workers / campaign_sum
                           : 0.0;
    const double speedup =
        result.wall_seconds > 0.0 ? serial_wall / result.wall_seconds : 0.0;
    const auto seconds = [](double v) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.2f", v);
      return std::string(buffer);
    };
    PrintTableRow({std::to_string(workers), seconds(result.wall_seconds),
                   seconds(campaign_sum), seconds(overhead),
                   seconds(speedup), identical ? "yes" : "NO"});
    rows.push_back({std::to_string(workers),
                    std::to_string(result.wall_seconds),
                    std::to_string(campaign_sum), std::to_string(overhead),
                    std::to_string(speedup), std::to_string(result.done),
                    identical ? "1" : "0"});
    if (!identical) {
      std::fprintf(stderr,
                   "fleet run at %zu workers produced different step "
                   "rewards than the serial run\n",
                   workers);
      return 1;
    }
  }
  WriteCsvOutput(config, "fleet_scaling.csv", rows);
  WriteJsonOutput(config, "fleet_scaling.json", rows);

  std::vector<std::vector<std::string>> robustness_rows;
  robustness_rows.push_back({"metric", "value"});
  const auto seconds = [](double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4f", v);
    return std::string(buffer);
  };

  // -- Lease transition throughput: durable (tmp-fsync-rename) renewals
  // under the sidecar flock, the cost every running campaign pays each
  // ttl/3.
  {
    const std::string lease_dir = work_dir + "/lease_bench";
    orch::LeaseManager leases(lease_dir, "bench", 5.0);
    if (!leases.Init().ok()) return 1;
    auto held = leases.Acquire("bench-campaign");
    if (!held.ok()) return 1;
    constexpr int kRenewals = 500;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRenewals; ++i) {
      if (!leases.Renew("bench-campaign", held->token).ok()) return 1;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double per_second = elapsed > 0.0 ? kRenewals / elapsed : 0.0;
    std::printf("lease renewals: %d in %.3fs (%.0f/s)\n", kRenewals, elapsed,
                per_second);
    robustness_rows.push_back(
        {"lease_renewals_per_second", seconds(per_second)});
  }

  // -- Preemption latency: a low-priority campaign is running on the
  // only worker when a high-priority one is submitted; measure submit ->
  // first `running` journal record of the high-priority campaign. The
  // victim checkpoints at its next step boundary, so the latency is one
  // step plus a watchdog poll.
  {
    std::filesystem::remove_all(work_dir);
    orch::FleetPlan preempt_plan;
    preempt_plan.name = "bench-preempt";
    orch::CampaignSpec low = plan.campaigns[0];
    low.id = "low";
    low.fault_preset = "clean";
    low.fault = *orch::FaultPresetProfile("clean");
    low.priority = 0;
    preempt_plan.campaigns.push_back(low);
    orch::FleetOptions options;
    options.journal_path = work_dir + "/journal.jsonl";
    options.checkpoint_dir = work_dir + "/ckpts";
    options.report_json_path.clear();
    options.report_csv_path.clear();
    options.max_concurrent = 1;
    options.watchdog_poll_seconds = 0.005;
    orch::FleetOrchestrator orchestrator(preempt_plan, &log, options);

    double latency = -1.0;
    std::thread submitter([&] {
      // Wait for the victim's first committed step so the submission
      // arrives mid-run.
      for (int i = 0; i < 20000; ++i) {
        auto replay = orch::FleetJournal::Replay(
            orch::FleetJournal::ListJournalFiles(options.journal_path));
        if (replay.ok()) {
          const auto it = replay->campaigns.find("low");
          if (it != replay->campaigns.end() &&
              it->second.steps_completed >= 1) {
            break;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      orch::CampaignSpec high = low;
      high.id = "high";
      high.priority = 10;
      high.steps = 1;
      const auto submit_time = std::chrono::steady_clock::now();
      if (!orchestrator.Submit(high).ok()) return;
      for (int i = 0; i < 60000; ++i) {
        auto replay = orch::FleetJournal::Replay(
            orch::FleetJournal::ListJournalFiles(options.journal_path));
        if (replay.ok()) {
          const auto it = replay->campaigns.find("high");
          if (it != replay->campaigns.end() &&
              it->second.state != orch::CampaignState::kPending) {
            latency = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - submit_time)
                          .count();
            return;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const orch::FleetResult result = orchestrator.Run();
    submitter.join();
    if (result.ExitCode() != 0 || result.preemptions == 0 || latency < 0.0) {
      std::fprintf(stderr,
                   "preemption bench failed: exit=%d preemptions=%zu "
                   "latency=%.3f\n",
                   result.ExitCode(), result.preemptions, latency);
      return 1;
    }
    std::printf("preemption latency (submit -> high running): %.0f ms\n",
                latency * 1e3);
    robustness_rows.push_back({"preemption_latency_seconds",
                               seconds(latency)});
    robustness_rows.push_back(
        {"preemptions", std::to_string(result.preemptions)});
  }

  // -- Status publication overhead: the same plan with the telemetry
  // plane off versus on at an aggressive publish period, gated on
  // bit-identical rewards (publication must never perturb the run) and
  // a lenient wall-clock bound. Also times the read side: one
  // CollectFleetStatus pass over the finished fleet's artefacts.
  {
    const auto run_once = [&](bool publish) -> double {
      std::filesystem::remove_all(work_dir);
      orch::FleetOptions options;
      options.journal_path = work_dir + "/journal.jsonl";
      options.checkpoint_dir = work_dir + "/ckpts";
      options.report_json_path.clear();
      options.report_csv_path.clear();
      options.max_concurrent = 1;
      options.publish_status = publish;
      options.status_publish_seconds = 0.05;
      orch::FleetOrchestrator orchestrator(plan, &log, options);
      const orch::FleetResult result = orchestrator.Run();
      if (result.ExitCode() != 0) return -1.0;
      for (const orch::CampaignOutcome& outcome : result.outcomes) {
        if (reference[outcome.id] != outcome.step_rewards) return -1.0;
      }
      return result.wall_seconds;
    };
    obs::Counter* published = obs::MetricsRegistry::Global().GetCounter(
        "poisonrec_fleet_status_snapshots_total");
    const std::uint64_t published_before = published->Value();
    const double off_wall = run_once(/*publish=*/false);
    const std::uint64_t published_off = published->Value();
    if (published_off != published_before) {
      std::fprintf(stderr, "status publication ran while disabled\n");
      return 1;
    }
    const double on_wall = run_once(/*publish=*/true);
    const std::uint64_t snapshots = published->Value() - published_off;
    if (off_wall < 0.0 || on_wall < 0.0) {
      std::fprintf(stderr,
                   "status-overhead run failed or perturbed rewards "
                   "(off=%.2f on=%.2f)\n",
                   off_wall, on_wall);
      return 1;
    }
    const double ratio = off_wall > 0.0 ? on_wall / off_wall : 0.0;
    std::printf("status publication: %.2fs off vs %.2fs on (%.3fx, %llu "
                "snapshot(s))\n",
                off_wall, on_wall, ratio,
                static_cast<unsigned long long>(snapshots));
    // Publication is a watchdog-thread durable write every 50ms here —
    // it must stay in the noise next to campaign compute.
    if (ratio > 1.5) {
      std::fprintf(stderr,
                   "status publication overhead ratio %.3f exceeds 1.5\n",
                   ratio);
      return 1;
    }

    orch::FleetStatusOptions query;
    query.journal_path = work_dir + "/journal.jsonl";
    query.checkpoint_dir = work_dir + "/ckpts";
    constexpr int kCollects = 50;
    const auto start = std::chrono::steady_clock::now();
    orch::FleetStatus collected;
    for (int i = 0; i < kCollects; ++i) {
      collected = orch::CollectFleetStatus(query);
    }
    const double collect_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() *
        1e3 / kCollects;
    if (collected.ExitCode() != 0) {
      std::fprintf(stderr, "post-run fleet status degraded: %s\n",
                   collected.degraded_reasons.empty()
                       ? "?"
                       : collected.degraded_reasons.front().c_str());
      return 1;
    }
    std::printf("fleet status collection: %.2f ms/query (%zu campaigns)\n",
                collect_ms, collected.campaigns.size());
    robustness_rows.push_back(
        {"status_publish_off_wall_seconds", seconds(off_wall)});
    robustness_rows.push_back(
        {"status_publish_on_wall_seconds", seconds(on_wall)});
    robustness_rows.push_back(
        {"status_publish_overhead_ratio", seconds(ratio)});
    robustness_rows.push_back(
        {"status_snapshots_published", std::to_string(snapshots)});
    robustness_rows.push_back(
        {"status_collect_ms_per_query", seconds(collect_ms)});
  }

  std::filesystem::remove_all(work_dir);
  WriteCsvOutput(config, "fleet_robustness.csv", robustness_rows);
  WriteJsonOutput(config, "fleet_robustness.json", robustness_rows);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Run(); }
