// Fleet plan: the declarative sweep description the orchestrator
// executes. A plan JSON file names a shared dataset, per-campaign
// defaults, an explicit campaign list and/or a sweep block whose
// cross-product (ranker x fault preset x defense x budget) is expanded
// into concrete CampaignSpecs. Every campaign is an independent
// PoisonRec attack (core/ppo.h) with its own seed, checkpoint and
// journal identity, supervised by orch/supervisor.h.
//
// Plan schema (all keys optional unless noted):
//   {
//     "name": "nightly",
//     "dataset": "Steam", "scale": 0.05, "dataset_seed": 1,
//     "defaults": { <campaign keys> },
//     "campaigns": [ { "id": "a", <campaign keys> }, ... ],
//     "sweep": {
//       "rankers": ["ItemPop", "CoVisitation"],
//       "fault_presets": ["clean", "flaky"],
//       "defenses": [false, true],
//       "budgets": [10, 25]
//     }
//   }
//
// Campaign keys: id (required for explicit campaigns), ranker,
// fault_preset (clean|flaky|blackout), fault {failure, throttle,
// throttle_cooldown, drop, shadow_ban, noise, nan, seed}, defense,
// detector, defense_interval, defense_bans, defense_ban_prob,
// pool_reserve, pool_min_live, steps, samples_per_step, attackers,
// trajectory_length, targets, embedding_dim, eval_users, seed,
// retry_attempts, retry_deadline_seconds, priority, deadline_seconds,
// stall_timeout_seconds, max_restarts, restart_backoff_seconds,
// max_preemptions.
// Unknown keys are rejected — a misspelled knob must fail the plan, not
// silently run with the default.
#ifndef POISONREC_ORCH_SPEC_H_
#define POISONREC_ORCH_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ppo.h"
#include "env/defended.h"
#include "env/environment.h"
#include "env/fault.h"
#include "orch/json_reader.h"
#include "util/status.h"

namespace poisonrec::orch {

/// One supervised campaign: workload + supervision policy.
struct CampaignSpec {
  /// Unique within the plan; keys the journal, checkpoint file name and
  /// report rows. Required and restricted to [A-Za-z0-9._-].
  std::string id;

  // -- Workload -------------------------------------------------------------
  std::string ranker = "ItemPop";
  /// Named fault profile ("clean", "flaky", "blackout"); an explicit
  /// "fault" object overrides individual rates on top of the preset.
  std::string fault_preset = "clean";
  env::FaultProfile fault;
  bool defense = false;
  std::string detector = "ensemble";
  env::DefenseProfile defense_profile;
  std::size_t pool_reserve = 0;
  std::size_t pool_min_live = 2;
  /// Training-step budget (checkpointed progress counts toward it).
  std::size_t steps = 10;
  std::size_t samples_per_step = 4;
  std::size_t attackers = 6;
  std::size_t trajectory_length = 5;
  std::size_t num_target_items = 2;
  std::size_t embedding_dim = 8;
  std::size_t max_eval_users = 64;
  std::uint64_t seed = 1;
  std::size_t retry_attempts = 4;
  /// Per-query retry deadline (util/retry max_elapsed_seconds; 0 = off).
  double retry_deadline_seconds = 0.0;

  // -- Supervision ----------------------------------------------------------
  /// Higher runs first; ties break in plan order.
  int priority = 0;
  /// Whole-campaign wall-clock deadline (0 = unbounded). Exceeding it
  /// quarantines the campaign — no restart, the budget is simply too
  /// small for the workload.
  double deadline_seconds = 0.0;
  /// Heartbeat silence that counts as a stall (0 = watchdog off). A
  /// stalled campaign is hard-cancelled and restarted from its own
  /// checkpoint.
  double stall_timeout_seconds = 0.0;
  /// Automatic restarts (from the campaign checkpoint) the supervisor
  /// grants before quarantining.
  std::size_t max_restarts = 2;
  /// Base delay between restarts (grows with util/retry's decorrelated
  /// jitter schedule).
  double restart_backoff_seconds = 0.05;
  /// Times this campaign may be soft-stopped at a step boundary to hand
  /// its worker to a higher-priority campaign (orch/fleet.h). Past the
  /// cap it becomes preemption-immune, so repeated high-priority
  /// arrivals cannot starve it. 0 = never preemptible.
  std::size_t max_preemptions = 3;
};

/// The whole fleet: one shared synthetic dataset + campaigns.
struct FleetPlan {
  std::string name = "fleet";
  std::string dataset = "Steam";
  double scale = 0.05;
  std::uint64_t dataset_seed = 1;
  std::vector<CampaignSpec> campaigns;
};

/// Named fault profiles usable in plans and on the CLI.
///   clean    — no faults at all
///   flaky    — transient failures + throttling + drops worth retrying
///   blackout — heavy unavailability: retry loops park in long backoffs
///              (what stall watchdogs and retry deadlines exist for)
StatusOr<env::FaultProfile> FaultPresetProfile(const std::string& name);

/// Parses + validates a plan document (see the schema above): defaults
/// are applied, the sweep block is expanded into campaigns, ids are
/// checked unique, unknown keys and dataset presets are rejected.
StatusOr<FleetPlan> ParseFleetPlan(const JsonValue& root);
StatusOr<FleetPlan> ParseFleetPlanText(std::string_view json_text);
StatusOr<FleetPlan> LoadFleetPlan(const std::string& path);

/// Structural validation used by ParseFleetPlan and re-run by the
/// orchestrator on programmatically built plans.
Status ValidatePlan(const FleetPlan& plan);

/// Per-campaign validation (the per-entry half of ValidatePlan); also
/// guards FleetOrchestrator::Submit, where a campaign arrives without an
/// enclosing plan. Platform values, ranker and detector are checked too,
/// so a bad one fails the plan, naming the campaign and the key.
Status ValidateCampaignSpec(const CampaignSpec& spec);

/// Parses one standalone campaign object — the `fleet --submit-dir`
/// file format. Same keys as a plan campaign entry; id is required.
StatusOr<CampaignSpec> ParseCampaignSpecText(std::string_view json_text);

/// Maps a campaign spec onto the attacker / environment configs. The
/// attacker always runs guarded (TrainGuarded requires it) with
/// single-threaded inner loops — fleet concurrency happens one level up.
core::PoisonRecConfig MakeAttackerConfig(const CampaignSpec& spec);
env::EnvironmentConfig MakeEnvironmentConfig(const CampaignSpec& spec);

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_SPEC_H_
