#include "orch/spec.h"

#include <cmath>
#include <initializer_list>
#include <set>
#include <string_view>
#include <utility>

#include "data/synthetic.h"
#include "defense/detector.h"
#include "rec/registry.h"

namespace poisonrec::orch {

namespace {

/// The "fault" object's rate keys and the FaultProfile fields they set.
constexpr std::pair<const char*, double env::FaultProfile::*> kFaultRates[] = {
    {"failure", &env::FaultProfile::query_failure_rate},
    {"throttle", &env::FaultProfile::throttle_rate},
    {"drop", &env::FaultProfile::injection_drop_rate},
    {"shadow_ban", &env::FaultProfile::shadow_ban_rate},
    {"noise", &env::FaultProfile::reward_noise_stddev},
    {"stale", &env::FaultProfile::stale_reward_rate},
    {"nan", &env::FaultProfile::nan_reward_rate}};

Status KeyError(const char* what, const std::string& key,
                const std::string& detail) {
  return Status::InvalidArgument(std::string(what) + " key \"" + key +
                                 "\": " + detail);
}

/// Unknown keys are plan bugs: a misspelled "stall_timeout_seconds"
/// must not silently run without a watchdog.
Status CheckKeys(const JsonValue& obj,
                 std::initializer_list<std::string_view> allowed,
                 const char* what) {
  for (const auto& member : obj.members) {
    bool known = false;
    for (std::string_view key : allowed) {
      if (member.first == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      return KeyError(what, member.first, "unknown key");
    }
  }
  return Status::OK();
}

Status ReadDouble(const JsonValue& obj, const char* key, double* out,
                  const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) return KeyError(what, key, "expected a number");
  *out = v->number_value;
  return Status::OK();
}

Status ReadSize(const JsonValue& obj, const char* key, std::size_t* out,
                const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number() || v->number_value < 0.0 ||
      v->number_value != std::floor(v->number_value)) {
    return KeyError(what, key, "expected a non-negative integer");
  }
  *out = static_cast<std::size_t>(v->number_value);
  return Status::OK();
}

/// ReadSize into a fixed-width unsigned field (seeds, cool-downs).
template <typename T>
Status ReadUnsigned(const JsonValue& obj, const char* key, T* out,
                    const char* what) {
  std::size_t tmp = static_cast<std::size_t>(*out);
  POISONREC_RETURN_NOT_OK(ReadSize(obj, key, &tmp, what));
  *out = static_cast<T>(tmp);
  return Status::OK();
}

Status ReadInt(const JsonValue& obj, const char* key, int* out,
               const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number() || v->number_value != std::floor(v->number_value)) {
    return KeyError(what, key, "expected an integer");
  }
  *out = static_cast<int>(v->number_value);
  return Status::OK();
}

Status ReadBool(const JsonValue& obj, const char* key, bool* out,
                const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_bool()) return KeyError(what, key, "expected true/false");
  *out = v->bool_value;
  return Status::OK();
}

Status ReadString(const JsonValue& obj, const char* key, std::string* out,
                  const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) return KeyError(what, key, "expected a string");
  *out = v->string_value;
  return Status::OK();
}

Status ApplyFaultObject(const JsonValue& obj, env::FaultProfile* fault) {
  static constexpr const char* kWhat = "fault";
  POISONREC_RETURN_NOT_OK(CheckKeys(
      obj,
      {"failure", "throttle", "throttle_cooldown", "drop", "shadow_ban",
       "noise", "stale", "nan", "seed"},
      kWhat));
  for (const auto& [key, rate] : kFaultRates) {
    POISONREC_RETURN_NOT_OK(ReadDouble(obj, key, &(fault->*rate), kWhat));
  }
  POISONREC_RETURN_NOT_OK(ReadUnsigned(obj, "throttle_cooldown",
                                       &fault->throttle_cooldown_attempts,
                                       kWhat));
  POISONREC_RETURN_NOT_OK(ReadUnsigned(obj, "seed", &fault->seed, kWhat));
  return Status::OK();
}

/// Applies one campaign object's keys onto `spec` (which starts as a
/// copy of the plan defaults). `allow_id` is false for the "defaults"
/// block, where an id would be nonsense.
Status ApplyCampaignKeys(const JsonValue& obj, CampaignSpec* spec,
                         bool allow_id, const char* what) {
  POISONREC_RETURN_NOT_OK(CheckKeys(
      obj,
      {"id", "ranker", "fault_preset", "fault", "defense", "detector",
       "defense_interval", "defense_bans", "defense_threshold",
       "defense_ban_prob", "defense_seed", "pool_reserve", "pool_min_live",
       "steps", "samples_per_step", "attackers", "trajectory_length",
       "targets", "embedding_dim", "eval_users", "seed", "retry_attempts",
       "retry_deadline_seconds", "priority", "deadline_seconds",
       "stall_timeout_seconds", "max_restarts", "restart_backoff_seconds",
       "max_preemptions"},
      what));
  if (!allow_id && obj.Find("id") != nullptr) {
    return KeyError(what, "id", "not allowed in the defaults block");
  }
  POISONREC_RETURN_NOT_OK(ReadString(obj, "id", &spec->id, what));
  POISONREC_RETURN_NOT_OK(ReadString(obj, "ranker", &spec->ranker, what));
  // The preset resets the whole profile; an explicit fault object then
  // overrides individual rates on top of it.
  if (const JsonValue* preset = obj.Find("fault_preset")) {
    if (!preset->is_string()) {
      return KeyError(what, "fault_preset", "expected a string");
    }
    spec->fault_preset = preset->string_value;
    POISONREC_ASSIGN_OR_RETURN(spec->fault,
                               FaultPresetProfile(spec->fault_preset));
  }
  if (const JsonValue* fault = obj.Find("fault")) {
    if (!fault->is_object()) {
      return KeyError(what, "fault", "expected an object");
    }
    POISONREC_RETURN_NOT_OK(ApplyFaultObject(*fault, &spec->fault));
  }
  POISONREC_RETURN_NOT_OK(ReadBool(obj, "defense", &spec->defense, what));
  POISONREC_RETURN_NOT_OK(ReadString(obj, "detector", &spec->detector, what));
  POISONREC_RETURN_NOT_OK(ReadSize(
      obj, "defense_interval", &spec->defense_profile.detection_interval,
      what));
  POISONREC_RETURN_NOT_OK(ReadSize(
      obj, "defense_bans", &spec->defense_profile.bans_per_sweep, what));
  POISONREC_RETURN_NOT_OK(ReadDouble(
      obj, "defense_threshold", &spec->defense_profile.suspicion_threshold,
      what));
  POISONREC_RETURN_NOT_OK(ReadDouble(
      obj, "defense_ban_prob", &spec->defense_profile.ban_probability, what));
  POISONREC_RETURN_NOT_OK(
      ReadUnsigned(obj, "defense_seed", &spec->defense_profile.seed, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "pool_reserve", &spec->pool_reserve, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "pool_min_live", &spec->pool_min_live, what));
  POISONREC_RETURN_NOT_OK(ReadSize(obj, "steps", &spec->steps, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "samples_per_step", &spec->samples_per_step, what));
  POISONREC_RETURN_NOT_OK(ReadSize(obj, "attackers", &spec->attackers, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "trajectory_length", &spec->trajectory_length, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "targets", &spec->num_target_items, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "embedding_dim", &spec->embedding_dim, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "eval_users", &spec->max_eval_users, what));
  POISONREC_RETURN_NOT_OK(ReadUnsigned(obj, "seed", &spec->seed, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "retry_attempts", &spec->retry_attempts, what));
  POISONREC_RETURN_NOT_OK(ReadDouble(
      obj, "retry_deadline_seconds", &spec->retry_deadline_seconds, what));
  POISONREC_RETURN_NOT_OK(ReadInt(obj, "priority", &spec->priority, what));
  POISONREC_RETURN_NOT_OK(
      ReadDouble(obj, "deadline_seconds", &spec->deadline_seconds, what));
  POISONREC_RETURN_NOT_OK(ReadDouble(
      obj, "stall_timeout_seconds", &spec->stall_timeout_seconds, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "max_restarts", &spec->max_restarts, what));
  POISONREC_RETURN_NOT_OK(ReadDouble(
      obj, "restart_backoff_seconds", &spec->restart_backoff_seconds, what));
  POISONREC_RETURN_NOT_OK(
      ReadSize(obj, "max_preemptions", &spec->max_preemptions, what));
  return Status::OK();
}

bool ValidId(const std::string& id) {
  if (id.empty()) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Status ExpandSweep(const JsonValue& sweep, const CampaignSpec& base,
                   FleetPlan* plan) {
  static constexpr const char* kWhat = "sweep";
  POISONREC_RETURN_NOT_OK(CheckKeys(
      sweep, {"rankers", "fault_presets", "defenses", "budgets"}, kWhat));
  const auto strings = [&sweep](const char* key, const std::string& fallback,
                                std::vector<std::string>* out) -> Status {
    const JsonValue* v = sweep.Find(key);
    if (v == nullptr) {
      out->push_back(fallback);
      return Status::OK();
    }
    if (!v->is_array() || v->array.empty()) {
      return KeyError(kWhat, key, "expected a non-empty array");
    }
    for (const JsonValue& item : v->array) {
      if (!item.is_string()) {
        return KeyError(kWhat, key, "expected strings");
      }
      out->push_back(item.string_value);
    }
    return Status::OK();
  };
  std::vector<std::string> rankers;
  std::vector<std::string> presets;
  POISONREC_RETURN_NOT_OK(strings("rankers", base.ranker, &rankers));
  POISONREC_RETURN_NOT_OK(
      strings("fault_presets", base.fault_preset, &presets));
  std::vector<bool> defenses;
  if (const JsonValue* v = sweep.Find("defenses")) {
    if (!v->is_array() || v->array.empty()) {
      return KeyError(kWhat, "defenses", "expected a non-empty array");
    }
    for (const JsonValue& item : v->array) {
      if (!item.is_bool()) {
        return KeyError(kWhat, "defenses", "expected booleans");
      }
      defenses.push_back(item.bool_value);
    }
  } else {
    defenses.push_back(base.defense);
  }
  std::vector<std::size_t> budgets;
  if (const JsonValue* v = sweep.Find("budgets")) {
    if (!v->is_array() || v->array.empty()) {
      return KeyError(kWhat, "budgets", "expected a non-empty array");
    }
    for (const JsonValue& item : v->array) {
      if (!item.is_number() || item.number_value < 1.0 ||
          item.number_value != std::floor(item.number_value)) {
        return KeyError(kWhat, "budgets", "expected positive integers");
      }
      budgets.push_back(static_cast<std::size_t>(item.number_value));
    }
  } else {
    budgets.push_back(base.steps);
  }

  std::size_t index = 0;
  for (const std::string& ranker : rankers) {
    for (const std::string& preset : presets) {
      for (const bool defense : defenses) {
        for (const std::size_t budget : budgets) {
          CampaignSpec spec = base;
          spec.ranker = ranker;
          spec.fault_preset = preset;
          POISONREC_ASSIGN_OR_RETURN(spec.fault, FaultPresetProfile(preset));
          spec.defense = defense;
          spec.steps = budget;
          spec.id = ranker + "-" + preset + (defense ? "-def" : "-nodef") +
                    "-s" + std::to_string(budget);
          // Distinct policy/fault streams per sweep cell, derived from
          // the shared base seed so the plan stays one-number seedable.
          spec.seed = base.seed + index;
          spec.fault.seed = base.fault.seed + index;
          plan->campaigns.push_back(std::move(spec));
          ++index;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<env::FaultProfile> FaultPresetProfile(const std::string& name) {
  env::FaultProfile profile;  // "clean": every rate 0
  if (name == "clean") return profile;
  if (name == "flaky") {
    profile.query_failure_rate = 0.15;
    profile.throttle_rate = 0.10;
    profile.throttle_cooldown_attempts = 2;
    profile.injection_drop_rate = 0.05;
    return profile;
  }
  if (name == "blackout") {
    profile.query_failure_rate = 0.5;
    profile.throttle_rate = 0.3;
    profile.throttle_cooldown_attempts = 4;
    profile.injection_drop_rate = 0.1;
    return profile;
  }
  return Status::InvalidArgument("unknown fault preset \"" + name +
                                 "\" (want clean|flaky|blackout)");
}

StatusOr<FleetPlan> ParseFleetPlan(const JsonValue& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("fleet plan must be a JSON object");
  }
  static constexpr const char* kWhat = "plan";
  POISONREC_RETURN_NOT_OK(CheckKeys(root,
                                    {"name", "dataset", "scale",
                                     "dataset_seed", "defaults", "campaigns",
                                     "sweep"},
                                    kWhat));
  FleetPlan plan;
  POISONREC_RETURN_NOT_OK(ReadString(root, "name", &plan.name, kWhat));
  POISONREC_RETURN_NOT_OK(ReadString(root, "dataset", &plan.dataset, kWhat));
  POISONREC_RETURN_NOT_OK(ReadDouble(root, "scale", &plan.scale, kWhat));
  POISONREC_RETURN_NOT_OK(
      ReadUnsigned(root, "dataset_seed", &plan.dataset_seed, kWhat));

  CampaignSpec base;
  if (const JsonValue* defaults = root.Find("defaults")) {
    if (!defaults->is_object()) {
      return KeyError(kWhat, "defaults", "expected an object");
    }
    POISONREC_RETURN_NOT_OK(
        ApplyCampaignKeys(*defaults, &base, /*allow_id=*/false, "defaults"));
  }

  if (const JsonValue* campaigns = root.Find("campaigns")) {
    if (!campaigns->is_array()) {
      return KeyError(kWhat, "campaigns", "expected an array");
    }
    for (const JsonValue& entry : campaigns->array) {
      if (!entry.is_object()) {
        return KeyError(kWhat, "campaigns", "expected objects");
      }
      CampaignSpec spec = base;
      POISONREC_RETURN_NOT_OK(
          ApplyCampaignKeys(entry, &spec, /*allow_id=*/true, "campaign"));
      if (spec.id.empty()) {
        return KeyError("campaign", "id", "required for explicit campaigns");
      }
      plan.campaigns.push_back(std::move(spec));
    }
  }
  if (const JsonValue* sweep = root.Find("sweep")) {
    if (!sweep->is_object()) {
      return KeyError(kWhat, "sweep", "expected an object");
    }
    POISONREC_RETURN_NOT_OK(ExpandSweep(*sweep, base, &plan));
  }
  POISONREC_RETURN_NOT_OK(ValidatePlan(plan));
  return plan;
}

StatusOr<FleetPlan> ParseFleetPlanText(std::string_view json_text) {
  POISONREC_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json_text));
  return ParseFleetPlan(root);
}

StatusOr<FleetPlan> LoadFleetPlan(const std::string& path) {
  POISONREC_ASSIGN_OR_RETURN(const JsonValue root, ParseJsonFile(path));
  StatusOr<FleetPlan> plan = ParseFleetPlan(root);
  if (!plan.ok()) {
    return Status(plan.status().code(),
                  path + ": " + plan.status().message());
  }
  return plan;
}

Status ValidatePlan(const FleetPlan& plan) {
  if (plan.campaigns.empty()) {
    return Status::InvalidArgument(
        "fleet plan has no campaigns (add a campaigns array or a sweep "
        "block)");
  }
  if (plan.scale <= 0.0) {
    return Status::InvalidArgument("plan scale must be > 0");
  }
  if (const auto preset = data::ParseDatasetPreset(plan.dataset);
      !preset.ok()) {
    return KeyError("plan", "dataset", preset.status().message());
  }
  std::set<std::string> ids;
  for (const CampaignSpec& spec : plan.campaigns) {
    POISONREC_RETURN_NOT_OK(ValidateCampaignSpec(spec));
    if (!ids.insert(spec.id).second) {
      return Status::InvalidArgument("duplicate campaign id \"" + spec.id +
                                     "\"");
    }
  }
  return Status::OK();
}

Status ValidateCampaignSpec(const CampaignSpec& spec) {
  if (!ValidId(spec.id)) {
    return Status::InvalidArgument(
        "campaign id \"" + spec.id +
        "\" must be non-empty [A-Za-z0-9._-] (it names journal keys and "
        "checkpoint files)");
  }
  const std::string where = "campaign \"" + spec.id + "\": ";
  if (spec.steps == 0) {
    return Status::InvalidArgument(where + "steps must be >= 1");
  }
  if (spec.samples_per_step < 2) {
    return Status::InvalidArgument(
        where + "samples_per_step must be >= 2 (Eq. 8 normalization)");
  }
  if (spec.attackers == 0 || spec.trajectory_length == 0 ||
      spec.num_target_items == 0) {
    return Status::InvalidArgument(
        where + "attackers, trajectory_length and targets must be >= 1");
  }
  // The range rules live beside the profiles; one key at a time, so the
  // error names the key.
  const auto key_error = [&where](const char* key, const Status& status) {
    return Status::InvalidArgument(where + "key \"" + key +
                                   "\": " + status.message());
  };
  Status valid;
  env::FaultProfile fault;
  for (const auto& [key, rate] : kFaultRates) {
    fault.*rate = spec.fault.*rate;
    valid = env::ValidateFaultProfile(fault);
    if (!valid.ok()) return key_error(key, valid);
  }
  env::DefenseProfile defender;
  defender.detection_interval = spec.defense_profile.detection_interval;
  valid = env::ValidateDefenseProfile(defender);
  if (!valid.ok()) return key_error("defense_interval", valid);
  defender.ban_probability = spec.defense_profile.ban_probability;
  valid = env::ValidateDefenseProfile(defender);
  if (!valid.ok()) return key_error("defense_ban_prob", valid);
  if (const auto ranker = rec::MakeRecommender(spec.ranker, rec::FitConfig());
      !ranker.ok()) {
    return key_error("ranker", ranker.status());
  }
  if (const auto detector = defense::MakeDetector(spec.detector);
      !detector.ok()) {
    return key_error("detector", detector.status());
  }
  if (spec.fault.stale_reward_rate > 0.0) {
    return Status::InvalidArgument(
        where +
        "stale reward faults are process-local runtime state and break "
        "bit-identical crash recovery; the orchestrator refuses them");
  }
  if (spec.defense && spec.pool_reserve > 0 &&
      spec.pool_min_live > spec.attackers) {
    return Status::InvalidArgument(
        where + "pool_min_live exceeds the attacker fleet size");
  }
  if (spec.retry_attempts == 0) {
    return Status::InvalidArgument(where + "retry_attempts must be >= 1");
  }
  return Status::OK();
}

StatusOr<CampaignSpec> ParseCampaignSpecText(std::string_view json_text) {
  POISONREC_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json_text));
  if (!root.is_object()) {
    return Status::InvalidArgument("campaign spec must be a JSON object");
  }
  CampaignSpec spec;
  POISONREC_RETURN_NOT_OK(
      ApplyCampaignKeys(root, &spec, /*allow_id=*/true, "campaign"));
  if (spec.id.empty()) {
    return KeyError("campaign", "id", "required for submitted campaigns");
  }
  POISONREC_RETURN_NOT_OK(ValidateCampaignSpec(spec));
  return spec;
}

core::PoisonRecConfig MakeAttackerConfig(const CampaignSpec& spec) {
  core::PoisonRecConfig config;
  config.samples_per_step = spec.samples_per_step;
  config.batch_size = spec.samples_per_step;
  config.policy.embedding_dim = spec.embedding_dim;
  config.seed = spec.seed;
  config.retry.max_attempts = spec.retry_attempts;
  config.retry.max_elapsed_seconds = spec.retry_deadline_seconds;
  // Fleet concurrency lives one level up (orch/fleet.h): each campaign
  // runs its inner loops inline on its worker thread, which also keeps
  // a single-campaign child process fork-safe for crash-recovery tests.
  config.num_threads = 1;
  config.parallel_rewards = false;
  // TrainGuarded requires the guardrails; the supervisor depends on its
  // checkpoint-after-every-clean-step contract.
  config.guard.enabled = true;
  if (spec.defense) {
    config.pool.reserve_accounts = spec.pool_reserve;
    config.pool.min_live_attackers = spec.pool_min_live;
  }
  return config;
}

env::EnvironmentConfig MakeEnvironmentConfig(const CampaignSpec& spec) {
  env::EnvironmentConfig config;
  config.num_attackers =
      spec.attackers + (spec.defense ? spec.pool_reserve : 0);
  config.trajectory_length = spec.trajectory_length;
  config.num_target_items = spec.num_target_items;
  config.max_eval_users = spec.max_eval_users;
  config.seed = spec.seed ^ 0x7u;
  return config;
}

}  // namespace poisonrec::orch
