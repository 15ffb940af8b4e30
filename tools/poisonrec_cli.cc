// poisonrec — command-line front-end for the library.
//
//   poisonrec datagen  --dataset=Steam --scale=0.1 --out=log.csv
//   poisonrec quality  --ranker=BPR [--data=log.csv | --dataset=Steam]
//   poisonrec attack   --ranker=GRU4Rec --method=poisonrec --steps=25
//   poisonrec detect   --method=popular
//   poisonrec campaign --steps=50 --fault-failure=0.2 --fault-drop=0.1
//                      --checkpoint=run.ckpt --checkpoint-every=5 [--resume]
//   poisonrec campaign --steps=50 --defense --defense-interval=32
//                      --defense-bans=2 --pool-reserve=20 --pool-min-live=4
//   poisonrec fleet    --plan=fleet.json --journal=results/fleet.jsonl
//                      --checkpoint-dir=results/ckpts [--worker-id=w1]
//   poisonrec fleet    --status [--status-json=out.json] [--watch=N]
//                      --journal=... --checkpoint-dir=...
//   poisonrec trace-merge wA.trace.json wB.trace.json
//                      --out=results/fleet_trace.json
//   poisonrec fsck     --journal=results/fleet.jsonl
//                      --checkpoint-dir=results/ckpts
//
// Flags are strict: each subcommand reads the flags listed in KnownFlags
// below (plus the global --num-threads), and a run exits 2, naming the
// flag, on any other flag, on a --defense-* or --pool-* flag without
// --defense, on a --guard-* flag without --guard, on a numeric value
// that does not parse in full (a count takes digits only), on a
// --ranker the registry does not know, a --method BuildMethod does not
// know or a --dataset preset that does not exist, and on a fault or
// defense value outside its profile's range; it exits 2 naming any
// argument that is not a --flag (only trace-merge takes file names).
//
// Common flags: --dataset=<Steam|MovieLens|Phone|Clothing> --scale=<f>
//   --data=<csv>  --seed=<n>  --attackers=<N>  --length=<T>
//   --targets=<k> --dim=<e>   --eval-users=<n>
//   --num-threads=<n> worker threads for parallel reward evaluation
//                     (--parallel) and the GEMM kernels (0 = hardware
//                     concurrency). Results are bit-identical for every
//                     thread count.
//
// Campaign fault flags (all rates in [0,1], default 0 = off):
//   --fault-failure  transient query failure rate (kUnavailable)
//   --fault-throttle throttling rate (kResourceExhausted until cool-down)
//   --fault-drop     per-click injection drop rate
//   --fault-ban      per-trajectory shadow-ban rate
//   --fault-noise    Gaussian reward noise stddev
//   --fault-stale    stale (cached) reward rate
//   --fault-nan      NaN reward rate (corrupted feedback channel)
//   --fault-seed     fault stream seed
//   --retry-attempts max attempts per reward query (default 4)
//   --checkpoint=<path> --checkpoint-every=<n> --resume (--steps stays
//                    the whole budget: a resumed run takes what is left)
//
// Campaign adaptive-defender flags (see docs/robustness.md):
//   --defense                run against a DefendedEnvironment: the
//                            platform audits accumulated behavior and
//                            permanently bans top-suspicion fake accounts
//   --defense-interval=<n>   queries between detection sweeps (default 64)
//   --defense-bans=<n>       accounts banned per sweep (default 2)
//   --defense-threshold=<f>  minimum suspicion to ban (default 0)
//   --defense-ban-prob=<f>   per-candidate ban probability (default 1)
//   --defense-detector=<s>   ensemble|cold|entropy|fleet (default ensemble)
//   --defense-seed=<n>       defender decision seed (default 4321)
//   --pool-reserve=<n>       replacement attacker accounts (default 0 =
//                            no pool; banned slots die for good)
//   --pool-min-live=<n>      abort (kResourceExhausted) when fewer slots
//                            survive (default 2; pool campaigns only)
//
// Campaign guardrail flags (see docs/robustness.md):
//   --guard                 enable the training-stability guardrails and
//                           the self-healing rollback driver (requires a
//                           --checkpoint path for the last-good state)
//   --guard-grad-max=<f>    grad-norm explosion threshold (default 100)
//   --guard-entropy-floor=<f> entropy collapse floor (default 1e-5)
//   --guard-kl-max=<f>      approx-KL divergence threshold (default 5)
//   --guard-rollbacks=<n>   consecutive-rollback budget (default 4)
//   --max-grad-norm=<f>     gradient clip (default 5; 0 disables)
//   Each step line prints its guard verdict; with --events-out every
//   incident is also a {"type":"guard",...} event record.
//
// Fleet flags (see docs/robustness.md "Fleet orchestration"). Every
// run is one lease-holding worker: it replays the journal family, skips
// campaigns already finished and resumes unfinished ones from their
// checkpoints, so a run always continues the state dir it is pointed
// at (a fresh sweep needs a fresh --journal/--checkpoint-dir), and any
// number of processes may share one plan and one state dir.
//   --plan=<json>           fleet plan file (required; schema in
//                           src/orch/spec.h)
//   --journal=<path>        journal family base path; each worker
//                           appends to <stem>.<worker-id><ext> (default
//                           results/fleet_journal.jsonl)
//   --checkpoint-dir=<dir>  per-campaign checkpoints and leases (default
//                           results/fleet_checkpoints)
//   --report-json=<path>    consolidated report (default
//                           results/fleet_report.json; empty disables)
//   --report-csv=<path>     CSV report (default results/fleet_report.csv)
//   --worker-id=<id>        this worker's name in leases, journal and
//                           status (default w<pid>-<nonce>). Keep it
//                           stable across restarts: after a kill -9 a
//                           restart with the same id re-acquires its
//                           leases at once, one without waits up to one
//                           lease TTL before seizing them
//   --lease-ttl=<sec>       lease heartbeat TTL, finite and > 0 (default
//                           2); a lease unrenewed this long is seized
//   --submit-dir=<dir>      watch <dir> for late *.json campaign files;
//                           a higher-priority one preempts a running
//                           campaign when every worker is busy
//   --max-concurrent=<n>    campaigns running at once (default 2)
//   --data=<csv>            use a real log instead of the plan's
//                           synthetic dataset
//   --telemetry-dir=<dir>   worker status snapshot directory (default
//                           <checkpoint-dir>/telemetry)
//   --status-every=<sec>    snapshot publication cadence (default 0.25)
//   --publish-status=false  disable snapshot publication
//   SIGINT/SIGTERM checkpoint every running campaign at the next step
//   boundary and exit. Exit codes: 0 all campaigns done, 2 partial fleet
//   (quarantined/failed/interrupted campaigns — rerun the same command
//   to resume), 1 fatal orchestrator error (bad plan, bad --lease-ttl,
//   journal/report I/O).
//
// Fleet status flags (read-only; see docs/observability.md "Fleet
// status" — works mid-run from any process):
//   --status                aggregate journal + leases + worker status
//                           snapshots into a cluster table; exit 0
//                           healthy, 2 degraded (stale workers,
//                           quarantined/failed/stalled campaigns)
//   --status-json=<path>    also write the machine-readable fleet_status
//                           JSON (validated by
//                           tools/validate_telemetry.py --fleet-status)
//   --watch=<sec>           re-render every <sec> seconds until ^C
//   --stale-after=<sec>     heartbeat age that marks a live-pid worker
//                           stale (default: 3x its publish period)
//   --journal/--checkpoint-dir/--telemetry-dir as above; leases are
//                           read from <checkpoint-dir>/leases
//
// trace-merge: fuse per-worker Chrome traces (`fleet --trace-out` from
// each worker) into one timeline; each input file becomes its own
// process lane (pid = input index, process_name = file stem) and span
// args (campaign ids) are preserved. Timestamps stay relative to each
// file's own export epoch. Flags: --out=<path> (default
// results/fleet_trace.json).
//
// Fsck flags (offline storage-integrity audit, docs/robustness.md):
//   --journal=<path>        journal family base path (default
//                           results/fleet_journal.jsonl)
//   --checkpoint-dir=<dir>  checkpoint directory to audit, with its
//                           leases/ and corrupt/ (default
//                           results/fleet_checkpoints)
//   Exit codes: 0 everything intact, 2 damage found but all of it
//   repairable (torn journal tails, damaged checkpoints with an intact
//   sibling, corrupt leases), 1 unrepairable damage (interior journal
//   corruption, a campaign whose every checkpoint is damaged).
//
// Campaign telemetry flags (see docs/observability.md):
//   --metrics-out=<path>    write a metrics-registry JSON snapshot at the
//                           end of the run
//   --trace-out=<path>      enable trace spans and write Chrome
//                           trace_event JSON at the end of the run (open
//                           in chrome://tracing or ui.perfetto.dev)
//   --events-out=<path>     stream the unified JSONL event log (step,
//                           guard, ban, rollback, checkpoint events)
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <filesystem>

#include "attack/appgrad.h"
#include "attack/conslop.h"
#include "attack/heuristics.h"
#include "attack/poisonrec_attack.h"
#include "core/account_pool.h"
#include "core/poisonrec.h"
#include "core/ppo.h"
#include "defense/detector.h"
#include "env/defended.h"
#include "env/fault.h"
#include "nn/kernels.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orch/fleet.h"
#include "orch/fsck.h"
#include "orch/json_reader.h"
#include "orch/spec.h"
#include "orch/status.h"
#include "rec/metrics.h"
#include "rec/registry.h"
#include "util/csv.h"
#include "util/fsio.h"

namespace poisonrec::cli {
namespace {

/// A real: a whole value strtod reads, in range.
std::optional<double> ParseReal(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno == ERANGE || *end != '\0') return std::nullopt;
  return value;
}

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positionals_.push_back(std::move(arg));
        continue;
      }
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric values were checked by RejectBadFlags before any work.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::optional<double> value = ParseReal(it->second);
    POISONREC_CHECK(value.has_value()) << "--" << key << " is not a number";
    return *value;
  }
  std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::optional<std::size_t> value = ParseCount(it->second);
    POISONREC_CHECK(value.has_value()) << "--" << key << " is not a count";
    return *value;
  }
  const std::map<std::string, std::string>& values() const { return values_; }
  /// The arguments that are not --flags, in order.
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

/// The flags `command` reads, space-separated, or nullopt for an unknown
/// command. `fleet --status` reads none of a fleet run's flags, so it
/// has its own list. Every command also takes the global --num-threads.
std::optional<std::string> KnownFlags(const std::string& command,
                                      const Flags& flags) {
  const std::string data = " data dataset scale seed";
  const std::string environment =
      data + " dim attackers length targets eval-users ranker";
  if (command == "datagen") return data + " out";
  if (command == "quality") return data + " dim epochs ranker";
  if (command == "attack" || command == "detect") {
    return environment + " method steps samples parallel";
  }
  if (command == "campaign") {
    return environment +
           " steps samples parallel retry-attempts max-grad-norm checkpoint"
           " checkpoint-every resume fault-failure fault-throttle fault-drop"
           " fault-ban fault-noise fault-stale fault-nan fault-seed defense"
           " defense-interval defense-bans defense-threshold defense-ban-prob"
           " defense-detector defense-seed pool-reserve pool-min-live guard"
           " guard-grad-max guard-entropy-floor guard-kl-max guard-rollbacks"
           " metrics-out trace-out events-out";
  }
  if (command == "fleet" && flags.Get("status", "false") == "true") {
    return " status journal checkpoint-dir telemetry-dir stale-after"
           " status-json watch";
  }
  if (command == "fleet") {
    return " status plan data journal checkpoint-dir report-json report-csv"
           " max-concurrent worker-id lease-ttl submit-dir publish-status"
           " telemetry-dir status-every metrics-out trace-out";
  }
  if (command == "trace-merge") return " out";
  if (command == "fsck") return " journal checkpoint-dir";
  return std::nullopt;
}

/// The flags read as counts (GetSize) and as reals (GetDouble).
constexpr const char* kCountFlags =
    " seed dim attackers length targets eval-users steps samples epochs"
    " num-threads retry-attempts checkpoint-every fault-seed"
    " defense-interval defense-bans defense-seed pool-reserve pool-min-live"
    " guard-rollbacks max-concurrent ";
constexpr const char* kRealFlags =
    " scale max-grad-norm fault-failure fault-throttle fault-drop fault-ban"
    " fault-noise fault-stale fault-nan defense-threshold defense-ban-prob"
    " guard-grad-max guard-entropy-floor guard-kl-max lease-ttl stale-after"
    " status-every watch ";

using MethodPtr = std::unique_ptr<attack::AttackMethod>;
using MethodFactory = MethodPtr (*)(const Flags&);

template <typename Method>
MethodPtr MakeWithDefaults(const Flags&) {
  return std::make_unique<Method>();
}

MethodPtr MakeAppGrad(const Flags& flags) {
  attack::AppGradConfig config;
  config.iterations = flags.GetSize("steps", 25);
  return std::make_unique<attack::AppGradAttack>(config);
}

MethodPtr MakePoisonRec(const Flags& flags) {
  core::PoisonRecConfig config;
  config.samples_per_step = flags.GetSize("samples", 8);
  config.batch_size = config.samples_per_step;
  config.policy.embedding_dim = flags.GetSize("dim", 16);
  config.parallel_rewards = flags.Get("parallel", "false") == "true";
  config.num_threads = flags.GetSize("num-threads", 0);
  return std::make_unique<attack::PoisonRecAttack>(
      config, flags.GetSize("steps", 25));
}

/// The attack methods --method names: BuildMethod makes one, and
/// RejectBadFlags checks the name here.
const std::map<std::string, MethodFactory>& Methods() {
  static const std::map<std::string, MethodFactory> methods = {
      {"random", MakeWithDefaults<attack::RandomAttack>},
      {"popular", MakeWithDefaults<attack::PopularAttack>},
      {"middle", MakeWithDefaults<attack::MiddleAttack>},
      {"poweritem", MakeWithDefaults<attack::PowerItemAttack>},
      {"conslop", MakeWithDefaults<attack::ConsLopAttack>},
      {"appgrad", MakeAppGrad},
      {"poisonrec", MakePoisonRec},
  };
  return methods;
}

/// Names the first argument `command` cannot take — a positional one
/// (only trace-merge takes any), a flag it does not know, a campaign
/// --defense-*, --pool-* or --guard-* flag whose switch is off, a count
/// or real that does not parse in full, a --ranker the registry does not
/// know, a --method not in Methods() or an unknown --dataset preset — on
/// stderr and returns 2; returns 0 when every argument is good. Runs
/// before any work.
int RejectBadFlags(const std::string& command, const std::string& known,
                   const Flags& flags) {
  if (command != "trace-merge" && !flags.positionals().empty()) {
    std::fprintf(stderr, "poisonrec %s: unexpected argument '%s'\n",
                 command.c_str(), flags.positionals().front().c_str());
    return 2;
  }
  const bool defended = flags.Get("defense", "false") == "true";
  const bool guarded = flags.Get("guard", "false") == "true";
  for (const auto& [key, value] : flags.values()) {
    const auto prefixed = [&key](const char* prefix) {
      return key.rfind(prefix, 0) == 0;
    };
    const auto listed = [&key](const std::string& list) {
      return list.find(" " + key + " ") != std::string::npos;
    };
    std::string error;
    if (!listed(" num-threads" + known + " ")) {
      error = "unknown flag --" + key;
    } else if (!defended && (prefixed("defense-") || prefixed("pool-"))) {
      error = "--" + key + " requires --defense";
    } else if (!guarded && prefixed("guard-")) {
      error = "--" + key + " requires --guard";
    } else if (listed(kCountFlags) && !ParseCount(value).has_value()) {
      error = "--" + key + ": '" + value + "' is not a count";
    } else if (listed(kRealFlags) && !ParseReal(value).has_value()) {
      error = "--" + key + ": '" + value + "' is not a number";
    } else if (key == "ranker") {
      const auto ranker = rec::MakeRecommender(value);
      if (!ranker.ok()) error = "--ranker: " + ranker.status().message();
    } else if (key == "method" && Methods().count(value) == 0) {
      error = "--method: unknown method '" + value + "' (want";
      for (const auto& [name, factory] : Methods()) error += " " + name;
      error += ")";
    } else if (key == "dataset") {
      const auto preset = data::ParseDatasetPreset(value);
      if (!preset.ok()) error = "--dataset: " + preset.status().message();
    }
    if (!error.empty()) {
      std::fprintf(stderr, "poisonrec %s: %s\n", command.c_str(),
                   error.c_str());
      return 2;
    }
  }
  return 0;
}

data::Dataset LoadOrGenerate(const Flags& flags) {
  const std::string path = flags.Get("data", "");
  if (!path.empty()) {
    auto loaded = data::LoadDatasetCsv(path);
    POISONREC_CHECK(loaded.ok()) << loaded.status();
    return std::move(loaded).value();
  }
  auto preset = data::ParseDatasetPreset(flags.Get("dataset", "Steam"));
  POISONREC_CHECK(preset.ok()) << preset.status();
  return data::GenerateSynthetic(data::PresetConfig(
      *preset, flags.GetDouble("scale", 0.1), flags.GetSize("seed", 1)));
}

std::unique_ptr<env::AttackEnvironment> BuildEnvironment(
    const Flags& flags, data::Dataset log, std::size_t extra_accounts = 0) {
  rec::FitConfig fit;
  fit.embedding_dim = flags.GetSize("dim", 16);
  fit.seed = flags.GetSize("seed", 1) ^ 0x5u;
  env::EnvironmentConfig config;
  config.num_attackers = flags.GetSize("attackers", 20) + extra_accounts;
  config.trajectory_length = flags.GetSize("length", 20);
  config.num_target_items = flags.GetSize("targets", 8);
  config.max_eval_users = flags.GetSize("eval-users", 200);
  config.seed = flags.GetSize("seed", 1) ^ 0x7u;
  auto ranker = rec::MakeRecommender(flags.Get("ranker", "ItemPop"), fit);
  POISONREC_CHECK(ranker.ok()) << ranker.status();
  return std::make_unique<env::AttackEnvironment>(
      log, std::move(ranker).value(), config);
}

std::unique_ptr<attack::AttackMethod> BuildMethod(const Flags& flags) {
  // RejectBadFlags has checked the name against Methods().
  return Methods().at(flags.Get("method", "poisonrec"))(flags);
}

int CmdDatagen(const Flags& flags) {
  data::Dataset log = LoadOrGenerate(flags);
  const std::string out = flags.Get("out", "log.csv");
  POISONREC_CHECK_OK(data::SaveDatasetCsv(log, out));
  std::printf("wrote %s (%zu users, %zu items, %zu events)\n", out.c_str(),
              log.num_users(), log.num_items(), log.num_interactions());
  return 0;
}

int CmdQuality(const Flags& flags) {
  data::Dataset full = LoadOrGenerate(flags);
  data::LeaveOneOutSplit split = data::SplitLeaveOneOut(full);
  rec::FitConfig fit;
  fit.embedding_dim = flags.GetSize("dim", 16);
  fit.epochs = flags.GetSize("epochs", 6);
  auto ranker = rec::MakeRecommender(flags.Get("ranker", "ItemPop"), fit);
  POISONREC_CHECK(ranker.ok()) << ranker.status();
  (*ranker)->Fit(split.train);
  rec::RankingQuality q =
      rec::EvaluateRanking(**ranker, full, split.test);
  std::printf("%s: HR@10 %.4f  NDCG@10 %.4f  (random floor %.4f, %zu "
              "held-out events)\n",
              (*ranker)->Name().c_str(), q.hit_rate, q.ndcg,
              rec::RandomHitRate(rec::EvalProtocol()), q.num_evaluated);
  return 0;
}

int CmdAttack(const Flags& flags) {
  auto environment = BuildEnvironment(flags, LoadOrGenerate(flags));
  std::printf("system: %s, baseline RecNum %.0f\n",
              environment->pretrained_ranker().Name().c_str(),
              environment->BaselineRecNum());
  auto method = BuildMethod(flags);
  const auto trajectories =
      method->GenerateAttack(*environment, flags.GetSize("seed", 1));
  std::printf("%s attack RecNum: %.0f\n", method->Name().c_str(),
              environment->Evaluate(trajectories));
  return 0;
}

int CmdDetect(const Flags& flags) {
  auto environment = BuildEnvironment(flags, LoadOrGenerate(flags));
  auto method = BuildMethod(flags);
  const auto trajectories =
      method->GenerateAttack(*environment, flags.GetSize("seed", 1));
  data::Dataset poisoned = environment->dataset().Clone();
  std::vector<data::UserId> fakes;
  for (const auto& t : trajectories) {
    const data::UserId u = environment->AttackerUserId(t.attacker_index);
    poisoned.AddSequence(u, t.items);
    fakes.push_back(u);
  }
  auto ensemble = defense::MakeDefaultEnsemble();
  std::printf("%s attack vs %s detector: AUC %.3f (RecNum %.0f)\n",
              method->Name().c_str(), ensemble->Name().c_str(),
              defense::DetectionAuc(ensemble->Score(poisoned), fakes),
              environment->Evaluate(trajectories));
  return 0;
}

/// End-of-campaign telemetry fan-out: summary table on stdout plus the
/// optional snapshot files. Called on every CmdCampaign exit path so an
/// aborted campaign still leaves its telemetry behind (that is exactly
/// when the post-mortem needs it).
void FinalizeTelemetry(const std::string& metrics_out,
                       const std::string& trace_out,
                       const std::string& events_out,
                       obs::EventLog* event_log) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static const char* const kSummaryCounters[] = {
      "poisonrec_ppo_steps_total",
      "poisonrec_ppo_retries_total",
      "poisonrec_ppo_failed_queries_total",
      "poisonrec_ppo_imputed_rewards_total",
      "poisonrec_ppo_rollbacks_total",
      "poisonrec_guard_trips_total",
      "poisonrec_defense_sweeps_total",
      "poisonrec_defense_bans_total",
      "poisonrec_fault_transient_failures_total",
      "poisonrec_fault_throttled_total",
      "poisonrec_gemm_nn_calls_total",
      "poisonrec_gemm_tn_calls_total",
      "poisonrec_gemm_nt_calls_total",
      "poisonrec_gemm_flops_total",
  };
  std::printf("telemetry summary\n");
  std::printf("  %-44s %16s\n", "metric", "value");
  for (const char* name : kSummaryCounters) {
    std::printf("  %-44s %16llu\n", name,
                static_cast<unsigned long long>(
                    reg.GetCounter(name)->Value()));
  }
  if (!metrics_out.empty()) {
    if (reg.WriteJson(metrics_out)) {
      std::printf("  metrics snapshot -> %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics snapshot %s\n",
                   metrics_out.c_str());
    }
  }
  if (!trace_out.empty()) {
    if (obs::WriteChromeTrace(trace_out)) {
      std::printf("  chrome trace (%zu spans, %zu dropped) -> %s\n",
                  obs::TraceEventCount(), obs::TraceDroppedCount(),
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out.c_str());
    }
  }
  if (event_log != nullptr && event_log->is_open()) {
    std::printf("  event stream (%llu lines) -> %s\n",
                static_cast<unsigned long long>(event_log->lines_written()),
                events_out.c_str());
    event_log->Close();
  }
}

/// The fault flags and the FaultProfile rates they set.
constexpr std::pair<const char*, double env::FaultProfile::*> kFaultFlags[] = {
    {"fault-failure", &env::FaultProfile::query_failure_rate},
    {"fault-throttle", &env::FaultProfile::throttle_rate},
    {"fault-drop", &env::FaultProfile::injection_drop_rate},
    {"fault-ban", &env::FaultProfile::shadow_ban_rate},
    {"fault-noise", &env::FaultProfile::reward_noise_stddev},
    {"fault-stale", &env::FaultProfile::stale_reward_rate},
    {"fault-nan", &env::FaultProfile::nan_reward_rate}};

int CmdCampaign(const Flags& flags) {
  const bool defended = flags.Get("defense", "false") == "true";
  // Each platform value meets its profile's range rule as it lands, so
  // the error names the flag before the ranker is pretrained.
  const auto bad_flag = [](const char* flag, const Status& status) {
    std::fprintf(stderr, "poisonrec campaign: --%s: %s\n", flag,
                 status.message().c_str());
    return 2;
  };
  env::FaultProfile profile;
  for (const auto& [flag, rate] : kFaultFlags) {
    profile.*rate = flags.GetDouble(flag, 0.0);
    const Status valid = env::ValidateFaultProfile(profile);
    if (!valid.ok()) return bad_flag(flag, valid);
  }
  profile.seed = flags.GetSize("fault-seed", 1234);
  env::DefenseProfile defense_profile;
  std::unique_ptr<defense::Detector> detector;
  if (defended) {
    defense_profile.detection_interval = flags.GetSize("defense-interval", 64);
    Status valid = env::ValidateDefenseProfile(defense_profile);
    if (!valid.ok()) return bad_flag("defense-interval", valid);
    defense_profile.bans_per_sweep = flags.GetSize("defense-bans", 2);
    defense_profile.suspicion_threshold =
        flags.GetDouble("defense-threshold", 0.0);
    defense_profile.ban_probability = flags.GetDouble("defense-ban-prob", 1.0);
    valid = env::ValidateDefenseProfile(defense_profile);
    if (!valid.ok()) return bad_flag("defense-ban-prob", valid);
    defense_profile.seed = flags.GetSize("defense-seed", 4321);
    auto made =
        defense::MakeDetector(flags.Get("defense-detector", "ensemble"));
    if (!made.ok()) return bad_flag("defense-detector", made.status());
    detector = std::move(made).value();
  }

  const std::string metrics_out = flags.Get("metrics-out", "");
  const std::string trace_out = flags.Get("trace-out", "");
  const std::string events_out = flags.Get("events-out", "");
  if (!trace_out.empty()) obs::SetTracingEnabled(true);
  obs::EventLog event_log;
  if (!events_out.empty()) {
    POISONREC_CHECK(event_log.Open(events_out))
        << "cannot open --events-out=" << events_out;
  }
  const std::size_t pool_reserve = flags.GetSize("pool-reserve", 0);
  auto environment = BuildEnvironment(flags, LoadOrGenerate(flags),
                                      defended ? pool_reserve : 0);
  std::printf("system: %s, baseline RecNum %.0f\n",
              environment->pretrained_ranker().Name().c_str(),
              environment->BaselineRecNum());

  // The fault layer is always there (a zero profile is the clean
  // platform); the defender wraps it when asked.
  env::FaultyEnvironment faulty(environment.get(), profile);
  std::unique_ptr<env::DefendedEnvironment> defender;
  if (defended) {
    defender = std::make_unique<env::DefendedEnvironment>(
        &faulty, std::move(detector), defense_profile);
    std::printf("defender: %s detector, sweep every %zu queries, "
                "%zu bans/sweep; attacker pool reserve %zu\n",
                flags.Get("defense-detector", "ensemble").c_str(),
                defense_profile.detection_interval,
                defense_profile.bans_per_sweep, pool_reserve);
  }

  const std::string checkpoint = flags.Get("checkpoint", "");
  const bool guarded = flags.Get("guard", "false") == "true";

  core::PoisonRecConfig config;
  config.samples_per_step = flags.GetSize("samples", 8);
  config.batch_size = config.samples_per_step;
  config.policy.embedding_dim = flags.GetSize("dim", 16);
  config.parallel_rewards = flags.Get("parallel", "false") == "true";
  config.num_threads = flags.GetSize("num-threads", 0);
  config.seed = flags.GetSize("seed", 1);
  config.retry.max_attempts = flags.GetSize("retry-attempts", 4);
  config.max_grad_norm =
      static_cast<float>(flags.GetDouble("max-grad-norm", 5.0));
  if (defended) {
    config.pool.reserve_accounts = pool_reserve;
    config.pool.min_live_attackers = flags.GetSize("pool-min-live", 2);
  }
  if (guarded) {
    config.guard.enabled = true;
    config.guard.grad_norm_threshold = flags.GetDouble("guard-grad-max", 100.0);
    config.guard.entropy_floor = flags.GetDouble("guard-entropy-floor", 1e-5);
    config.guard.approx_kl_threshold = flags.GetDouble("guard-kl-max", 5.0);
    config.guard.max_rollbacks = flags.GetSize("guard-rollbacks", 4);
  }

  core::PoisonRecAttacker attacker(environment.get(), config);
  const env::RewardSource* platform = &faulty;
  if (defender != nullptr) platform = defender.get();
  attacker.AttachPlatform(platform, defender.get());
  if (event_log.is_open()) {
    attacker.SetEventLog(&event_log);
    obs::JsonObjectBuilder b;
    b.Str("type", "campaign_begin")
        .Int("steps", flags.GetSize("steps", 25))
        .Int("samples_per_step", config.samples_per_step)
        .Int("seed", config.seed)
        .Bool("defense", defended)
        .Bool("guard", guarded);
    event_log.Append(std::move(b).Finish());
  }

  const std::size_t checkpoint_every = flags.GetSize("checkpoint-every", 5);
  if (flags.Get("resume", "false") == "true") {
    POISONREC_CHECK(!checkpoint.empty())
        << "--resume requires --checkpoint=<path>";
    if (std::filesystem::exists(checkpoint)) {
      POISONREC_CHECK_OK(attacker.LoadCheckpoint(checkpoint));
      std::printf("resumed from %s at step %zu\n", checkpoint.c_str(),
                  attacker.steps_taken());
    } else {
      std::printf("no checkpoint at %s yet; starting fresh\n",
                  checkpoint.c_str());
    }
  }

  const auto finalize = [&](const char* outcome) {
    if (event_log.is_open()) {
      obs::JsonObjectBuilder b;
      b.Str("type", "campaign_end")
          .Str("outcome", outcome)
          .Num("best_reward", attacker.best_episode().reward)
          .Int("steps_taken", attacker.steps_taken());
      event_log.Append(std::move(b).Finish());
    }
    FinalizeTelemetry(metrics_out, trace_out, events_out, &event_log);
  };

  const std::size_t total_steps = flags.GetSize("steps", 25);
  if (guarded) {
    POISONREC_CHECK(!checkpoint.empty())
        << "--guard requires --checkpoint=<path> for the last-good state";
    // TrainGuarded runs that many more steps; a resumed campaign still
    // stops at --steps.
    const core::GuardedTrainResult result = attacker.TrainGuarded(
        total_steps - std::min(total_steps, attacker.steps_taken()),
        checkpoint);
    for (const core::TrainStepStats& stats : result.stats) {
      std::printf("step %3zu  mean %7.1f  best %7.1f  loss %8.4f  "
                  "grad %7.3f  ent %6.3f  kl %8.5f  "
                  "sec %5.2f (smp %4.2f qry %4.2f upd %4.2f oth %4.2f)  %s",
                  stats.step, stats.mean_reward, stats.best_reward_so_far,
                  stats.loss, stats.pre_clip_grad_norm, stats.entropy,
                  stats.approx_kl, stats.seconds, stats.sample_seconds,
                  stats.query_seconds, stats.update_seconds,
                  stats.other_seconds,
                  stats.guard.tripped() ? stats.guard.Summary().c_str()
                                        : "clean");
      if (defended) {
        std::printf("  banned %zu  live %zu  pool %zu",
                    stats.banned_accounts, stats.effective_attackers,
                    stats.pool_remaining);
      }
      std::printf("\n");
    }
    std::printf("guardrails: %zu rollbacks, %zu incidents\n",
                result.rollbacks, result.incidents);
    if (!result.status.ok()) {
      std::fprintf(stderr, "campaign aborted: %s\n",
                   result.status.ToString().c_str());
      finalize("aborted");
      return 1;
    }
  } else {
    while (attacker.steps_taken() < total_steps &&
           attacker.campaign_status().ok()) {
      const core::TrainStepStats stats = attacker.TrainStep();
      std::printf("step %3zu  mean %7.1f  best %7.1f  loss %8.4f  "
                  "sec %5.2f (smp %4.2f qry %4.2f upd %4.2f oth %4.2f)  "
                  "failed %zu  retries %zu  imputed %zu",
                  stats.step, stats.mean_reward, stats.best_reward_so_far,
                  stats.loss, stats.seconds, stats.sample_seconds,
                  stats.query_seconds, stats.update_seconds,
                  stats.other_seconds, stats.failed_queries, stats.retries,
                  stats.imputed_rewards);
      if (defended) {
        std::printf("  banned %zu  live %zu  pool %zu",
                    stats.banned_accounts, stats.effective_attackers,
                    stats.pool_remaining);
      }
      std::printf("\n");
      if (!checkpoint.empty() &&
          (attacker.steps_taken() % checkpoint_every == 0 ||
           attacker.steps_taken() == total_steps ||
           !attacker.campaign_status().ok())) {
        POISONREC_CHECK_OK(attacker.SaveCheckpoint(checkpoint));
      }
    }
  }

  const env::FaultStats fault_stats = faulty.stats();
  std::printf("campaign done: best RecNum %.0f over %zu steps\n",
              attacker.best_episode().reward, attacker.steps_taken());
  std::printf("faults: %zu attempts, %zu transient failures, %zu throttled, "
              "%zu dropped clicks, %zu banned trajectories, %zu stale, "
              "%zu nan rewards\n",
              fault_stats.attempts, fault_stats.transient_failures,
              fault_stats.throttled, fault_stats.dropped_clicks,
              fault_stats.banned_trajectories, fault_stats.stale_rewards,
              fault_stats.nan_rewards);
  if (defender != nullptr) {
    const env::DefenseStats d = defender->stats();
    std::printf("defender: %zu queries audited, %zu sweeps, %zu bans, "
                "%zu filtered trajectories, %zu clicks on record\n",
                d.queries, d.sweeps, d.bans, d.filtered_trajectories,
                d.recorded_clicks);
    for (const env::BanEvent& ban : defender->ban_events()) {
      std::printf("  ban @query %zu: account %zu (user %zu), "
                  "suspicion %.4f\n",
                  static_cast<std::size_t>(ban.query_id), ban.attacker_index,
                  static_cast<std::size_t>(ban.user_id), ban.suspicion);
    }
    if (const core::AccountPool* pool = attacker.account_pool()) {
      std::printf("pool: %zu live slots, %zu reserve remaining, "
                  "%zu accounts retired\n",
                  pool->live_slots(), pool->reserve_remaining(),
                  pool->retired_accounts());
    }
    if (!attacker.campaign_status().ok()) {
      std::fprintf(stderr,
                   "campaign aborted: %s\n"
                   "post-mortem: the defender banned attacker accounts "
                   "faster than the pool could replace them; raise "
                   "--pool-reserve, lower the fleet's footprint "
                   "(shorter/more diverse trajectories), or accept a "
                   "smaller fleet via --pool-min-live\n",
                   attacker.campaign_status().ToString().c_str());
      finalize("aborted");
      return 1;
    }
  }
  finalize("ok");
  return 0;
}

// SIGINT/SIGTERM must only touch async-signal-safe state: a lock-free
// atomic pointer load plus RequestShutdownFromSignal (a single atomic
// store — no condition-variable notify, which is not signal-safe). The
// orchestrator notices within one watchdog poll, checkpoints every
// running campaign, journals, and returns.
std::atomic<orch::FleetOrchestrator*> g_fleet{nullptr};

void HandleFleetSignal(int /*signum*/) {
  orch::FleetOrchestrator* fleet = g_fleet.load(std::memory_order_acquire);
  if (fleet != nullptr) fleet->RequestShutdownFromSignal();
}

/// `fleet --status`: read-only aggregation of the journal family, live
/// leases, and worker status snapshots — no plan or dataset needed, so
/// it works mid-run from a different process than the workers.
int CmdFleetStatus(const Flags& flags) {
  orch::FleetStatusOptions options;
  options.journal_path =
      flags.Get("journal", "results/fleet_journal.jsonl");
  options.checkpoint_dir =
      flags.Get("checkpoint-dir", "results/fleet_checkpoints");
  options.telemetry_dir = flags.Get("telemetry-dir", "");
  options.stale_after_seconds = flags.GetDouble("stale-after", 0.0);
  const std::string status_json = flags.Get("status-json", "");
  const double watch_seconds = flags.GetDouble("watch", 0.0);
  for (;;) {
    const orch::FleetStatus status = orch::CollectFleetStatus(options);
    std::fputs(orch::FormatFleetStatusTable(status).c_str(), stdout);
    std::fflush(stdout);
    if (!status_json.empty()) {
      const Status wrote = WriteFileDurable(
          status_json, orch::FleetStatusJson(status) + "\n");
      if (!wrote.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", status_json.c_str(),
                     wrote.ToString().c_str());
        return 1;
      }
    }
    if (watch_seconds <= 0.0) return status.ExitCode();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(watch_seconds));
    std::printf("\n");
  }
}

/// Serializes a parsed JsonValue back to text (trace-merge re-emits
/// each span with a rewritten pid).
void SerializeJsonValue(const orch::JsonValue& value, std::string* out) {
  using Kind = orch::JsonValue::Kind;
  switch (value.kind) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += value.bool_value ? "true" : "false";
      break;
    case Kind::kNumber:
      obs::AppendJsonNumber(out, value.number_value);
      break;
    case Kind::kString:
      obs::AppendJsonString(out, value.string_value);
      break;
    case Kind::kArray: {
      *out += "[";
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) *out += ",";
        SerializeJsonValue(value.array[i], out);
      }
      *out += "]";
      break;
    }
    case Kind::kObject: {
      *out += "{";
      bool first = true;
      for (const auto& [key, member] : value.members) {
        if (!first) *out += ",";
        first = false;
        obs::AppendJsonString(out, key);
        *out += ":";
        SerializeJsonValue(member, out);
      }
      *out += "}";
      break;
    }
  }
}

/// `trace-merge`: fuses per-worker Chrome trace files into one timeline
/// with a process lane per input (pid = input index + 1, named after
/// the file), preserving tids and span args. Timestamps stay relative
/// to each file's own export epoch.
int CmdTraceMerge(const Flags& flags) {
  const std::vector<std::string>& inputs = flags.positionals();
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: poisonrec trace-merge <trace.json> [more ...] "
                 "[--out=results/fleet_trace.json]\n");
    return 2;
  }
  const std::string out_path =
      flags.Get("out", "results/fleet_trace.json");
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  std::size_t merged_spans = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    StatusOr<orch::JsonValue> parsed = orch::ParseJsonFile(inputs[i]);
    if (!parsed.ok() || !parsed->is_object()) {
      std::fprintf(stderr, "cannot parse trace %s%s%s\n", inputs[i].c_str(),
                   parsed.ok() ? "" : ": ",
                   parsed.ok() ? "" : parsed.status().ToString().c_str());
      return 1;
    }
    const std::uint64_t pid = i + 1;
    // A metadata event names the lane after the input file, so Perfetto
    // shows one titled process row per worker.
    std::string label = std::filesystem::path(inputs[i]).stem().string();
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":";
    obs::AppendJsonString(&out, label);
    out += "}}";
    const orch::JsonValue* events = parsed->Find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      std::fprintf(stderr, "%s has no traceEvents array\n",
                   inputs[i].c_str());
      return 1;
    }
    for (const orch::JsonValue& event : events->array) {
      if (!event.is_object()) continue;
      out += ",{";
      bool first_member = true;
      for (const auto& [key, member] : event.members) {
        if (key == "pid") continue;
        if (!first_member) out += ",";
        first_member = false;
        obs::AppendJsonString(&out, key);
        out += ":";
        SerializeJsonValue(member, &out);
      }
      if (!first_member) out += ",";
      out += "\"pid\":" + std::to_string(pid) + "}";
      ++merged_spans;
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  const Status wrote = WriteFileDurable(out_path, out);
  if (!wrote.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 wrote.ToString().c_str());
    return 1;
  }
  std::printf("merged %zu span(s) from %zu trace(s) -> %s\n", merged_spans,
              inputs.size(), out_path.c_str());
  return 0;
}

int CmdFleet(const Flags& flags) {
  if (flags.Get("status", "false") == "true") return CmdFleetStatus(flags);
  const std::string plan_path = flags.Get("plan", "");
  if (plan_path.empty()) {
    std::fprintf(stderr, "fleet requires --plan=<json>\n");
    return 2;
  }
  StatusOr<orch::FleetPlan> plan = orch::LoadFleetPlan(plan_path);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load fleet plan %s: %s\n",
                 plan_path.c_str(), plan.status().ToString().c_str());
    return 1;
  }

  const std::string metrics_out = flags.Get("metrics-out", "");
  const std::string trace_out = flags.Get("trace-out", "");
  if (!trace_out.empty()) obs::SetTracingEnabled(true);

  // The whole fleet shares one clean interaction log; per-campaign
  // variation comes from the spec (ranker, faults, defense, seeds).
  const std::string data_path = flags.Get("data", "");
  data::Dataset log = [&]() -> data::Dataset {
    if (!data_path.empty()) {
      auto loaded = data::LoadDatasetCsv(data_path);
      POISONREC_CHECK(loaded.ok()) << loaded.status();
      return std::move(loaded).value();
    }
    auto preset = data::ParseDatasetPreset(plan->dataset);
    POISONREC_CHECK(preset.ok()) << preset.status();
    return data::GenerateSynthetic(
        data::PresetConfig(*preset, plan->scale, plan->dataset_seed));
  }();

  orch::FleetOptions options;
  options.journal_path =
      flags.Get("journal", "results/fleet_journal.jsonl");
  options.checkpoint_dir =
      flags.Get("checkpoint-dir", "results/fleet_checkpoints");
  options.report_json_path =
      flags.Get("report-json", "results/fleet_report.json");
  options.report_csv_path =
      flags.Get("report-csv", "results/fleet_report.csv");
  options.max_concurrent = flags.GetSize("max-concurrent", 2);
  // Processes with the same plan/journal/checkpoint paths claim
  // campaigns through leases (orch/lease.h) and merge their journals;
  // Run rejects a TTL that is not finite and > 0.
  options.worker_id = flags.Get("worker-id", "");
  options.lease_ttl_seconds =
      flags.GetDouble("lease-ttl", options.lease_ttl_seconds);
  options.submit_dir = flags.Get("submit-dir", "");
  options.publish_status = flags.Get("publish-status", "true") != "false";
  options.telemetry_dir = flags.Get("telemetry-dir", "");
  options.status_publish_seconds = flags.GetDouble("status-every", 0.25);

  std::printf("fleet %s: %zu campaign(s), dataset %s (%zu users, %zu "
              "items), %zu at once, worker %s%s\n",
              plan->name.c_str(), plan->campaigns.size(),
              plan->dataset.c_str(), log.num_users(), log.num_items(),
              options.max_concurrent,
              options.worker_id.empty() ? "<auto>"
                                        : options.worker_id.c_str(),
              options.submit_dir.empty() ? "" : ", watching submissions");

  orch::FleetOrchestrator orchestrator(std::move(plan).value(), &log,
                                       options);
  g_fleet.store(&orchestrator, std::memory_order_release);
  std::signal(SIGINT, HandleFleetSignal);
  std::signal(SIGTERM, HandleFleetSignal);
  const orch::FleetResult result = orchestrator.Run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_fleet.store(nullptr, std::memory_order_release);

  for (const orch::CampaignOutcome& outcome : result.outcomes) {
    std::printf("  %-32s %-12s steps %3llu  best %7.1f  restarts %llu  "
                "rollbacks %llu  %5.1fs%s%s%s%s\n",
                outcome.id.c_str(),
                orch::CampaignStateName(outcome.state),
                static_cast<unsigned long long>(outcome.steps_completed),
                outcome.best_reward,
                static_cast<unsigned long long>(outcome.restarts),
                static_cast<unsigned long long>(outcome.rollbacks),
                outcome.wall_seconds,
                outcome.recovered_from_journal ? "  [recovered]" : "",
                outcome.interrupted ? "  [interrupted]" : "",
                outcome.detail.empty() ? "" : "  ",
                outcome.detail.c_str());
  }
  std::printf("fleet %s: %zu done, %zu quarantined, %zu failed, "
              "%zu interrupted, %zu recovered, %zu preemption(s), "
              "%zu fenced in %.1fs\n",
              result.plan_name.c_str(), result.done, result.quarantined,
              result.failed, result.interrupted, result.recovered,
              result.preemptions, result.fenced, result.wall_seconds);
  if (!options.report_json_path.empty() && result.status.ok()) {
    std::printf("  report -> %s\n", options.report_json_path.c_str());
  }
  if (orchestrator.shutdown_requested()) {
    std::printf("shutdown requested: unfinished campaigns are "
                "checkpointed; rerun the same command to continue\n");
  }
  if (!metrics_out.empty()) {
    obs::MetricsRegistry::Global().WriteJson(metrics_out);
  }
  if (!trace_out.empty()) obs::WriteChromeTrace(trace_out);
  if (!result.status.ok()) {
    std::fprintf(stderr, "fleet failed: %s\n",
                 result.status.ToString().c_str());
  }
  return result.ExitCode();
}

int CmdFsck(const Flags& flags) {
  orch::FsckOptions options;
  options.journal_path =
      flags.Get("journal", "results/fleet_journal.jsonl");
  options.checkpoint_dir =
      flags.Get("checkpoint-dir", "results/fleet_checkpoints");
  StatusOr<orch::FsckReport> report = orch::RunFsck(options);
  if (!report.ok()) {
    std::fprintf(stderr, "fsck failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(orch::FormatFsckReport(*report).c_str(), stdout);
  return report->ExitCode();
}

int Usage() {
  std::fprintf(stderr,
               "usage: poisonrec "
               "<datagen|quality|attack|detect|campaign|fleet|trace-merge|"
               "fsck> [--flag=value ...]\n"
               "see tools/poisonrec_cli.cc for the flag list\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv);
  const std::optional<std::string> known = KnownFlags(command, flags);
  if (!known.has_value()) return Usage();
  if (const int rc = RejectBadFlags(command, *known, flags); rc != 0) {
    return rc;
  }
  // Kernel-level GEMM threading is a process-wide knob; the same flag
  // also feeds PoisonRecConfig::num_threads for concurrent reward
  // queries (--parallel).
  nn::SetNumThreads(flags.GetSize("num-threads", 0));
  if (command == "datagen") return CmdDatagen(flags);
  if (command == "quality") return CmdQuality(flags);
  if (command == "attack") return CmdAttack(flags);
  if (command == "detect") return CmdDetect(flags);
  if (command == "campaign") return CmdCampaign(flags);
  if (command == "fleet") return CmdFleet(flags);
  if (command == "trace-merge") return CmdTraceMerge(flags);
  if (command == "fsck") return CmdFsck(flags);
  return Usage();
}

}  // namespace
}  // namespace poisonrec::cli

int main(int argc, char** argv) { return poisonrec::cli::Main(argc, argv); }
