// Campaign-step benchmark: runs PoisonRec Algorithm 1 steps against a
// black-box ranker on one named workload and prints its metrics, ending
// with one JSON line. See README.md for the workloads and metrics.
//
//   campbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// A run is the workload's campaigns, one after the other, each stepped
// kSteps times. The work is fixed, so --seconds is accepted for the
// common command line and otherwise ignored. --trace 0 runs them untraced
// and reports the end-to-end metrics. --trace 1 runs each campaign
// untraced, then again with the ranker wrapped in a TracedRecommender and
// span recording on, checks that both give the same rewards, and reports
// the per-layer metrics. Exits 1 when a correctness check fails, 2 on bad
// arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace poisonrec::campbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note = {};
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "campbench: %s\nusage: campbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:",
               error.c_str());
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      std::strtod(value.c_str(), &end);  // checked, not used
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (FindWorkload(options.workload) == nullptr) {
    Usage("unknown workload '" + options.workload + "'");
  }
  return options;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Steps after the first: the first pays one-time warm-up (pool threads,
// arena growth, first-touch allocation) and is reported on its own.
std::vector<const StepRecord*> SteadySteps(const CampaignRun& run) {
  std::vector<const StepRecord*> steady;
  for (std::size_t i = 1; i < run.steps.size(); ++i) {
    steady.push_back(&run.steps[i]);
  }
  return steady;
}

struct Outcome {
  std::vector<Metric> metrics;
  /// Printed with the metrics but not part of the JSON result.
  std::vector<Metric> printed_only;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;  // reward queries
  std::uint64_t failed = 0;
};

// The correctness gate: counts the campaign's reward queries and records
// one line per violation.
void CheckRun(const Campaign& campaign, const CampaignRun& run,
              Outcome* outcome) {
  const double max_recnum = static_cast<double>(
      campaign.eval_users * campaign.env->config().top_k);
  auto in_range = [max_recnum](double r) {
    return std::isfinite(r) && r >= 0.0 && r <= max_recnum;
  };
  for (const StepRecord& s : run.steps) {
    const core::TrainStepStats& st = s.stats;
    outcome->attempted += campaign.attacker->config().samples_per_step;
    outcome->failed += st.failed_queries;
    // Every reward of the step lies in [min, max].
    if (!in_range(st.min_reward) || !in_range(st.max_reward) ||
        !(st.min_reward <= st.mean_reward && st.mean_reward <= st.max_reward)) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "step %zu: rewards min %g mean %g max %g outside [0, %g]",
                    st.step, st.min_reward, st.mean_reward, st.max_reward,
                    max_recnum);
      outcome->violations.push_back(line);
    }
    if (st.failed_queries != 0) {
      outcome->violations.push_back(
          "step " + std::to_string(st.step) + ": " +
          std::to_string(st.failed_queries) + " reward queries failed");
    }
  }
  const double replayed = campaign.env->Evaluate(run.best_attack);
  if (replayed != run.best_recnum) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "best attack re-evaluates to RecNum %g, campaign saw %g",
                  replayed, run.best_recnum);
    outcome->violations.push_back(line);
  }
}

// Reward sequences of two runs of one campaign must match exactly.
void CheckSameRewards(const CampaignRun& untraced, const CampaignRun& traced,
                      Outcome* outcome) {
  for (std::size_t i = 0; i < traced.steps.size(); ++i) {
    const core::TrainStepStats& a = untraced.steps[i].stats;
    const core::TrainStepStats& b = traced.steps[i].stats;
    if (a.mean_reward != b.mean_reward || a.min_reward != b.min_reward ||
        a.max_reward != b.max_reward ||
        a.best_reward_so_far != b.best_reward_so_far) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "step %zu: traced rewards (mean %.17g min %g max %g) "
                    "differ from untraced (mean %.17g min %g max %g)",
                    i, b.mean_reward, b.min_reward, b.max_reward,
                    a.mean_reward, a.min_reward, a.max_reward);
      outcome->violations.push_back(line);
    }
  }
}

void PrintRunHeader(const Workload& workload, const Options& options,
                    const char* mode) {
  std::printf("%s: seed %llu, %s, %zu campaigns x %zu steps "
              "(1 warm-up + %zu steady)\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(options.seed), mode,
              workload.campaigns, kSteps, kSteps - 1);
}

Outcome RunUntraced(const Workload& workload, const Options& options) {
  PrintRunHeader(workload, options, "untraced");
  Outcome outcome;
  std::vector<double> setups, walls;
  double wall = 0.0, cpu = 0.0, best_recnum = 0.0;
  for (std::size_t c = 0; c < workload.campaigns; ++c) {
    Campaign campaign = SetUp(workload, options.seed, c, nullptr);
    const CampaignRun run = RunSteps(&campaign, nullptr);
    CheckRun(campaign, run, &outcome);
    setups.push_back(campaign.times.total_s);
    best_recnum += run.best_recnum / workload.campaigns;
    for (const StepRecord* s : SteadySteps(run)) {
      walls.push_back(s->wall_s);
      wall += s->wall_s;
      cpu += s->cpu_s;
    }
  }
  const double n = static_cast<double>(walls.size());
  const std::string steady = std::to_string(walls.size()) + " steady steps";
  outcome.metrics = {
      {"steps_per_s", n / wall, "1/s", steady},
      {"step_s_p50", Median(walls), "s", steady},
      {"step_cpu_s", cpu / n, "s", "all threads"},
      {"setup_s", Median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"peak_rss_mb", PeakRssMiB(), "MiB", ""},
  };
  // Attack quality differs from seed to seed far more than any bound a
  // timing metric could share, and failed queries are the result's
  // `failed` count, so neither is a metric of the JSON result.
  outcome.printed_only = {
      {"best_recnum", best_recnum, "count",
       "mean over campaigns of the best within " +
           std::to_string(kSteps) + " steps"},
      {"query_fail_ratio",
       static_cast<double>(outcome.failed) /
           static_cast<double>(outcome.attempted),
       "ratio",
       std::to_string(outcome.failed) + " of " +
           std::to_string(outcome.attempted) + " reward queries"},
  };
  return outcome;
}

// Per-layer totals over the steady steps of a traced run.
struct LayerSums {
  RecTotals rec;
  GemmCount gemm;
  double query_s = 0.0, sample_s = 0.0, update_s = 0.0, other_s = 0.0;
  double wall = 0.0, cpu = 0.0, informative = 0.0, steps = 0.0;

  void Add(const StepRecord& s) {
    rec += s.rec;
    gemm += s.gemm;
    query_s += s.stats.query_seconds;
    sample_s += s.stats.sample_seconds;
    update_s += s.stats.update_seconds;
    other_s += s.stats.other_seconds;
    wall += s.wall_s;
    cpu += s.cpu_s;
    if (s.stats.max_reward != s.stats.min_reward) informative += 1.0;
    steps += 1.0;
  }
};

Outcome RunTraced(const Workload& workload, const Options& options) {
  PrintRunHeader(workload, options, "untraced then traced");
  Outcome outcome;
  LayerSums sums;
  std::vector<double> data_s, fit_s, init_s, first_s, walls, untraced_walls;
  double best_recnum = 0.0;
  obs::ClearTrace();
  for (std::size_t c = 0; c < workload.campaigns; ++c) {
    CampaignRun reference;
    {
      Campaign campaign = SetUp(workload, options.seed, c, nullptr);
      reference = RunSteps(&campaign, nullptr);
    }
    for (const StepRecord* s : SteadySteps(reference)) {
      untraced_walls.push_back(s->wall_s);
    }

    auto ledger = std::make_shared<RecLedger>();
    obs::SetTracingEnabled(true);
    Campaign campaign = SetUp(workload, options.seed, c, ledger);
    fit_s.push_back(ledger->Totals().fit_s);
    const CampaignRun run = RunSteps(&campaign, ledger.get());
    obs::SetTracingEnabled(false);

    CheckSameRewards(reference, run, &outcome);
    CheckRun(campaign, run, &outcome);
    data_s.push_back(campaign.times.data_s);
    init_s.push_back(campaign.times.core_s);
    first_s.push_back(run.steps.front().wall_s);
    best_recnum += run.best_recnum / workload.campaigns;
    for (const StepRecord* s : SteadySteps(run)) {
      sums.Add(*s);
      walls.push_back(s->wall_s);
    }
  }
  if (!options.trace_out.empty() && !obs::WriteChromeTrace(options.trace_out)) {
    outcome.violations.push_back("cannot write " + options.trace_out);
  }
  std::printf("  %zu trace events (%zu dropped)%s%s\n", obs::TraceEventCount(),
              obs::TraceDroppedCount(), options.trace_out.empty() ? "" : " in ",
              options.trace_out.c_str());

  const double n = sums.steps;
  const RecTotals& rec = sums.rec;
  const GemmCount core_gemm = sums.gemm - rec.query_gemm;
  outcome.metrics = {
      {"data.generate_s", Median(data_s), "s"},
      {"rec.fit_s", Median(fit_s), "s"},
      {"core.init_s", Median(init_s), "s"},
      {"rec.clone_s", rec.clone_s / n, "s"},
      {"rec.update_s", rec.update_s / n, "s"},
      {"rec.score_s", rec.score_s / n, "s"},
      {"rec.update_calls", static_cast<double>(rec.update_calls) / n, "count"},
      {"rec.score_calls", static_cast<double>(rec.score_calls) / n, "count"},
      {"env.query_s", sums.query_s / n, "s"},
      {"env.self_s", (rec.query_s - rec.busy_s()) / n, "s"},
      {"env.query_concurrency", rec.busy_s() / sums.query_s, "ratio"},
      {"core.sample_s", sums.sample_s / n, "s"},
      {"core.update_s", sums.update_s / n, "s"},
      {"core.other_s", sums.other_s / n, "s"},
      {"core.first_step_s", Median(first_s), "s"},
      {"core.informative_step_ratio", sums.informative / n, "ratio"},
      {"core.best_recnum", best_recnum, "count"},
      {"nn.gemm_calls", static_cast<double>(sums.gemm.calls) / n, "count"},
      {"nn.gemm_calls.rec", static_cast<double>(rec.query_gemm.calls) / n,
       "count"},
      {"nn.gemm_calls.core", static_cast<double>(core_gemm.calls) / n,
       "count"},
      {"nn.gemm_gflop", 1e-9 * static_cast<double>(sums.gemm.flops) / n,
       "GFLOP"},
      {"nn.gemm_gflop.rec",
       1e-9 * static_cast<double>(rec.query_gemm.flops) / n, "GFLOP"},
      {"nn.gemm_gflop.core", 1e-9 * static_cast<double>(core_gemm.flops) / n,
       "GFLOP"},
      {"util.cpu_per_wall", sums.cpu / sums.wall, "threads"},
      {"obs.trace_overhead", Median(walls) / Median(untraced_walls), "ratio"},
  };
  // The shares that say why the workload exists (README.md, Workloads).
  outcome.printed_only = {
      {"rec_share", rec.busy_s() / sums.wall, "ratio",
       "ranker thread-seconds per steady step second"},
      {"core_update_share", sums.update_s / sums.wall, "ratio",
       "PPO update seconds per steady step second"},
  };
  return outcome;
}

}  // namespace
}  // namespace poisonrec::campbench

int main(int argc, char** argv) {
  using namespace poisonrec::campbench;
  const Options options = ParseOptions(argc, argv);
  const Workload& workload = *FindWorkload(options.workload);
  Outcome outcome = options.trace ? RunTraced(workload, options)
                                  : RunUntraced(workload, options);
  // A run too short to have a steady step leaves nothing to report.
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.violations.push_back(m.name + " is not finite");
    }
  }
  for (const auto* list : {&outcome.metrics, &outcome.printed_only}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  for (const std::string& v : outcome.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::string metrics = "{";
  for (const Metric& m : outcome.metrics) {
    if (metrics.size() > 1) metrics += ",";
    poisonrec::obs::AppendJsonString(&metrics, m.name);
    metrics += ":";
    poisonrec::obs::JsonObjectBuilder entry;
    entry.Num("value", m.value).Str("unit", m.unit);
    metrics += std::move(entry).Finish();
  }
  metrics += "}";
  const bool correct = outcome.violations.empty();
  poisonrec::obs::JsonObjectBuilder result;
  result.Bool("correct", correct)
      .Int("attempted", outcome.attempted)
      .Int("failed", outcome.failed)
      .Raw("metrics", metrics);
  std::printf("%s\n", std::move(result).Finish().c_str());
  return correct ? 0 : 1;
}
