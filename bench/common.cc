#include "bench/common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/json.h"
#include "util/csv.h"
#include "util/logging.h"

namespace poisonrec::bench {

namespace {

std::string GetEnvOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::string(value);
}

double GetEnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

std::size_t GetEnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr
             ? fallback
             : static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::string current;
  for (char c : csv) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

}  // namespace

BenchConfig LoadBenchConfig() {
  BenchConfig config;
  config.scale = GetEnvDouble("POISONREC_SCALE", config.scale);
  config.training_steps =
      GetEnvSize("POISONREC_STEPS", config.training_steps);
  config.samples_per_step =
      GetEnvSize("POISONREC_SAMPLES", config.samples_per_step);
  config.embedding_dim = GetEnvSize("POISONREC_DIM", config.embedding_dim);
  config.rankers = SplitList(GetEnvOr("POISONREC_RANKERS", ""));
  if (config.rankers.empty()) config.rankers = rec::AllRecommenderNames();
  config.datasets = SplitList(GetEnvOr("POISONREC_DATASETS", ""));
  config.max_eval_users =
      GetEnvSize("POISONREC_EVAL_USERS", config.max_eval_users);
  config.out_dir = GetEnvOr("POISONREC_OUT", POISONREC_RESULTS_DIR);
  return config;
}

data::Dataset MakeDataset(const BenchConfig& config,
                          data::DatasetPreset preset) {
  data::SyntheticConfig synth =
      data::PresetConfig(preset, config.scale, config.seed);
  return data::GenerateSynthetic(synth);
}

std::unique_ptr<env::AttackEnvironment> MakeEnvironment(
    const BenchConfig& config, data::DatasetPreset preset,
    const std::string& ranker_name) {
  data::Dataset log = MakeDataset(config, preset);

  rec::FitConfig fit;
  fit.embedding_dim = config.embedding_dim;
  fit.epochs = 4;
  fit.update_epochs = 3;
  fit.seed = config.seed ^ 0x51u;

  env::EnvironmentConfig env_config;
  env_config.num_attackers = config.num_attackers;
  env_config.trajectory_length = config.trajectory_length;
  env_config.num_target_items = config.num_target_items;
  env_config.num_candidate_originals = config.candidate_originals;
  env_config.top_k = config.top_k;
  env_config.max_eval_users = config.max_eval_users;
  env_config.seed = config.seed ^ 0x77u;

  auto ranker = rec::MakeRecommender(ranker_name, fit);
  POISONREC_CHECK(ranker.ok()) << ranker.status();
  return std::make_unique<env::AttackEnvironment>(
      log, std::move(ranker).value(), env_config);
}

core::PoisonRecConfig MakePoisonRecConfig(const BenchConfig& config,
                                          core::ActionSpaceKind kind,
                                          std::uint64_t seed) {
  core::PoisonRecConfig pr;
  pr.samples_per_step = config.samples_per_step;
  pr.batch_size = config.samples_per_step;  // paper: M = B
  pr.update_epochs = 3;                     // paper: K = 3
  pr.learning_rate = 2e-3f;                 // paper
  pr.clip_epsilon = 0.1f;                   // paper
  pr.policy.embedding_dim = config.embedding_dim;
  pr.policy.action_space = kind;
  pr.policy.seed = seed ^ 0x9e37u;
  pr.seed = seed;
  return pr;
}

void PrintTableHeader(const std::vector<std::string>& columns) {
  PrintTableRow(columns);
  std::string sep;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    sep += std::string(i == 0 ? 14 : 12, '-');
  }
  std::printf("%s\n", sep.c_str());
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-14s" : "%12s", cells[i].c_str());
  }
  std::printf("\n");
}

std::string FormatCount(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  return buffer;
}

void WriteCsvOutput(const BenchConfig& config, const std::string& name,
                    const std::vector<std::vector<std::string>>& rows) {
  const std::string path = config.out_dir + "/" + name;
  Status status = WriteCsv(path, rows);
  if (status.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("failed to write %s: %s\n", path.c_str(),
                status.ToString().c_str());
  }
}

void WriteJsonOutput(const BenchConfig& config, const std::string& name,
                     const std::vector<std::vector<std::string>>& rows) {
  const std::string path = config.out_dir + "/" + name;
  std::string body = "[\n";
  if (!rows.empty()) {
    const std::vector<std::string>& keys = rows[0];
    for (std::size_t r = 1; r < rows.size(); ++r) {
      body += "  {";
      for (std::size_t c = 0; c < keys.size() && c < rows[r].size(); ++c) {
        if (c > 0) body += ", ";
        obs::AppendJsonString(&body, keys[c]);
        body += ": ";
        if (obs::IsJsonNumberLiteral(rows[r][c])) {
          body += rows[r][c];
        } else {
          obs::AppendJsonString(&body, rows[r][c]);
        }
      }
      body += r + 1 < rows.size() ? "},\n" : "}\n";
    }
  }
  body += "]\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::printf("failed to write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace poisonrec::bench
