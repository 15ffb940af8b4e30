// Shared scaffolding for the experiment harnesses. Every bench binary
// reproduces one table or figure of the paper at a configurable scale:
//
//   POISONREC_SCALE     dataset scale factor (default 0.1; 1.0 = paper)
//   POISONREC_STEPS     PoisonRec training steps per testbed (default 25)
//   POISONREC_SAMPLES   episodes per training step M=B (default 8)
//   POISONREC_DIM       embedding size |e| (default 16; paper 64)
//   POISONREC_RANKERS   comma list of rankers (default: all 8)
//   POISONREC_DATASETS  comma list of datasets (default varies per bench)
//   POISONREC_EVAL_USERS users sampled for RecNum (default 200; 0 = all)
//   POISONREC_OUT       directory for CSV/JSON outputs (default: the
//                       source tree's results/, set at build time)
//
// Absolute RecNum values scale with the dataset; the *shape* of each
// result (who wins, convergence ordering, crossovers) is the
// reproduction target. See EXPERIMENTS.md.
#ifndef POISONREC_BENCH_COMMON_H_
#define POISONREC_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/poisonrec.h"

namespace poisonrec::bench {

/// Scaled-down defaults of the paper's experimental protocol.
struct BenchConfig {
  double scale = 0.1;
  std::size_t training_steps = 25;
  std::size_t samples_per_step = 8;
  std::size_t embedding_dim = 16;
  std::size_t num_attackers = 20;       // paper: 20
  std::size_t trajectory_length = 20;   // paper: 20
  std::size_t num_target_items = 8;     // paper: 8
  std::size_t candidate_originals = 92; // paper: 92
  std::size_t top_k = 10;               // paper: 10
  /// RecNum is measured over a fixed random sample of users so reward
  /// evaluation cost is independent of dataset size (0 = all users).
  std::size_t max_eval_users = 200;
  std::vector<std::string> rankers;
  std::vector<std::string> datasets;
  std::string out_dir;  // LoadBenchConfig: POISONREC_OUT or results/
  std::uint64_t seed = 2020;
};

/// Reads the POISONREC_* environment overrides.
BenchConfig LoadBenchConfig();

/// Generates the synthetic stand-in for a paper dataset at the configured
/// scale.
data::Dataset MakeDataset(const BenchConfig& config,
                          data::DatasetPreset preset);

/// Builds the black-box system: synthetic log + pretrained ranker.
std::unique_ptr<env::AttackEnvironment> MakeEnvironment(
    const BenchConfig& config, data::DatasetPreset preset,
    const std::string& ranker_name);

/// PoisonRec configuration matching the paper's hyperparameters at bench
/// scale (M=B, K=3, alpha=2e-3, eps=0.1).
core::PoisonRecConfig MakePoisonRecConfig(const BenchConfig& config,
                                          core::ActionSpaceKind kind,
                                          std::uint64_t seed);

/// Fixed-width table formatting.
void PrintTableHeader(const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);
std::string FormatCount(double value);

/// Writes rows to `<out_dir>/<name>` and logs the path.
void WriteCsvOutput(const BenchConfig& config, const std::string& name,
                    const std::vector<std::vector<std::string>>& rows);

/// Writes rows as a machine-readable JSON array of objects to
/// `<out_dir>/<name>`. rows[0] supplies the keys; cells that parse fully
/// as a finite number are emitted unquoted, everything else as a string.
void WriteJsonOutput(const BenchConfig& config, const std::string& name,
                     const std::vector<std::vector<std::string>>& rows);

}  // namespace poisonrec::bench

#endif  // POISONREC_BENCH_COMMON_H_
