// The black-box attack environment (paper Figure 2). It owns the clean
// log and a pretrained Ranker, exposes only what a real attacker can see
// (item count, item popularity, the RecNum reward), and evaluates attacks
// by Algorithm 1's DataPoisoning: reload the pretrained ranker, update it
// with the injected fake behaviors, then simulate user traffic and count
// page views of the target items (Eq. 1).
#ifndef POISONREC_ENV_ENVIRONMENT_H_
#define POISONREC_ENV_ENVIRONMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/dataset.h"
#include "rec/candidates.h"
#include "rec/recommender.h"
#include "util/status.h"

namespace poisonrec::env {

/// One attacker's fake behavior sequence: T ordered item clicks.
struct Trajectory {
  /// Attacker index in [0, N). The environment maps it to a reserved fake
  /// user id.
  std::size_t attacker_index = 0;
  std::vector<data::ItemId> items;
};

struct EnvironmentConfig {
  /// N: number of controlled fake users.
  std::size_t num_attackers = 20;
  /// T: clicks per attacker.
  std::size_t trajectory_length = 20;
  /// |I_t|: target items are appended as new item ids (paper: 8 new items).
  std::size_t num_target_items = 8;
  /// Candidate Generation: random originals per user (paper: 92).
  std::size_t num_candidate_originals = 92;
  /// Length of each recommendation list L_u (paper: 10).
  std::size_t top_k = 10;
  /// false = Algorithm 1 semantics (clone pretrained ranker + incremental
  /// update with the poison log). true = retrain from scratch on
  /// clean + poison (ablation).
  bool full_retrain = false;
  /// false = the paper's random Candidate Generation. true = personalized
  /// candidates from clean-log co-occurrence (ablation; a harder surface
  /// because the originals are each user's strongest items).
  bool personalized_candidates = false;
  /// Cap on evaluated users (0 = all users with history). Smaller caps
  /// speed up reward evaluation; RecNum scales accordingly.
  std::size_t max_eval_users = 0;
  std::uint64_t seed = 42;
};

class AttackEnvironment;

/// Where reward queries go: the bare black box or a decorator stacked
/// over it (env/fault.h, env/defended.h), all answering the same query.
class RewardSource {
 public:
  virtual ~RewardSource() = default;
  /// The bare environment at the bottom of the stack.
  virtual const AttackEnvironment& base() const = 0;
  /// One attempt at the RecNum (Eq. 1) of `trajectories`, or a retriable
  /// error (util/retry.h). Draws are pure functions of (query_id,
  /// attempt), so a resumed run replays the same stream.
  virtual StatusOr<double> TryEvaluate(
      const std::vector<Trajectory>& trajectories, std::uint64_t query_id,
      std::uint32_t attempt = 0) const = 0;
};

/// Black-box recommender system under attack.
class AttackEnvironment : public RewardSource {
 public:
  /// Takes the clean log (`base` capacities = real users/items only) and
  /// an unfitted ranker; expands the id spaces with attacker users and
  /// target items, then pretrains the ranker on the expanded clean log.
  AttackEnvironment(const data::Dataset& base,
                    std::unique_ptr<rec::Recommender> ranker,
                    const EnvironmentConfig& config);

  // -- Attacker-visible knowledge ------------------------------------------
  std::size_t num_original_items() const { return num_original_items_; }
  std::size_t num_total_items() const {
    return num_original_items_ + target_items_.size();
  }
  const std::vector<data::ItemId>& target_items() const {
    return target_items_;
  }
  /// Popularity ("sales volume") of every item — crawlable public info.
  const std::vector<std::size_t>& item_popularity() const {
    return dataset_.ItemPopularity();
  }
  std::size_t num_attackers() const { return config_.num_attackers; }
  std::size_t trajectory_length() const { return config_.trajectory_length; }
  const EnvironmentConfig& config() const { return config_; }

  // -- White-box access (for tests/analysis; NOT used by attacks) ----------
  const data::Dataset& dataset() const { return dataset_; }
  const rec::Recommender& pretrained_ranker() const { return *ranker_; }

  /// Fake user id reserved for attacker `i`.
  data::UserId AttackerUserId(std::size_t attacker_index) const;

  /// Injects the fake trajectories into a fresh copy of the system and
  /// returns RecNum (Eq. 1). The environment itself is unchanged, so
  /// repeated calls are independent attacks on the same pretrained system.
  double Evaluate(const std::vector<Trajectory>& trajectories) const;

  /// RecNum with no attack at all.
  double BaselineRecNum() const { return Evaluate({}); }

  // -- RewardSource: the clean black box answers every attempt ----------
  const AttackEnvironment& base() const override { return *this; }
  StatusOr<double> TryEvaluate(const std::vector<Trajectory>& trajectories,
                               std::uint64_t /*query_id*/,
                               std::uint32_t /*attempt*/ = 0) const override {
    return Evaluate(trajectories);
  }

  /// RecNum for a specific (already poisoned) ranker — exposed so
  /// baselines with internal optimization loops (AppGrad) can reuse the
  /// exact reward definition.
  double RecNum(const rec::Recommender& ranker) const;

 private:
  /// Builds the poison log (expanded capacities) from trajectories.
  data::Dataset BuildPoisonLog(
      const std::vector<Trajectory>& trajectories) const;

  /// Each evaluation user's candidate list, in eval_users_ order. A list
  /// depends on the user alone, so the first RecNum call builds them all
  /// (once, whichever thread gets there first) and every query reuses
  /// them; a campaign that never queries never pays for them.
  const std::vector<std::vector<data::ItemId>>& CandidateLists() const;

  EnvironmentConfig config_;
  std::size_t num_original_items_;
  std::size_t num_real_users_;
  std::vector<data::ItemId> target_items_;
  data::Dataset dataset_;  // expanded clean log
  std::unique_ptr<rec::Recommender> ranker_;
  std::unique_ptr<rec::CandidateGenerator> candidates_;
  std::vector<data::UserId> eval_users_;
  mutable std::once_flag candidate_lists_once_;
  mutable std::vector<std::vector<data::ItemId>> candidate_lists_;
};

}  // namespace poisonrec::env

#endif  // POISONREC_ENV_ENVIRONMENT_H_
