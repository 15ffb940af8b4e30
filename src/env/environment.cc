#include "env/environment.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"

namespace poisonrec::env {

AttackEnvironment::AttackEnvironment(const data::Dataset& base,
                                     std::unique_ptr<rec::Recommender> ranker,
                                     const EnvironmentConfig& config)
    : config_(config),
      num_original_items_(base.num_items()),
      num_real_users_(base.num_users()),
      dataset_(base.num_users() + config.num_attackers,
               base.num_items() + config.num_target_items),
      ranker_(std::move(ranker)) {
  POISONREC_CHECK(ranker_ != nullptr);
  POISONREC_CHECK_GT(config_.num_target_items, 0u);
  // Copy the clean log into the expanded id space (target items and
  // attacker users exist but start cold).
  for (data::UserId u = 0; u < base.num_users(); ++u) {
    dataset_.AddSequence(u, base.Sequence(u));
  }
  for (std::size_t t = 0; t < config_.num_target_items; ++t) {
    target_items_.push_back(num_original_items_ + t);
  }
  if (config_.personalized_candidates) {
    candidates_ = std::make_unique<rec::PersonalizedCandidateGenerator>(
        dataset_, num_original_items_, target_items_,
        config_.num_candidate_originals);
  } else {
    candidates_ = std::make_unique<rec::RandomCandidateGenerator>(
        num_original_items_, target_items_,
        config_.num_candidate_originals, config_.seed);
  }

  // Evaluate on real users that have history.
  std::vector<data::UserId> users;
  for (data::UserId u = 0; u < num_real_users_; ++u) {
    if (!dataset_.Sequence(u).empty()) users.push_back(u);
  }
  if (config_.max_eval_users > 0 && users.size() > config_.max_eval_users) {
    Rng rng(config_.seed ^ 0x1234567ull);
    rng.Shuffle(&users);
    users.resize(config_.max_eval_users);
    std::sort(users.begin(), users.end());
  }
  eval_users_ = std::move(users);

  ranker_->Fit(dataset_);
}

data::UserId AttackEnvironment::AttackerUserId(
    std::size_t attacker_index) const {
  POISONREC_CHECK_LT(attacker_index, config_.num_attackers);
  return num_real_users_ + attacker_index;
}

data::Dataset AttackEnvironment::BuildPoisonLog(
    const std::vector<Trajectory>& trajectories) const {
  data::Dataset poison(dataset_.num_users(), dataset_.num_items());
  for (const Trajectory& traj : trajectories) {
    POISONREC_CHECK_LT(traj.attacker_index, config_.num_attackers)
        << "trajectory for unknown attacker";
    const data::UserId user = AttackerUserId(traj.attacker_index);
    for (data::ItemId item : traj.items) {
      POISONREC_CHECK_LT(item, dataset_.num_items())
          << "trajectory references unknown item";
      poison.Add(user, item);
    }
  }
  return poison;
}

const std::vector<std::vector<data::ItemId>>&
AttackEnvironment::CandidateLists() const {
  std::call_once(candidate_lists_once_, [this] {
    candidate_lists_.reserve(eval_users_.size());
    for (data::UserId u : eval_users_) {
      candidate_lists_.push_back(candidates_->Candidates(u));
    }
  });
  return candidate_lists_;
}

double AttackEnvironment::RecNum(const rec::Recommender& ranker) const {
  const std::vector<std::vector<data::ItemId>>& lists = CandidateLists();
  double rec_num = 0.0;
  for (std::size_t i = 0; i < eval_users_.size(); ++i) {
    const std::vector<data::ItemId> top =
        ranker.RecommendTopK(eval_users_[i], lists[i], config_.top_k);
    for (data::ItemId item : top) {
      // The target items are the ids past the original catalogue.
      if (item >= num_original_items_) rec_num += 1.0;
    }
  }
  return rec_num;
}

double AttackEnvironment::Evaluate(
    const std::vector<Trajectory>& trajectories) const {
  std::unique_ptr<rec::Recommender> poisoned = ranker_->Clone();
  data::Dataset poison = BuildPoisonLog(trajectories);
  if (poison.num_interactions() > 0) {
    if (config_.full_retrain) {
      // Ablation mode: retrain from scratch on clean + poison.
      data::Dataset combined = dataset_.Clone();
      for (data::UserId u = 0; u < poison.num_users(); ++u) {
        combined.AddSequence(u, poison.Sequence(u));
      }
      poisoned->Fit(combined);
    } else {
      // Algorithm 1: reload the pretrained ranker, update with D^p.
      poisoned->Update(poison);
    }
  }
  return RecNum(*poisoned);
}

}  // namespace poisonrec::env
