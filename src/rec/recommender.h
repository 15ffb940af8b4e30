// The Ranker abstraction (paper §III-A1). A recommender fits on an
// implicit-feedback log, can be cloned and incrementally updated with a
// poison log (Algorithm 1's DataPoisoning reloads the pretrained ranker
// and updates it with D^p), and scores candidate items for a user.
#ifndef POISONREC_REC_RECOMMENDER_H_
#define POISONREC_REC_RECOMMENDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace poisonrec::rec {

/// Hyperparameters the callers set; each ranker reads those that apply to
/// it. Every other fixed choice of a ranker is a constant beside the code
/// that reads it (those all six parametric rankers share are in
/// rec/factor_model.h).
struct FitConfig {
  /// Latent/embedding dimension.
  std::size_t embedding_dim = 16;
  /// Epochs over the log for pretraining (Fit).
  std::size_t epochs = 5;
  /// Epochs over the poison log, mixed with replayed clean data (see
  /// kUpdateReplayRatio), for incremental updates (Update).
  std::size_t update_epochs = 3;
  std::uint64_t seed = 7;
};

/// Abstract ranker. Implementations must be deterministic given the seed
/// in their FitConfig.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Canonical algorithm name ("ItemPop", "BPR", ...).
  virtual std::string Name() const = 0;

  /// Trains from scratch on `dataset`. The dataset's capacities define the
  /// user/item id spaces (including cold target items and empty attacker
  /// slots).
  virtual void Fit(const data::Dataset& dataset) = 0;

  /// Incrementally updates the fitted model with additional (poison)
  /// interactions. `poison` must share the capacities of the fit dataset.
  virtual void Update(const data::Dataset& poison) = 0;

  /// Preference scores for `candidates`, one per candidate, higher =
  /// more preferred.
  virtual std::vector<double> Score(
      data::UserId user, const std::vector<data::ItemId>& candidates) const = 0;

  /// A copy whose Update leaves this ranker's scores unchanged. Copies
  /// share only data that no Update writes (a replay pool, NGCF's
  /// Laplacian).
  virtual std::unique_ptr<Recommender> Clone() const = 0;

  /// Top-k of the candidate set by score (descending; deterministic ties).
  std::vector<data::ItemId> RecommendTopK(
      data::UserId user, const std::vector<data::ItemId>& candidates,
      std::size_t k) const;
};

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_RECOMMENDER_H_
