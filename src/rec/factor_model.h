// Shared plumbing for the six parametric rankers (PMF, BPR, NeuMF,
// AutoRec, GRU4Rec, NGCF): the training constants they all use, positive
// sets and negative sampling, and the update replay. PMF and BPR also
// keep their factors here, as flat row-major user/item tables: they have
// closed-form SGD updates, so plain buffers are simpler and faster than
// the autograd substrate the neural rankers train on.
#ifndef POISONREC_REC_FACTOR_MODEL_H_
#define POISONREC_REC_FACTOR_MODEL_H_

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "util/random.h"

namespace poisonrec::rec {

/// User/item latent factor tables (row-major, `dim` columns).
struct FactorTables {
  std::size_t dim = 0;
  std::vector<float> user;  // num_users x dim
  std::vector<float> item;  // num_items x dim

  void Init(std::size_t num_users, std::size_t num_items, std::size_t d,
            float stddev, Rng* rng) {
    dim = d;
    user.resize(num_users * d);
    item.resize(num_items * d);
    for (float& v : user) v = static_cast<float>(rng->Normal(0.0, stddev));
    for (float& v : item) v = static_cast<float>(rng->Normal(0.0, stddev));
  }

  float* UserRow(data::UserId u) { return user.data() + u * dim; }
  const float* UserRow(data::UserId u) const { return user.data() + u * dim; }
  float* ItemRow(data::ItemId i) { return item.data() + i * dim; }
  const float* ItemRow(data::ItemId i) const { return item.data() + i * dim; }

  double Dot(data::UserId u, data::ItemId i) const {
    const float* pu = UserRow(u);
    const float* qi = ItemRow(i);
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) acc += pu[k] * qi[k];
    return acc;
  }

  std::size_t num_users() const { return dim == 0 ? 0 : user.size() / dim; }
  std::size_t num_items() const { return dim == 0 ? 0 : item.size() / dim; }
};

/// Per-user positive-item sets (for negative sampling).
std::vector<std::unordered_set<data::ItemId>> BuildPositiveSets(
    const data::Dataset& dataset);

/// Merges `extra`'s positives into `sets` (resizing for new users).
void MergePositiveSets(const data::Dataset& extra,
                       std::vector<std::unordered_set<data::ItemId>>* sets);

/// Samples an item not in `positives`; falls back to any item after a few
/// rejections (dense users).
data::ItemId SampleNegative(std::size_t num_items,
                            const std::unordered_set<data::ItemId>& positives,
                            Rng* rng);

/// Step size and L2 weight decay of every parametric ranker's SGD (PMF,
/// BPR) or Adam (the neural rankers), in Fit and in Update.
inline constexpr float kLearningRate = 0.05f;
inline constexpr float kWeightDecay = 1e-4f;

/// When a parametric ranker is incrementally updated with a poison log,
/// each update epoch also replays kUpdateReplayRatio x as many clean
/// training examples, drawn from the clean log. This models a production
/// system that keeps training on its full log (which now contains the
/// poison) instead of on the poison alone: without it, a handful of fake
/// clicks catastrophically overwrite the model. Count-based models
/// (ItemPop, CoVisitation, ItemKNN) are exact and replay nothing.
inline constexpr double kUpdateReplayRatio = 4.0;

/// The clean examples Update replays. Fit builds it once; clones share
/// it, since no Update writes it.
template <typename T>
using ReplayPool = std::shared_ptr<const std::vector<T>>;

/// The update-replay mix: `fresh` followed by kUpdateReplayRatio x
/// |fresh| elements drawn uniformly with replacement from `clean` (none
/// when `clean` is empty).
template <typename T>
std::vector<T> MixWithReplay(std::vector<T> fresh, const std::vector<T>& clean,
                             Rng* rng) {
  if (clean.empty()) return fresh;
  const std::size_t extra = static_cast<std::size_t>(
      kUpdateReplayRatio * static_cast<double>(fresh.size()));
  fresh.reserve(fresh.size() + extra);
  for (std::size_t i = 0; i < extra; ++i) {
    fresh.push_back(clean[rng->Index(clean.size())]);
  }
  return fresh;
}

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_FACTOR_MODEL_H_
