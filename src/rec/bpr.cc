#include "rec/bpr.h"

#include <cmath>

#include "util/logging.h"

namespace poisonrec::rec {

Bpr::Bpr(const FitConfig& config) : config_(config) {}

void Bpr::SgdEpochs(const std::vector<data::Interaction>& interactions,
                    std::size_t epochs, Rng* rng) {
  const std::size_t dim = factors_.dim;
  const float lr = kLearningRate;
  const float reg = kWeightDecay;
  std::vector<std::size_t> order(interactions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    for (std::size_t idx : order) {
      const data::Interaction& ev = interactions[idx];
      const data::UserId u = ev.user;
      const data::ItemId i = ev.item;
      const data::ItemId j =
          SampleNegative(factors_.num_items(), positives_[u], rng);
      float* pu = factors_.UserRow(u);
      float* qi = factors_.ItemRow(i);
      float* qj = factors_.ItemRow(j);
      float x = 0.0f;
      for (std::size_t k = 0; k < dim; ++k) x += pu[k] * (qi[k] - qj[k]);
      // d/dx of -log sigmoid(x) is -sigmoid(-x), from one exp call:
      // errno keeps the compiler from merging two.
      const float e = std::exp(x >= 0.0f ? -x : x);
      const float g = x >= 0.0f ? e / (1.0f + e) : 1.0f / (1.0f + e);
      for (std::size_t k = 0; k < dim; ++k) {
        const float pu_k = pu[k];
        pu[k] += lr * (g * (qi[k] - qj[k]) - reg * pu[k]);
        qi[k] += lr * (g * pu_k - reg * qi[k]);
        qj[k] += lr * (-g * pu_k - reg * qj[k]);
      }
    }
  }
}

void Bpr::Fit(const data::Dataset& dataset) {
  Rng rng(config_.seed);
  factors_.Init(dataset.num_users(), dataset.num_items(),
                config_.embedding_dim, 0.1f, &rng);
  positives_ = BuildPositiveSets(dataset);
  clean_ = std::make_shared<const std::vector<data::Interaction>>(
      dataset.AllInteractions());
  SgdEpochs(*clean_, config_.epochs, &rng);
  update_seed_ = rng.Fork();
}

void Bpr::Update(const data::Dataset& poison) {
  POISONREC_CHECK(clean_ != nullptr) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), factors_.num_items());
  POISONREC_CHECK_LE(poison.num_users(), factors_.num_users());
  Rng rng(update_seed_ ^ 0xda3e39cb94b95bdbull);
  MergePositiveSets(poison, &positives_);
  SgdEpochs(MixWithReplay(poison.AllInteractions(), *clean_, &rng),
            config_.update_epochs, &rng);
}

std::vector<double> Bpr::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  POISONREC_CHECK_LT(user, factors_.num_users());
  const std::size_t num_items = factors_.num_items();
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (data::ItemId item : candidates) {
    POISONREC_CHECK_LT(item, num_items);
    scores.push_back(factors_.Dot(user, item));
  }
  return scores;
}

std::unique_ptr<Recommender> Bpr::Clone() const {
  return std::make_unique<Bpr>(*this);
}

}  // namespace poisonrec::rec
