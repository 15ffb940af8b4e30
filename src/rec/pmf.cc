#include "rec/pmf.h"

#include "util/logging.h"

namespace poisonrec::rec {
namespace {

/// Sampled unobserved items, each a 0-target, per observed interaction.
constexpr std::size_t kNegativesPerPositive = 2;

}  // namespace

Pmf::Pmf(const FitConfig& config) : config_(config) {}

void Pmf::SgdEpochs(const std::vector<data::Interaction>& interactions,
                    std::size_t epochs, Rng* rng) {
  const std::size_t dim = factors_.dim;
  const float lr = kLearningRate;
  const float reg = kWeightDecay;
  std::vector<std::size_t> order(interactions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  auto sgd_pair = [&](data::UserId u, data::ItemId i, float target) {
    float* pu = factors_.UserRow(u);
    float* qi = factors_.ItemRow(i);
    float pred = 0.0f;
    for (std::size_t k = 0; k < dim; ++k) pred += pu[k] * qi[k];
    const float err = pred - target;
    for (std::size_t k = 0; k < dim; ++k) {
      const float gu = err * qi[k] + reg * pu[k];
      const float gi = err * pu[k] + reg * qi[k];
      pu[k] -= lr * gu;
      qi[k] -= lr * gi;
    }
  };

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    for (std::size_t idx : order) {
      const data::Interaction& ev = interactions[idx];
      sgd_pair(ev.user, ev.item, 1.0f);
      for (std::size_t n = 0; n < kNegativesPerPositive; ++n) {
        const data::ItemId j = SampleNegative(factors_.num_items(),
                                              positives_[ev.user], rng);
        sgd_pair(ev.user, j, 0.0f);
      }
    }
  }
}

void Pmf::Fit(const data::Dataset& dataset) {
  Rng rng(config_.seed);
  factors_.Init(dataset.num_users(), dataset.num_items(),
                config_.embedding_dim, 0.1f, &rng);
  positives_ = BuildPositiveSets(dataset);
  clean_ = std::make_shared<const std::vector<data::Interaction>>(
      dataset.AllInteractions());
  SgdEpochs(*clean_, config_.epochs, &rng);
  update_seed_ = rng.Fork();
}

void Pmf::Update(const data::Dataset& poison) {
  POISONREC_CHECK(clean_ != nullptr) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), factors_.num_items());
  POISONREC_CHECK_LE(poison.num_users(), factors_.num_users());
  Rng rng(update_seed_ ^ 0x9e3779b97f4a7c15ull);
  MergePositiveSets(poison, &positives_);
  SgdEpochs(MixWithReplay(poison.AllInteractions(), *clean_, &rng),
            config_.update_epochs, &rng);
}

std::vector<double> Pmf::Score(
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

std::unique_ptr<Recommender> Pmf::Clone() const {
  return std::make_unique<Pmf>(*this);
}

}  // namespace poisonrec::rec
