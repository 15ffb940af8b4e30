#include "rec/autorec.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/logging.h"

namespace poisonrec::rec {
namespace {

/// Users (autoencoder rows) per mini-batch.
constexpr std::size_t kBatchUsers = 8;
/// A user's sampled 0-target items: this many per positive, plus one.
constexpr std::size_t kNegativesPerPositive = 2;

}  // namespace

AutoRec::Net::Net(std::size_t num_items, std::size_t hidden, Rng* rng)
    : encoder(num_items, hidden, rng), decoder(hidden, num_items, rng) {}

std::vector<nn::Tensor> AutoRec::Net::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Tensor& p : encoder.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : decoder.Parameters()) params.push_back(p);
  return params;
}

AutoRec::AutoRec(const FitConfig& config) : config_(config) {}

nn::Tensor AutoRec::Reconstruct(const nn::Tensor& inputs) const {
  nn::Tensor hidden = nn::Sigmoid(net_->encoder.Forward(inputs));
  return net_->decoder.Forward(hidden);
}

std::vector<float> AutoRec::UserVector(data::UserId user) const {
  std::vector<float> row(num_items_, 0.0f);
  if (user < positives_.size()) {
    for (data::ItemId item : positives_[user]) row[item] = 1.0f;
  }
  return row;
}

void AutoRec::TrainEpochs(const std::vector<data::UserId>& users,
                          std::size_t epochs, Rng* rng) {
  nn::Adam optimizer(net_->Parameters(), kLearningRate, 0.9f, 0.999f, 1e-8f,
                     kWeightDecay);
  std::vector<data::UserId> order = users;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    for (std::size_t start = 0; start < order.size(); start += kBatchUsers) {
      const std::size_t end = std::min(order.size(), start + kBatchUsers);
      const std::size_t rows = end - start;
      std::vector<float> input(rows * num_items_, 0.0f);
      std::vector<float> mask(rows * num_items_, 0.0f);
      for (std::size_t r = 0; r < rows; ++r) {
        const data::UserId u = order[start + r];
        const auto& pos = positives_[u];
        for (data::ItemId item : pos) {
          input[r * num_items_ + item] = 1.0f;
          mask[r * num_items_ + item] = 1.0f;
        }
        // Sampled zero-targets keep the reconstruction from collapsing to
        // all-ones.
        const std::size_t n_neg = std::min<std::size_t>(
            num_items_, pos.size() * kNegativesPerPositive + 1);
        for (std::size_t n = 0; n < n_neg; ++n) {
          const data::ItemId j = SampleNegative(num_items_, pos, rng);
          mask[r * num_items_ + j] = 1.0f;
        }
      }
      nn::Tensor x =
          nn::Tensor::FromData(rows, num_items_, input);
      nn::Tensor target = nn::Tensor::FromData(rows, num_items_, input);
      nn::Tensor m = nn::Tensor::FromData(rows, num_items_, std::move(mask));
      nn::Tensor recon = Reconstruct(x);
      nn::Tensor loss = nn::MaskedMseLoss(recon, target, m);
      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.Step();
    }
  }
}

void AutoRec::Fit(const data::Dataset& dataset) {
  Rng rng(config_.seed);
  num_items_ = dataset.num_items();
  net_.emplace(num_items_, config_.embedding_dim, &rng);
  positives_ = BuildPositiveSets(dataset);
  clean_users_ = std::make_shared<const std::vector<data::UserId>>(
      dataset.UsersWithMinLength(1));
  TrainEpochs(*clean_users_, config_.epochs, &rng);
  update_seed_ = rng.Fork();
}

void AutoRec::Update(const data::Dataset& poison) {
  POISONREC_CHECK(net_.has_value()) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), num_items_);
  Rng rng(update_seed_ ^ 0x2545f4914f6cdd1dull);
  MergePositiveSets(poison, &positives_);
  // Replayed clean users keep the decoder from collapsing onto the poison
  // vectors.
  TrainEpochs(MixWithReplay(poison.UsersWithMinLength(1), *clean_users_, &rng),
              config_.update_epochs, &rng);
}

std::vector<double> AutoRec::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  POISONREC_CHECK(net_.has_value()) << "Score before Fit";
  nn::NoGradScope no_grad;
  nn::Tensor x = nn::Tensor::FromData(1, num_items_, UserVector(user));
  nn::Tensor recon = Reconstruct(x);
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (data::ItemId item : candidates) {
    POISONREC_CHECK_LT(item, num_items_);
    scores.push_back(recon.at(0, item));
  }
  return scores;
}

std::unique_ptr<Recommender> AutoRec::Clone() const {
  return std::make_unique<AutoRec>(*this);
}

}  // namespace poisonrec::rec
