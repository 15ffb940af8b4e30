#include "rec/autorec.h"

#include <algorithm>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/logging.h"

namespace poisonrec::rec {

AutoRec::Net::Net(std::size_t num_items, std::size_t hidden, Rng* rng)
    : encoder(num_items, hidden, rng), decoder(hidden, num_items, rng) {}

std::vector<nn::Tensor> AutoRec::Net::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Tensor& p : encoder.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : decoder.Parameters()) params.push_back(p);
  return params;
}

AutoRec::AutoRec(const FitConfig& config) : config_(config) {}

AutoRec::AutoRec(const AutoRec& other)
    : config_(other.config_),
      num_items_(other.num_items_),
      net_(other.net_ != nullptr ? std::make_unique<Net>(*other.net_)
                                 : nullptr),
      positives_(other.positives_),
      clean_users_(other.clean_users_),
      update_seed_(other.update_seed_) {}

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
  nn::Adam optimizer(net_->Parameters(), config_.learning_rate, 0.9f, 0.999f,
                     1e-8f, config_.weight_decay);
  std::vector<data::UserId> order = users;
  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size / 8);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t end = std::min(order.size(), start + batch);
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
        const std::size_t n_neg =
            std::min<std::size_t>(num_items_,
                                  pos.size() * config_.negatives_per_positive +
                                      1);
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
  net_ = std::make_unique<Net>(num_items_, config_.embedding_dim, &rng);
  positives_ = BuildPositiveSets(dataset);
  std::vector<data::UserId> active = dataset.UsersWithMinLength(1);
  clean_users_ = active;
  TrainEpochs(active, config_.epochs, &rng);
  update_seed_ = rng.Fork();
}

void AutoRec::Update(const data::Dataset& poison) {
  POISONREC_CHECK(net_ != nullptr) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), num_items_);
  Rng rng(update_seed_ ^ 0x2545f4914f6cdd1dull);
  MergePositiveSets(poison, &positives_);
  std::vector<data::UserId> active = poison.UsersWithMinLength(1);
  // Replay: mix in clean users so the decoder does not collapse onto the
  // poison vectors (see FitConfig::update_replay_ratio).
  if (!clean_users_.empty()) {
    const std::size_t extra = static_cast<std::size_t>(
        config_.update_replay_ratio * static_cast<double>(active.size()));
    for (std::size_t i = 0; i < extra; ++i) {
      active.push_back(clean_users_[rng.Index(clean_users_.size())]);
    }
  }
  TrainEpochs(active, config_.update_epochs, &rng);
}

std::vector<double> AutoRec::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  POISONREC_CHECK(net_ != nullptr) << "Score before Fit";
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
  return std::unique_ptr<Recommender>(new AutoRec(*this));
}

}  // namespace poisonrec::rec
