#include "rec/neumf.h"

#include <algorithm>

#include "nn/optimizer.h"
#include "util/logging.h"

namespace poisonrec::rec {
namespace {

/// Sampled unobserved items, each a 0-label row, per observed interaction.
constexpr std::size_t kNegativesPerPositive = 2;
/// Observed interactions per mini-batch: 63 rows with their negatives.
constexpr std::size_t kBatchPositives = 21;

}  // namespace

NeuMf::Net::Net(std::size_t num_users, std::size_t num_items,
                std::size_t dim, Rng* rng)
    : gmf_user(num_users, dim, rng),
      gmf_item(num_items, dim, rng),
      mlp_user(num_users, dim, rng),
      mlp_item(num_items, dim, rng),
      mlp({2 * dim, dim, std::max<std::size_t>(1, dim / 2)}, rng),
      fuse(dim + std::max<std::size_t>(1, dim / 2), 1, rng) {}

std::vector<nn::Tensor> NeuMf::Net::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(&gmf_user),
        static_cast<const nn::Module*>(&gmf_item),
        static_cast<const nn::Module*>(&mlp_user),
        static_cast<const nn::Module*>(&mlp_item),
        static_cast<const nn::Module*>(&mlp),
        static_cast<const nn::Module*>(&fuse)}) {
    for (const nn::Tensor& p : m->Parameters()) params.push_back(p);
  }
  return params;
}

nn::NeuMfParams NeuMf::Net::Params() const {
  nn::NeuMfParams p{gmf_user.table(), gmf_item.table(), mlp_user.table(),
                    mlp_item.table(), {}, {fuse.weight(), fuse.bias()}};
  for (const nn::Linear& layer : mlp.layers()) {
    p.tower.push_back({layer.weight(), layer.bias()});
  }
  return p;
}

NeuMf::NeuMf(const FitConfig& config) : config_(config) {}

const nn::Tensor& NeuMf::ItemEmbeddings() const {
  POISONREC_CHECK(net_.has_value()) << "NeuMF not fitted";
  return net_->gmf_item.table();
}

void NeuMf::TrainEpochs(const std::vector<data::Interaction>& interactions,
                        std::size_t epochs, Rng* rng) {
  nn::Adam optimizer(net_->Parameters(), kLearningRate, 0.9f, 0.999f, 1e-8f,
                     kWeightDecay);
  const nn::NeuMfParams params = net_->Params();
  std::vector<std::size_t> order(interactions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<std::size_t> users;
  std::vector<std::size_t> items;
  std::vector<float> labels;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    for (std::size_t start = 0; start < order.size();
         start += kBatchPositives) {
      const std::size_t end =
          std::min(order.size(), start + kBatchPositives);
      users.clear();
      items.clear();
      labels.clear();
      for (std::size_t idx = start; idx < end; ++idx) {
        const data::Interaction& ev = interactions[order[idx]];
        users.push_back(ev.user);
        items.push_back(ev.item);
        labels.push_back(1.0f);
        for (std::size_t n = 0; n < kNegativesPerPositive; ++n) {
          users.push_back(ev.user);
          items.push_back(
              SampleNegative(num_items_, positives_[ev.user], rng));
          labels.push_back(0.0f);
        }
      }
      nn::Tensor loss = nn::NeuMfLoss(params, users, items, labels);
      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.Step();
    }
  }
}

void NeuMf::Fit(const data::Dataset& dataset) {
  Rng rng(config_.seed);
  num_users_ = dataset.num_users();
  num_items_ = dataset.num_items();
  net_.emplace(num_users_, num_items_, config_.embedding_dim, &rng);
  positives_ = BuildPositiveSets(dataset);
  clean_ = std::make_shared<const std::vector<data::Interaction>>(
      dataset.AllInteractions());
  TrainEpochs(*clean_, config_.epochs, &rng);
  update_seed_ = rng.Fork();
}

void NeuMf::Update(const data::Dataset& poison) {
  POISONREC_CHECK(net_.has_value()) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), num_items_);
  POISONREC_CHECK_LE(poison.num_users(), num_users_);
  Rng rng(update_seed_ ^ 0x5bd1e9955bd1e995ull);
  MergePositiveSets(poison, &positives_);
  TrainEpochs(MixWithReplay(poison.AllInteractions(), *clean_, &rng),
              config_.update_epochs, &rng);
}

std::vector<double> NeuMf::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  POISONREC_CHECK(net_.has_value()) << "Score before Fit";
  for (data::ItemId item : candidates) POISONREC_CHECK_LT(item, num_items_);
  const std::vector<std::size_t> users(candidates.size(), user);
  const nn::Tensor logits =
      nn::NeuMfLogits(net_->Params(), users, candidates);
  return std::vector<double>(logits.data().begin(), logits.data().end());
}

std::unique_ptr<Recommender> NeuMf::Clone() const {
  return std::make_unique<NeuMf>(*this);
}

}  // namespace poisonrec::rec
