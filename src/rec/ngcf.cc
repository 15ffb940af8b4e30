#include "rec/ngcf.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/logging.h"

namespace poisonrec::rec {
namespace {

/// Rounds of message passing (the propagation depth L).
constexpr std::size_t kNumLayers = 2;

}  // namespace

Ngcf::Net::Net(std::size_t num_nodes, std::size_t dim, Rng* rng)
    : nodes(num_nodes, dim, rng) {
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    w1.emplace_back(dim, dim, rng);
    w2.emplace_back(dim, dim, rng);
  }
}

std::vector<nn::Tensor> Ngcf::Net::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Tensor& p : nodes.Parameters()) params.push_back(p);
  for (const nn::Linear& layer : w1) {
    for (const nn::Tensor& p : layer.Parameters()) params.push_back(p);
  }
  for (const nn::Linear& layer : w2) {
    for (const nn::Tensor& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

Ngcf::Ngcf(const FitConfig& config) : config_(config) {}

const nn::Tensor& Ngcf::NodeEmbeddings() const {
  POISONREC_CHECK(net_.has_value()) << "NGCF not fitted";
  return net_->nodes.table();
}

void Ngcf::RebuildGraph() {
  const std::size_t n = num_users_ + num_items_;
  std::vector<std::size_t> degree(n, 0);
  std::size_t n_edges = 0;
  for (data::UserId u = 0; u < positives_.size(); ++u) {
    for (data::ItemId item : positives_[u]) {
      ++degree[u];
      ++degree[num_users_ + item];
      ++n_edges;
    }
  }
  std::vector<nn::CsrMatrix::Triplet> triplets;
  triplets.reserve(2 * n_edges);
  for (data::UserId u = 0; u < positives_.size(); ++u) {
    for (data::ItemId item : positives_[u]) {
      const std::size_t v = num_users_ + item;
      const float norm = 1.0f / std::sqrt(static_cast<float>(degree[u]) *
                                          static_cast<float>(degree[v]));
      triplets.push_back({u, v, norm});
      triplets.push_back({v, u, norm});
    }
  }
  laplacian_ = std::make_shared<const nn::CsrMatrix>(n, n, std::move(triplets));
}

nn::Tensor Ngcf::Propagate() const {
  nn::Tensor e = net_->nodes.table();
  nn::Tensor final_rep = e;
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    nn::Tensor m = nn::SparseMatMul(*laplacian_, e);  // L E
    nn::Tensor sum_part = net_->w1[l].Forward(nn::Add(m, e));
    nn::Tensor bi_part = net_->w2[l].Forward(nn::Mul(m, e));
    e = nn::LeakyRelu(nn::Add(sum_part, bi_part));
    final_rep = nn::ConcatCols(final_rep, e);
  }
  return final_rep;
}

void Ngcf::RefreshCache() {
  nn::NoGradScope no_grad;
  cached_final_ = Propagate().data();
}

void Ngcf::TrainEpochs(const std::vector<data::Interaction>& interactions,
                       std::size_t epochs, Rng* rng) {
  if (interactions.empty()) return;
  nn::Adam optimizer(net_->Parameters(), kLearningRate, 0.9f, 0.999f, 1e-8f,
                     kWeightDecay);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    nn::Tensor final_rep = Propagate();
    std::vector<std::size_t> users;
    std::vector<std::size_t> pos_nodes;
    std::vector<std::size_t> neg_nodes;
    users.reserve(interactions.size());
    for (const data::Interaction& ev : interactions) {
      users.push_back(ev.user);
      pos_nodes.push_back(num_users_ + ev.item);
      neg_nodes.push_back(
          num_users_ +
          SampleNegative(num_items_, positives_[ev.user], rng));
    }
    nn::Tensor eu = nn::Rows(final_rep, users);
    nn::Tensor ei = nn::Rows(final_rep, pos_nodes);
    nn::Tensor ej = nn::Rows(final_rep, neg_nodes);
    nn::Tensor pos_scores = nn::RowDot(eu, ei);
    nn::Tensor neg_scores = nn::RowDot(eu, ej);
    nn::Tensor loss = nn::BprLoss(pos_scores, neg_scores);
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
  }
}

void Ngcf::Fit(const data::Dataset& dataset) {
  Rng rng(config_.seed);
  num_users_ = dataset.num_users();
  num_items_ = dataset.num_items();
  net_.emplace(num_users_ + num_items_, config_.embedding_dim, &rng);
  positives_ = BuildPositiveSets(dataset);
  clean_ = std::make_shared<const std::vector<data::Interaction>>(
      dataset.AllInteractions());
  RebuildGraph();
  TrainEpochs(*clean_, config_.epochs, &rng);
  RefreshCache();
  update_seed_ = rng.Fork();
}

void Ngcf::Update(const data::Dataset& poison) {
  POISONREC_CHECK(net_.has_value()) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), num_items_);
  POISONREC_CHECK_LE(poison.num_users(), num_users_);
  Rng rng(update_seed_ ^ 0xa54ff53a5f1d36f1ull);
  MergePositiveSets(poison, &positives_);
  // The poison edges join the propagation graph.
  RebuildGraph();
  TrainEpochs(MixWithReplay(poison.AllInteractions(), *clean_, &rng),
              config_.update_epochs, &rng);
  RefreshCache();
}

std::vector<double> Ngcf::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  POISONREC_CHECK(!cached_final_.empty()) << "Score before Fit";
  POISONREC_CHECK_LT(user, num_users_);
  // Each row concatenates the base embedding and every layer's output.
  const std::size_t dim = config_.embedding_dim * (kNumLayers + 1);
  const float* eu = cached_final_.data() + user * dim;
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (data::ItemId item : candidates) {
    POISONREC_CHECK_LT(item, num_items_);
    const float* ei = cached_final_.data() + (num_users_ + item) * dim;
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      acc += static_cast<double>(eu[k]) * ei[k];
    }
    scores.push_back(acc);
  }
  return scores;
}

std::unique_ptr<Recommender> Ngcf::Clone() const {
  return std::make_unique<Ngcf>(*this);
}

}  // namespace poisonrec::rec
