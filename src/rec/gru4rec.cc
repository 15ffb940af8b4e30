#include "rec/gru4rec.h"

#include <utility>

#include "nn/optimizer.h"
#include "util/logging.h"

namespace poisonrec::rec {
namespace {

/// Clicks of a sequence the GRU consumes: the most recent ones.
constexpr std::size_t kMaxSequenceLength = 30;
/// Uniformly drawn negatives beside each positive next item.
constexpr std::size_t kSampledNegatives = 8;

}  // namespace

Gru4Rec::Net::Net(std::size_t num_items, std::size_t dim, Rng* rng)
    : items(num_items, dim, rng), gru(dim, dim, rng) {}

std::vector<nn::Tensor> Gru4Rec::Net::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Tensor& p : items.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : gru.Parameters()) params.push_back(p);
  return params;
}

Gru4Rec::Gru4Rec(const FitConfig& config) : config_(config) {}

const nn::Tensor& Gru4Rec::ItemEmbeddings() const {
  POISONREC_CHECK(net_.has_value()) << "GRU4Rec not fitted";
  return net_->items.table();
}

nn::Tensor Gru4Rec::Encode(const std::vector<data::ItemId>& sequence) const {
  const std::size_t start = sequence.size() > kMaxSequenceLength
                                ? sequence.size() - kMaxSequenceLength
                                : 0;
  const std::vector<std::size_t> inputs(
      sequence.begin() + static_cast<std::ptrdiff_t>(start), sequence.end());
  const nn::GruCell& gru = net_->gru;
  return nn::GruEncode(net_->items.table(), gru.w_x(), gru.b_x(), gru.w_h(),
                       gru.b_h(), inputs);
}

void Gru4Rec::TrainEpochs(
    const std::vector<std::vector<data::ItemId>>& sequences,
    std::size_t epochs, Rng* rng) {
  nn::Adam optimizer(net_->Parameters(), kLearningRate, 0.9f, 0.999f, 1e-8f,
                     kWeightDecay);
  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    if (sequences[s].size() >= 2) order.push_back(s);
  }
  const nn::GruCell& gru = net_->gru;
  std::vector<std::size_t> inputs;
  std::vector<std::size_t> cands;  // one row per step: positive, negatives

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    for (std::size_t s : order) {
      const std::vector<data::ItemId>& full = sequences[s];
      const std::size_t start = full.size() > kMaxSequenceLength
                                    ? full.size() - kMaxSequenceLength
                                    : 0;
      inputs.clear();
      cands.clear();
      for (std::size_t p = start; p + 1 < full.size(); ++p) {
        inputs.push_back(full[p]);
        // Sampled softmax: positive first, then negatives.
        cands.push_back(full[p + 1]);
        for (std::size_t n = 0; n < kSampledNegatives; ++n) {
          cands.push_back(rng->Index(num_items_));
        }
      }
      if (inputs.empty()) continue;
      nn::Tensor loss =
          nn::GruSessionLoss(net_->items.table(), gru.w_x(), gru.b_x(),
                             gru.w_h(), gru.b_h(), inputs, cands);
      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.Step();
    }
  }
}

void Gru4Rec::Fit(const data::Dataset& dataset) {
  Rng rng(config_.seed);
  num_items_ = dataset.num_items();
  net_.emplace(num_items_, config_.embedding_dim, &rng);
  history_.assign(dataset.num_users(), {});
  for (data::UserId u = 0; u < dataset.num_users(); ++u) {
    history_[u] = dataset.Sequence(u);
  }
  clean_sequences_ =
      std::make_shared<const std::vector<std::vector<data::ItemId>>>(history_);
  TrainEpochs(*clean_sequences_, config_.epochs, &rng);
  update_seed_ = rng.Fork();
}

void Gru4Rec::Update(const data::Dataset& poison) {
  POISONREC_CHECK(net_.has_value()) << "Update before Fit";
  POISONREC_CHECK_EQ(poison.num_items(), num_items_);
  Rng rng(update_seed_ ^ 0xbb67ae8584caa73bull);
  if (poison.num_users() > history_.size()) {
    history_.resize(poison.num_users());
  }
  std::vector<std::vector<data::ItemId>> sequences;
  for (data::UserId u = 0; u < poison.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = poison.Sequence(u);
    if (seq.empty()) continue;
    history_[u].insert(history_[u].end(), seq.begin(), seq.end());
    sequences.push_back(seq);
  }
  // Replayed clean sequences keep the model from collapsing onto the
  // poison sessions.
  TrainEpochs(MixWithReplay(std::move(sequences), *clean_sequences_, &rng),
              config_.update_epochs, &rng);
}

std::vector<double> Gru4Rec::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  POISONREC_CHECK(net_.has_value()) << "Score before Fit";
  for (data::ItemId item : candidates) POISONREC_CHECK_LT(item, num_items_);
  nn::NoGradScope no_grad;
  static const std::vector<data::ItemId> kNoHistory;
  nn::Tensor h = Encode(user < history_.size() ? history_[user] : kNoHistory);
  nn::Tensor cand_emb = net_->items.Forward(candidates);
  nn::Tensor logits = nn::MatMul(h, nn::Transpose(cand_emb));
  std::vector<double> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = logits.at(0, i);
  }
  return scores;
}

std::unique_ptr<Recommender> Gru4Rec::Clone() const {
  return std::make_unique<Gru4Rec>(*this);
}

}  // namespace poisonrec::rec
