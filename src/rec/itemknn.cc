#include "rec/itemknn.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"
#include "util/random.h"

namespace poisonrec::rec {

ItemKnn::ItemKnn(const FitConfig& config) : config_(config) {}

void ItemKnn::AccumulateUser(data::UserId user,
                             const std::vector<data::ItemId>& seq) {
  if (seq.empty()) return;
  std::unordered_set<data::ItemId> distinct(seq.begin(), seq.end());
  std::vector<data::ItemId> items(distinct.begin(), distinct.end());
  std::sort(items.begin(), items.end());
  if (items.size() > kMaxItemsPerUser) {
    // Deterministic subsample of heavy users.
    Rng rng(config_.seed ^ (user * 0x9e3779b97f4a7c15ull));
    rng.Shuffle(&items);
    items.resize(kMaxItemsPerUser);
    std::sort(items.begin(), items.end());
  }
  for (data::ItemId item : items) item_users_[item] += 1.0;
  for (std::size_t a = 0; a < items.size(); ++a) {
    for (std::size_t b = a + 1; b < items.size(); ++b) {
      cooccur_[items[a]][items[b]] += 1.0;
      cooccur_[items[b]][items[a]] += 1.0;
    }
  }
}

void ItemKnn::Fit(const data::Dataset& dataset) {
  cooccur_.assign(dataset.num_items(), {});
  item_users_.assign(dataset.num_items(), 0.0);
  history_.assign(dataset.num_users(), {});
  for (data::UserId u = 0; u < dataset.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = dataset.Sequence(u);
    history_[u] = seq;
    AccumulateUser(u, seq);
  }
}

void ItemKnn::Update(const data::Dataset& poison) {
  POISONREC_CHECK_EQ(poison.num_items(), cooccur_.size());
  if (poison.num_users() > history_.size()) {
    history_.resize(poison.num_users());
  }
  for (data::UserId u = 0; u < poison.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = poison.Sequence(u);
    if (seq.empty()) continue;
    history_[u].insert(history_[u].end(), seq.begin(), seq.end());
    AccumulateUser(u, seq);
  }
}

double ItemKnn::CoOccurrences(data::ItemId a, data::ItemId b) const {
  POISONREC_CHECK_LT(a, cooccur_.size());
  auto it = cooccur_[a].find(b);
  return it == cooccur_[a].end() ? 0.0 : it->second;
}

std::vector<double> ItemKnn::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  for (data::ItemId j : candidates) POISONREC_CHECK_LT(j, item_users_.size());
  std::vector<double> scores(candidates.size(), 0.0);
  if (user >= history_.size()) return scores;
  std::unordered_set<data::ItemId> hist(history_[user].begin(),
                                        history_[user].end());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const data::ItemId j = candidates[c];
    const double nj = item_users_[j];
    if (nj <= 0.0) continue;
    double acc = 0.0;
    for (data::ItemId i : hist) {
      auto it = cooccur_[i].find(j);
      if (it == cooccur_[i].end()) continue;
      // Cosine over user-incidence vectors.
      acc += it->second / std::sqrt(std::max(1.0, item_users_[i]) * nj);
    }
    scores[c] = acc;
  }
  return scores;
}

std::unique_ptr<Recommender> ItemKnn::Clone() const {
  return std::make_unique<ItemKnn>(*this);
}

}  // namespace poisonrec::rec
