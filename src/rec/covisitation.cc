#include "rec/covisitation.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace poisonrec::rec {

CoVisitation::CoVisitation(const FitConfig& config) { (void)config; }

void CoVisitation::Accumulate(const data::Dataset& dataset,
                              bool record_history) {
  for (data::UserId u = 0; u < dataset.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = dataset.Sequence(u);
    for (std::size_t p = 0; p + 1 < seq.size(); ++p) {
      const data::ItemId a = seq[p];
      const data::ItemId b = seq[p + 1];
      if (a == b) continue;
      covisits_[a][b] += 1.0;
      covisits_[b][a] += 1.0;
    }
    for (data::ItemId item : seq) item_count_[item] += 1.0;
    if (record_history && !seq.empty()) {
      std::vector<data::ItemId>& h = history_[u];
      h.insert(h.end(), seq.begin(), seq.end());
    }
  }
}

void CoVisitation::Fit(const data::Dataset& dataset) {
  covisits_.assign(dataset.num_items(), {});
  item_count_.assign(dataset.num_items(), 0.0);
  history_.assign(dataset.num_users(), {});
  Accumulate(dataset, /*record_history=*/true);
}

void CoVisitation::Update(const data::Dataset& poison) {
  POISONREC_CHECK_EQ(poison.num_items(), covisits_.size());
  if (poison.num_users() > history_.size()) {
    history_.resize(poison.num_users());
  }
  Accumulate(poison, /*record_history=*/true);
}

double CoVisitation::CoVisits(data::ItemId a, data::ItemId b) const {
  POISONREC_CHECK_LT(a, covisits_.size());
  auto it = covisits_[a].find(b);
  return it == covisits_[a].end() ? 0.0 : it->second;
}

std::vector<double> CoVisitation::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  for (data::ItemId j : candidates) POISONREC_CHECK_LT(j, covisits_.size());
  std::vector<double> scores(candidates.size(), 0.0);
  if (user >= history_.size()) return scores;
  const std::vector<data::ItemId>& h = history_[user];
  const std::size_t start = h.size() > kHistoryWindow
                                ? h.size() - kHistoryWindow
                                : 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const data::ItemId j = candidates[c];
    double acc = 0.0;
    for (std::size_t p = start; p < h.size(); ++p) {
      const data::ItemId i = h[p];
      auto it = covisits_[i].find(j);
      if (it == covisits_[i].end()) continue;
      // Damp by the source item's visit count so ubiquitous items do not
      // dominate (cosine-style normalization on one side).
      acc += it->second / std::sqrt(std::max(1.0, item_count_[i]));
    }
    scores[c] = acc;
  }
  return scores;
}

std::unique_ptr<Recommender> CoVisitation::Clone() const {
  return std::make_unique<CoVisitation>(*this);
}

}  // namespace poisonrec::rec
