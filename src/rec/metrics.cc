#include "rec/metrics.h"

#include <cmath>
#include <unordered_set>

#include "util/logging.h"
#include "util/random.h"
#include "util/topk.h"

namespace poisonrec::rec {

RankingQuality EvaluateRanking(
    const Recommender& ranker, const data::Dataset& full,
    const std::vector<data::Interaction>& heldout,
    const EvalProtocol& protocol) {
  POISONREC_CHECK_GT(protocol.top_k, 0u);
  Rng rng(protocol.seed);
  RankingQuality quality;
  for (const data::Interaction& ev : heldout) {
    // Negatives: unseen items for this user.
    std::unordered_set<data::ItemId> seen;
    for (data::ItemId item : full.Sequence(ev.user)) seen.insert(item);
    // When the user's items and the held-out one cover the catalog there
    // is no negative to draw: skip the event before drawing anything, so
    // every other event draws the negatives it always drew.
    const std::size_t covered = seen.size() + (seen.count(ev.item) > 0 ? 0 : 1);
    if (protocol.num_negatives > 0 && covered >= full.num_items()) continue;
    std::vector<data::ItemId> candidates = {ev.item};
    while (candidates.size() < protocol.num_negatives + 1) {
      const data::ItemId j = rng.Index(full.num_items());
      if (j == ev.item || seen.count(j) > 0) continue;
      candidates.push_back(j);
    }
    const std::vector<double> scores = ranker.Score(ev.user, candidates);
    // Rank of the held-out item (index 0); ties break against it so a
    // constant scorer gets no credit.
    std::size_t rank = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (scores[i] >= scores[0]) ++rank;
    }
    if (rank < protocol.top_k) {
      quality.hit_rate += 1.0;
      quality.ndcg +=
          1.0 / std::log2(static_cast<double>(rank) + 2.0);
    }
    ++quality.num_evaluated;
  }
  if (quality.num_evaluated > 0) {
    quality.hit_rate /= static_cast<double>(quality.num_evaluated);
    quality.ndcg /= static_cast<double>(quality.num_evaluated);
  }
  return quality;
}

double RandomHitRate(const EvalProtocol& protocol) {
  return static_cast<double>(protocol.top_k) /
         static_cast<double>(protocol.num_negatives + 1);
}

}  // namespace poisonrec::rec
