// Ranking-quality metrics over the leave-one-out protocol (paper §IV-A's
// split). Used to validate that the 8 testbed rankers are trained to a
// sane quality before being attacked — an attack on a broken ranker says
// nothing — and exposed publicly so downstream users can tune FitConfig.
#ifndef POISONREC_REC_METRICS_H_
#define POISONREC_REC_METRICS_H_

#include <cstdint>

#include "data/dataset.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

/// Hit-rate / NDCG of held-out items under sampled candidate ranking:
/// for each held-out (user, item), the item is ranked against
/// `num_negatives` sampled unseen items; HR@k counts how often it lands
/// in the top k, NDCG@k discounts by position.
struct RankingQuality {
  double hit_rate = 0.0;
  double ndcg = 0.0;
  std::size_t num_evaluated = 0;
};

struct EvalProtocol {
  std::size_t top_k = 10;
  std::size_t num_negatives = 50;
  std::uint64_t seed = 17;
};

/// Evaluates `ranker` (already fitted on the training split) on held-out
/// interactions. `full` is the unsplit log (used to exclude every seen
/// item from the negative draws). An event whose user has seen every
/// item has no negative to draw; it is skipped and not counted in
/// `num_evaluated`.
RankingQuality EvaluateRanking(const Recommender& ranker,
                               const data::Dataset& full,
                               const std::vector<data::Interaction>& heldout,
                               const EvalProtocol& protocol = EvalProtocol());

/// Expected HR@k of a random scorer under the same protocol (the floor a
/// trained ranker must clear): k / (num_negatives + 1).
double RandomHitRate(const EvalProtocol& protocol);

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_METRICS_H_
