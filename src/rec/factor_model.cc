#include "rec/factor_model.h"

namespace poisonrec::rec {

std::vector<std::unordered_set<data::ItemId>> BuildPositiveSets(
    const data::Dataset& dataset) {
  std::vector<std::unordered_set<data::ItemId>> sets(dataset.num_users());
  for (data::UserId u = 0; u < dataset.num_users(); ++u) {
    for (data::ItemId item : dataset.Sequence(u)) sets[u].insert(item);
  }
  return sets;
}

void MergePositiveSets(const data::Dataset& extra,
                       std::vector<std::unordered_set<data::ItemId>>* sets) {
  if (extra.num_users() > sets->size()) sets->resize(extra.num_users());
  for (data::UserId u = 0; u < extra.num_users(); ++u) {
    for (data::ItemId item : extra.Sequence(u)) (*sets)[u].insert(item);
  }
}

data::ItemId SampleNegative(std::size_t num_items,
                            const std::unordered_set<data::ItemId>& positives,
                            Rng* rng) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const data::ItemId j = rng->Index(num_items);
    if (positives.find(j) == positives.end()) return j;
  }
  return rng->Index(num_items);
}

}  // namespace poisonrec::rec
