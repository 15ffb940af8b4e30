#include "defense/detector.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace poisonrec::defense {

namespace {

// Popularity rank in [0, 1] per item (1 = most popular).
std::vector<double> PopularityQuantile(const data::Dataset& log) {
  const std::vector<data::ItemId> order = log.ItemsByPopularity();
  std::vector<double> quantile(log.num_items(), 0.0);
  for (std::size_t r = 0; r < order.size(); ++r) {
    quantile[order[r]] =
        static_cast<double>(r + 1) / static_cast<double>(order.size());
  }
  return quantile;
}

}  // namespace

std::vector<double> ColdItemAffinityDetector::Score(
    const data::Dataset& log) const {
  const std::vector<double> quantile = PopularityQuantile(log);
  std::vector<double> scores(log.num_users(), 0.0);
  for (data::UserId u = 0; u < log.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = log.Sequence(u);
    if (seq.empty()) continue;
    double mean_quantile = 0.0;
    for (data::ItemId item : seq) mean_quantile += quantile[item];
    mean_quantile /= static_cast<double>(seq.size());
    // Low mean quantile = clicks on unpopular/cold items = suspicious.
    scores[u] = 1.0 - mean_quantile;
  }
  return scores;
}

std::vector<double> ClickEntropyDetector::Score(
    const data::Dataset& log) const {
  std::vector<double> scores(log.num_users(), 0.0);
  for (data::UserId u = 0; u < log.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = log.Sequence(u);
    if (seq.empty()) continue;
    std::unordered_map<data::ItemId, double> counts;
    for (data::ItemId item : seq) counts[item] += 1.0;
    double entropy = 0.0;
    for (const auto& [item, c] : counts) {
      const double p = c / static_cast<double>(seq.size());
      entropy -= p * std::log2(p);
    }
    // Normalize by the maximum achievable entropy for this length (all
    // clicks distinct); a fully repetitive session scores 1.
    const double max_entropy =
        std::log2(static_cast<double>(seq.size()));
    scores[u] = max_entropy <= 0.0 ? 1.0 : 1.0 - entropy / max_entropy;
  }
  return scores;
}

FleetSimilarityDetector::FleetSimilarityDetector(std::size_t min_length)
    : min_length_(min_length) {}

std::vector<double> FleetSimilarityDetector::Score(
    const data::Dataset& log) const {
  std::vector<double> scores(log.num_users(), 0.0);
  // Item sets per eligible user.
  std::vector<data::UserId> users;
  std::vector<std::unordered_set<data::ItemId>> sets;
  for (data::UserId u = 0; u < log.num_users(); ++u) {
    const std::vector<data::ItemId>& seq = log.Sequence(u);
    if (seq.size() < min_length_) continue;
    users.push_back(u);
    sets.emplace_back(seq.begin(), seq.end());
  }
  // Max Jaccard similarity with any other user. Quadratic; logs at the
  // scales this library targets keep this tractable, and an inverted
  // index over items prunes most pairs.
  std::unordered_map<data::ItemId, std::vector<std::size_t>> by_item;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (data::ItemId item : sets[i]) by_item[item].push_back(i);
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::unordered_map<std::size_t, std::size_t> overlap;
    for (data::ItemId item : sets[i]) {
      for (std::size_t j : by_item[item]) {
        if (j != i) ++overlap[j];
      }
    }
    double best = 0.0;
    for (const auto& [j, inter] : overlap) {
      const double uni = static_cast<double>(sets[i].size() +
                                             sets[j].size() - inter);
      best = std::max(best, static_cast<double>(inter) / uni);
    }
    scores[users[i]] = best;
  }
  return scores;
}

EnsembleDetector::EnsembleDetector(
    std::vector<std::unique_ptr<Detector>> parts)
    : parts_(std::move(parts)) {
  POISONREC_CHECK(!parts_.empty());
}

std::vector<double> EnsembleDetector::Score(const data::Dataset& log) const {
  // Rank-average: robust to incomparable score scales.
  std::vector<double> combined(log.num_users(), 0.0);
  for (const auto& part : parts_) {
    const std::vector<double> scores = part->Score(log);
    std::vector<std::size_t> order(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&scores](std::size_t a, std::size_t b) {
                if (scores[a] != scores[b]) return scores[a] < scores[b];
                return a < b;
              });
    for (std::size_t r = 0; r < order.size(); ++r) {
      combined[order[r]] +=
          static_cast<double>(r) / static_cast<double>(order.size());
    }
  }
  for (double& s : combined) {
    s /= static_cast<double>(parts_.size());
  }
  return combined;
}

std::unique_ptr<Detector> MakeDefaultEnsemble() {
  std::vector<std::unique_ptr<Detector>> parts;
  parts.push_back(std::make_unique<ColdItemAffinityDetector>());
  parts.push_back(std::make_unique<ClickEntropyDetector>());
  parts.push_back(std::make_unique<FleetSimilarityDetector>());
  return std::make_unique<EnsembleDetector>(std::move(parts));
}

StatusOr<std::unique_ptr<Detector>> MakeDetector(const std::string& name) {
  std::unique_ptr<Detector> detector;
  if (name == "ensemble") detector = MakeDefaultEnsemble();
  if (name == "cold") detector = std::make_unique<ColdItemAffinityDetector>();
  if (name == "entropy") detector = std::make_unique<ClickEntropyDetector>();
  if (name == "fleet") detector = std::make_unique<FleetSimilarityDetector>();
  if (detector == nullptr) {
    return Status::InvalidArgument("unknown detector \"" + name +
                                   "\" (want ensemble|cold|entropy|fleet)");
  }
  return detector;
}

double DetectionAuc(const std::vector<double>& scores,
                    const std::vector<data::UserId>& fake_users) {
  // Degenerate inputs yield the chance value instead of dividing by zero
  // (or crashing): no fake users, every user fake, fake ids outside the
  // score vector, or an empty score vector all leave zero comparable
  // (fake, real) pairs. Constant scores are all ties and also land on
  // 0.5 through the ordinary path.
  std::unordered_set<data::UserId> fakes;
  for (data::UserId f : fake_users) {
    if (f < scores.size()) fakes.insert(f);
  }
  if (fakes.empty() || fakes.size() >= scores.size()) return 0.5;
  // AUC = P(score(fake) > score(real)) + 0.5 P(tie).
  double wins = 0.0;
  std::size_t pairs = 0;
  for (data::UserId f = 0; f < scores.size(); ++f) {
    if (fakes.count(f) == 0) continue;
    for (data::UserId r = 0; r < scores.size(); ++r) {
      if (fakes.count(r) > 0) continue;
      if (scores[f] > scores[r]) {
        wins += 1.0;
      } else if (scores[f] == scores[r]) {
        wins += 0.5;
      }
      ++pairs;
    }
  }
  return pairs == 0 ? 0.5 : wins / static_cast<double>(pairs);
}

data::Dataset RemoveSuspiciousUsers(const data::Dataset& log,
                                    const std::vector<double>& scores,
                                    double fraction) {
  POISONREC_CHECK_EQ(scores.size(), log.num_users());
  POISONREC_CHECK_GE(fraction, 0.0);
  POISONREC_CHECK_LE(fraction, 1.0);
  std::vector<data::UserId> order(log.num_users());
  for (data::UserId u = 0; u < order.size(); ++u) order[u] = u;
  const std::size_t n_remove = static_cast<std::size_t>(
      fraction * static_cast<double>(log.num_users()));
  // Only membership in the top-n_remove set matters (it feeds a hash
  // set), and the comparator is a total order (ties by user id), so
  // nth_element selects exactly the users the old full sort did.
  const auto mid = order.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(n_remove, order.size()));
  std::nth_element(order.begin(), mid, order.end(),
                   [&scores](data::UserId a, data::UserId b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     return a < b;
                   });
  std::unordered_set<data::UserId> removed(order.begin(), mid);
  data::Dataset filtered(log.num_users(), log.num_items());
  for (data::UserId u = 0; u < log.num_users(); ++u) {
    if (removed.count(u) > 0) continue;
    filtered.AddSequence(u, log.Sequence(u));
  }
  return filtered;
}

}  // namespace poisonrec::defense
