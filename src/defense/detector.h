// Poisoning-account detection — the defensive counterpart of the attack
// framework (the paper's future-work direction). A detector reads the
// (possibly poisoned) interaction log and assigns every user a suspicion
// score; higher = more likely a fake account. Detectors are unsupervised:
// they exploit the statistical fingerprints injection attacks leave
// behind (clicking brand-new items, low-entropy repeat clicking,
// near-duplicate trajectories across the attacker fleet).
#ifndef POISONREC_DEFENSE_DETECTOR_H_
#define POISONREC_DEFENSE_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace poisonrec::defense {

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string Name() const = 0;

  /// Suspicion score per user id (size = log.num_users()); users with no
  /// interactions score 0.
  virtual std::vector<double> Score(const data::Dataset& log) const = 0;
};

/// Flags users whose clicks concentrate on globally unpopular items.
/// Item promotion attacks must click the (cold) targets heavily, pulling
/// the user's mean popularity-rank far below the population's.
class ColdItemAffinityDetector : public Detector {
 public:
  std::string Name() const override { return "ColdItemAffinity"; }
  std::vector<double> Score(const data::Dataset& log) const override;
};

/// Flags users with abnormally low click entropy (few distinct items
/// clicked over and over — e.g., the target-only strategies PoisonRec
/// learns against popularity rankers).
class ClickEntropyDetector : public Detector {
 public:
  std::string Name() const override { return "ClickEntropy"; }
  std::vector<double> Score(const data::Dataset& log) const override;
};

/// Flags fleets: users whose item multisets are near-duplicates of other
/// users'. Attack trajectories sampled from one shared policy are far
/// more similar to each other than organic sessions.
class FleetSimilarityDetector : public Detector {
 public:
  /// Only users with at least `min_length` events are compared.
  explicit FleetSimilarityDetector(std::size_t min_length = 3);

  std::string Name() const override { return "FleetSimilarity"; }
  std::vector<double> Score(const data::Dataset& log) const override;

 private:
  std::size_t min_length_;
};

/// Rank-averages the scores of several detectors.
class EnsembleDetector : public Detector {
 public:
  explicit EnsembleDetector(std::vector<std::unique_ptr<Detector>> parts);

  std::string Name() const override { return "Ensemble"; }
  std::vector<double> Score(const data::Dataset& log) const override;

 private:
  std::vector<std::unique_ptr<Detector>> parts_;
};

/// Builds the default ensemble (all three detectors above).
std::unique_ptr<Detector> MakeDefaultEnsemble();

/// Builds the detector a plan or the CLI names: "ensemble" (the default
/// ensemble), "cold", "entropy" or "fleet". Any other name is
/// kInvalidArgument.
StatusOr<std::unique_ptr<Detector>> MakeDetector(const std::string& name);

/// Area under the ROC curve of `scores` against the ground-truth fake
/// user ids: 1.0 = perfect separation, 0.5 = chance. Ties contribute 0.5.
/// Degenerate inputs (no fake users, all users fake, fake ids outside the
/// score vector, constant scores) return the chance value 0.5.
double DetectionAuc(const std::vector<double>& scores,
                    const std::vector<data::UserId>& fake_users);

/// Mitigation: returns a copy of `log` with the `fraction` most
/// suspicious users' interactions removed (capacities preserved, so the
/// filtered log can retrain the same ranker). Ties at the cutoff break
/// by user id.
data::Dataset RemoveSuspiciousUsers(const data::Dataset& log,
                                    const std::vector<double>& scores,
                                    double fraction);

}  // namespace poisonrec::defense

#endif  // POISONREC_DEFENSE_DETECTOR_H_
