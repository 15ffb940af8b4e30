// PMF: Probabilistic Matrix Factorization (Salakhutdinov & Mnih, 2007)
// adapted to implicit feedback: observed interactions are 1-targets,
// sampled unobserved items are 0-targets, squared loss with Gaussian
// (L2) priors, SGD.
#ifndef POISONREC_REC_PMF_H_
#define POISONREC_REC_PMF_H_

#include <memory>
#include <vector>

#include "rec/factor_model.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

class Pmf : public Recommender {
 public:
  explicit Pmf(const FitConfig& config = FitConfig());

  std::string Name() const override { return "PMF"; }
  void Fit(const data::Dataset& dataset) override;
  void Update(const data::Dataset& poison) override;
  std::vector<double> Score(
      data::UserId user,
      const std::vector<data::ItemId>& candidates) const override;
  std::unique_ptr<Recommender> Clone() const override;

  const FactorTables& factors() const { return factors_; }

 private:
  void SgdEpochs(const std::vector<data::Interaction>& interactions,
                 std::size_t epochs, Rng* rng);

  FitConfig config_;
  FactorTables factors_;
  std::vector<std::unordered_set<data::ItemId>> positives_;
  ReplayPool<data::Interaction> clean_;
  std::uint64_t update_seed_ = 0;
};

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_PMF_H_
