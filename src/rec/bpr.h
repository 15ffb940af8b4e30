// BPR: Bayesian Personalized Ranking (Rendle et al., 2009). Matrix
// factorization trained with the pairwise ranking objective
// -log sigmoid(x_ui - x_uj) over sampled (user, positive, negative)
// triples.
#ifndef POISONREC_REC_BPR_H_
#define POISONREC_REC_BPR_H_

#include <memory>
#include <vector>

#include "rec/factor_model.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

class Bpr : public Recommender {
 public:
  explicit Bpr(const FitConfig& config = FitConfig());

  std::string Name() const override { return "BPR"; }
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

#endif  // POISONREC_REC_BPR_H_
