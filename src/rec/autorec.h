// AutoRec (Sedhain et al., WWW'15), user-based variant adapted to implicit
// feedback: the autoencoder reconstructs each user's binary interaction
// vector over the item space. Training minimizes masked MSE on observed
// entries plus sampled negatives (so the trivial all-ones reconstruction
// is penalized). Scores are the decoder outputs for candidate items.
#ifndef POISONREC_REC_AUTOREC_H_
#define POISONREC_REC_AUTOREC_H_

#include <memory>
#include <optional>
#include <vector>

#include "nn/module.h"
#include "rec/factor_model.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

class AutoRec : public Recommender {
 public:
  explicit AutoRec(const FitConfig& config = FitConfig());

  std::string Name() const override { return "AutoRec"; }
  void Fit(const data::Dataset& dataset) override;
  void Update(const data::Dataset& poison) override;
  std::vector<double> Score(
      data::UserId user,
      const std::vector<data::ItemId>& candidates) const override;
  std::unique_ptr<Recommender> Clone() const override;

 private:
  struct Net {
    Net(std::size_t num_items, std::size_t hidden, Rng* rng);
    std::vector<nn::Tensor> Parameters() const;
    nn::Linear encoder;  // |I| -> hidden
    nn::Linear decoder;  // hidden -> |I|
  };

  /// Dense reconstruction of a batch of user vectors -> (B x |I|).
  nn::Tensor Reconstruct(const nn::Tensor& inputs) const;

  /// Builds the dense 0/1 input row for a user.
  std::vector<float> UserVector(data::UserId user) const;

  void TrainEpochs(const std::vector<data::UserId>& users,
                   std::size_t epochs, Rng* rng);

  FitConfig config_;
  std::size_t num_items_ = 0;
  std::optional<Net> net_;
  // Per-user positive item sets double as the autoencoder inputs.
  std::vector<std::unordered_set<data::ItemId>> positives_;
  ReplayPool<data::UserId> clean_users_;
  std::uint64_t update_seed_ = 0;
};

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_AUTOREC_H_
