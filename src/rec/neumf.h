// NeuMF: Neural Collaborative Filtering (He et al., WWW'17). Fuses a GMF
// branch (elementwise product of user/item embeddings) with an MLP branch
// (concatenated embeddings through ReLU layers); a final linear layer maps
// the fused representation to a preference logit. Trained with binary
// cross-entropy over observed positives and sampled negatives.
#ifndef POISONREC_REC_NEUMF_H_
#define POISONREC_REC_NEUMF_H_

#include <memory>
#include <optional>
#include <vector>

#include "nn/module.h"
#include "rec/factor_model.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

class NeuMf : public Recommender {
 public:
  explicit NeuMf(const FitConfig& config = FitConfig());

  std::string Name() const override { return "NeuMF"; }
  void Fit(const data::Dataset& dataset) override;
  void Update(const data::Dataset& poison) override;
  std::vector<double> Score(
      data::UserId user,
      const std::vector<data::ItemId>& candidates) const override;
  std::unique_ptr<Recommender> Clone() const override;

  /// The GMF item embedding table (used for strategy visualization).
  const nn::Tensor& ItemEmbeddings() const;

 private:
  struct Net {
    Net(std::size_t num_users, std::size_t num_items, std::size_t dim,
        Rng* rng);
    std::vector<nn::Tensor> Parameters() const;
    /// The parameters as NeuMfLoss and NeuMfLogits take them: every
    /// Mlp layer is followed by a ReLU (Mlp's between layers, plus the
    /// one after the last).
    nn::NeuMfParams Params() const;

    nn::Embedding gmf_user;
    nn::Embedding gmf_item;
    nn::Embedding mlp_user;
    nn::Embedding mlp_item;
    nn::Mlp mlp;       // (2*dim) -> dim -> dim/2
    nn::Linear fuse;   // (dim + dim/2) -> 1
  };

  void TrainEpochs(const std::vector<data::Interaction>& interactions,
                   std::size_t epochs, Rng* rng);

  FitConfig config_;
  std::size_t num_users_ = 0;
  std::size_t num_items_ = 0;
  std::optional<Net> net_;
  std::vector<std::unordered_set<data::ItemId>> positives_;
  ReplayPool<data::Interaction> clean_;
  std::uint64_t update_seed_ = 0;
};

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_NEUMF_H_
