// GRU4Rec (Hidasi et al., ICLR'16): session-based next-item prediction.
// A GRU consumes the user's behavior sequence through item embeddings; the
// hidden state scores items by dot product with their embeddings. Trained
// with sampled-softmax cross-entropy (positive next item vs sampled
// negatives). This ranker is order-sensitive — the property that makes
// sequential attacks (alternating clicks) effective in the paper.
#ifndef POISONREC_REC_GRU4REC_H_
#define POISONREC_REC_GRU4REC_H_

#include <memory>
#include <optional>
#include <vector>

#include "nn/module.h"
#include "rec/factor_model.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

class Gru4Rec : public Recommender {
 public:
  explicit Gru4Rec(const FitConfig& config = FitConfig());

  std::string Name() const override { return "GRU4Rec"; }
  void Fit(const data::Dataset& dataset) override;
  void Update(const data::Dataset& poison) override;
  std::vector<double> Score(
      data::UserId user,
      const std::vector<data::ItemId>& candidates) const override;
  std::unique_ptr<Recommender> Clone() const override;

  /// The item embedding table (used for strategy visualization).
  const nn::Tensor& ItemEmbeddings() const;

 private:
  struct Net {
    Net(std::size_t num_items, std::size_t dim, Rng* rng);
    std::vector<nn::Tensor> Parameters() const;
    nn::Embedding items;
    nn::GruCell gru;
  };

  /// Hidden state after consuming `sequence` (its last kMaxSequenceLength
  /// clicks; empty sequence -> zero state).
  nn::Tensor Encode(const std::vector<data::ItemId>& sequence) const;

  void TrainEpochs(const std::vector<std::vector<data::ItemId>>& sequences,
                   std::size_t epochs, Rng* rng);

  FitConfig config_;
  std::size_t num_items_ = 0;
  std::optional<Net> net_;
  std::vector<std::vector<data::ItemId>> history_;  // per user, from Fit
  ReplayPool<std::vector<data::ItemId>> clean_sequences_;
  std::uint64_t update_seed_ = 0;
};

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_GRU4REC_H_
