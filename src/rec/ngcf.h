// NGCF: Neural Graph Collaborative Filtering (Wang et al., SIGIR'19).
// User/item embeddings are refined by L rounds of message passing over the
// symmetric-normalized user-item bipartite graph:
//   E^{l+1} = LeakyReLU( W1 (L E^l + E^l) + W2 (L E^l ⊙ E^l) )
// and the final representation concatenates all layers. Trained with the
// BPR pairwise loss. Poisoning changes both the training pairs and the
// propagation graph, so Update rebuilds the adjacency with the poison
// edges included.
#ifndef POISONREC_REC_NGCF_H_
#define POISONREC_REC_NGCF_H_

#include <memory>
#include <optional>
#include <vector>

#include "nn/module.h"
#include "nn/sparse.h"
#include "rec/factor_model.h"
#include "rec/recommender.h"

namespace poisonrec::rec {

class Ngcf : public Recommender {
 public:
  explicit Ngcf(const FitConfig& config = FitConfig());

  std::string Name() const override { return "NGCF"; }
  void Fit(const data::Dataset& dataset) override;
  void Update(const data::Dataset& poison) override;
  std::vector<double> Score(
      data::UserId user,
      const std::vector<data::ItemId>& candidates) const override;
  std::unique_ptr<Recommender> Clone() const override;

  /// Base embedding table rows for items (offset num_users_), used for
  /// strategy visualization.
  const nn::Tensor& NodeEmbeddings() const;
  std::size_t item_offset() const { return num_users_; }

 private:
  struct Net {
    Net(std::size_t num_nodes, std::size_t dim, Rng* rng);
    std::vector<nn::Tensor> Parameters() const;
    nn::Embedding nodes;  // (U+I) x dim
    std::vector<nn::Linear> w1;
    std::vector<nn::Linear> w2;
  };

  /// Builds the normalized Laplacian from the accumulated positive edges.
  void RebuildGraph();

  /// Propagates embeddings; returns the concatenated multi-layer
  /// representation ((U+I) x dim*(layers+1)).
  nn::Tensor Propagate() const;

  /// Recomputes the final representation for scoring (no grad).
  void RefreshCache();

  void TrainEpochs(const std::vector<data::Interaction>& interactions,
                   std::size_t epochs, Rng* rng);

  FitConfig config_;
  std::size_t num_users_ = 0;
  std::size_t num_items_ = 0;
  std::optional<Net> net_;
  /// Shared with clones: a CsrMatrix is immutable (its transpose is
  /// built at construction), and RebuildGraph swaps in a new one.
  std::shared_ptr<const nn::CsrMatrix> laplacian_;
  std::vector<std::unordered_set<data::ItemId>> positives_;
  ReplayPool<data::Interaction> clean_;
  /// Propagate()'s output, row-major, as of the last Fit or Update.
  std::vector<float> cached_final_;
  std::uint64_t update_seed_ = 0;
};

}  // namespace poisonrec::rec

#endif  // POISONREC_REC_NGCF_H_
