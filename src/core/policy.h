// The PoisonRec policy network π_θ (paper §III-C): an LSTM encodes the
// state s_t = {u, a_0, ..., a_{t-1}} into h_t (Eq. 5); a 2-layer ReLU DNN
// D maps h_t to a query vector whose dot products with item (or tree-node)
// features define the action distribution (Eq. 6 / Algorithm 2).
//
// Four action-space designs are supported (paper §IV-B):
//   Plain        — flat softmax over I ∪ I_t (Eq. 6)
//   BPlain       — two-stage: choose the set (I_t vs I), then the item
//   BCBT-Popular — full BCBT with popularity-sorted leaves (Assumption 1)
//   BCBT-Random  — BCBT with randomly permuted leaves (ablation)
//   CBT-Unbiased — one popularity-sorted tree over I ∪ I_t, no root bias
//                  (ablation isolating hierarchy from priori knowledge)
#ifndef POISONREC_CORE_POLICY_H_
#define POISONREC_CORE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/action_tree.h"
#include "core/trajectory.h"
#include "nn/module.h"
#include "util/guard.h"
#include "util/random.h"

namespace poisonrec::core {

enum class ActionSpaceKind {
  kPlain,
  kBPlain,
  kBcbtPopular,
  kBcbtRandom,
  /// Ablation: the hierarchical structure without the priori-knowledge
  /// root (one popularity-sorted complete binary tree over I ∪ I_t).
  kCbtUnbiased,
};

const char* ActionSpaceKindName(ActionSpaceKind kind);

struct PolicyConfig {
  /// |e|: embedding size; all hidden layers share it (paper: 64).
  std::size_t embedding_dim = 64;
  ActionSpaceKind action_space = ActionSpaceKind::kBcbtPopular;
  std::uint64_t seed = 123;
};

/// A batch of homogeneous decisions recomputed under current parameters
/// (for the PPO ratio). Row k corresponds to trajectory
/// `traj_index[k]` and has stored old log-prob `old_log_probs[k]`.
struct DecisionBatch {
  nn::Tensor new_log_probs;            // (K x 1), differentiable
  std::vector<double> old_log_probs;   // K
  std::vector<std::size_t> traj_index; // K
};

class Policy {
 public:
  /// `original_items_in_popularity_order`: ascending popularity — the
  /// BCBT-Popular leaf order. `target_items`: the I_t ids. `num_items`
  /// must cover both sets (|I| + |I_t| dense ids).
  Policy(std::size_t num_attackers, std::size_t num_items,
         const std::vector<data::ItemId>& original_items_in_popularity_order,
         const std::vector<data::ItemId>& target_items,
         const PolicyConfig& config);

  /// Samples one episode's N trajectories (one per attacker), each of
  /// length T, recording per-decision log-probs under current parameters.
  /// Same as SampleEpisodesBatched with the single stream `rng`.
  std::vector<SampledTrajectory> SampleEpisode(std::size_t trajectory_length,
                                               Rng* rng) const;

  /// Rolls out `episodes` episodes at once by stacking all episodes'
  /// attacker rows into one (episodes·N x dim) recurrence — one LSTM/DNN
  /// forward per timestep. Episode e consumes (*rngs)[e] only, in a
  /// fixed order (t ascending, rows 0..N-1), and every dense op computes
  /// each output row independently of the batch it sits in, so episode
  /// e is bit-identical to a SampleEpisode call on the same stream.
  std::vector<std::vector<SampledTrajectory>> SampleEpisodesBatched(
      std::size_t episodes, std::size_t trajectory_length,
      std::vector<Rng>* rngs) const;

  /// Recomputes every decision's log-prob for PPO (Eq. 7/9). All
  /// trajectories must share the same length.
  std::vector<DecisionBatch> RecomputeLogProbs(
      const std::vector<const SampledTrajectory*>& trajectories) const;

  std::vector<nn::Tensor> Parameters() const;

  /// Guardrail hook: sweeps every parameter tensor for NaN/Inf. A policy
  /// whose parameters fail this sweep samples garbage trajectories, so
  /// the trainer checks it before each step (util/guard.h,
  /// docs/robustness.md).
  FiniteSweep SweepParametersFinite() const;
  const nn::Tensor& item_embeddings() const { return item_emb_.table(); }
  std::size_t embedding_dim() const { return config_.embedding_dim; }
  ActionSpaceKind kind() const { return config_.action_space; }
  const ActionTree* tree() const { return tree_.get(); }
  std::size_t num_items() const { return num_items_; }

 private:
  /// Hidden states for a batch of sequences: returns h after consuming the
  /// user embedding and the first t items, for t = 0..T-1 (the state used
  /// to pick a_t). Output: T tensors of shape (rows x dim).
  std::vector<nn::Tensor> HiddenStates(
      const std::vector<std::size_t>& attacker_ids,
      const std::vector<std::vector<data::ItemId>>& item_prefixes,
      std::size_t trajectory_length) const;

  /// Feature-row index of a tree node in the concatenated
  /// [item embeddings; node embeddings] table.
  std::size_t NodeFeatureRow(int node_id) const;

  /// Raw feature pointer for tree-walk sampling (no autograd).
  const float* NodeFeatureData(int node_id) const;

  // Sampling helpers (raw-data fast paths).
  void SampleStepPlain(const std::vector<float>& dht, std::size_t row,
                       Rng* rng, SampledStep* step) const;
  void SampleStepBPlain(const std::vector<float>& dht, std::size_t row,
                        Rng* rng, SampledStep* step) const;
  void SampleStepTree(const std::vector<float>& dht, std::size_t row,
                      Rng* rng, SampledStep* step) const;

  PolicyConfig config_;
  std::size_t num_attackers_;
  std::size_t num_items_;
  std::vector<data::ItemId> targets_;
  std::vector<data::ItemId> originals_;

  // Declared before the modules: member init order supplies it to them.
  mutable Rng init_rng_;

  nn::Embedding user_emb_;
  nn::Embedding item_emb_;
  nn::LstmCell lstm_;
  nn::Mlp dnn_;

  // BCBT state (kBcbtPopular / kBcbtRandom).
  std::unique_ptr<ActionTree> tree_;
  nn::Tensor node_emb_;  // (num_nodes x dim): rows for internal nodes

  // BPlain state: features of the two set pseudo-nodes.
  nn::Tensor set_emb_;  // (2 x dim)
  std::vector<char> is_target_;  // per item id
};

}  // namespace poisonrec::core

#endif  // POISONREC_CORE_POLICY_H_
