#include "core/policy.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace poisonrec::core {

namespace {

// Stable log-softmax over a logits vector; returns log p[chosen].
double LogSoftmaxAt(const std::vector<double>& logits, std::size_t chosen) {
  double maxv = logits[0];
  for (double v : logits) maxv = std::max(maxv, v);
  double denom = 0.0;
  for (double v : logits) denom += std::exp(v - maxv);
  return logits[chosen] - maxv - std::log(denom);
}

double LogSigmoid(double x) {
  // log sigmoid(x) = -softplus(-x)
  return x > 0.0 ? -std::log1p(std::exp(-x)) : x - std::log1p(std::exp(x));
}

float DotRow(const float* a, const float* b, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < dim; ++k) acc += a[k] * b[k];
  return acc;
}

}  // namespace

const char* ActionSpaceKindName(ActionSpaceKind kind) {
  switch (kind) {
    case ActionSpaceKind::kPlain:
      return "Plain";
    case ActionSpaceKind::kBPlain:
      return "BPlain";
    case ActionSpaceKind::kBcbtPopular:
      return "BCBT-Popular";
    case ActionSpaceKind::kBcbtRandom:
      return "BCBT-Random";
    case ActionSpaceKind::kCbtUnbiased:
      return "CBT-Unbiased";
  }
  return "?";
}

Policy::Policy(
    std::size_t num_attackers, std::size_t num_items,
    const std::vector<data::ItemId>& original_items_in_popularity_order,
    const std::vector<data::ItemId>& target_items,
    const PolicyConfig& config)
    : config_(config),
      num_attackers_(num_attackers),
      num_items_(num_items),
      targets_(target_items),
      originals_(original_items_in_popularity_order),
      init_rng_(config.seed),
      user_emb_(num_attackers, config.embedding_dim, &init_rng_),
      item_emb_(num_items, config.embedding_dim, &init_rng_),
      lstm_(config.embedding_dim, config.embedding_dim, &init_rng_),
      dnn_({config.embedding_dim, config.embedding_dim,
            config.embedding_dim},
           &init_rng_) {
  POISONREC_CHECK(!targets_.empty());
  POISONREC_CHECK(!originals_.empty());
  POISONREC_CHECK_EQ(targets_.size() + originals_.size(), num_items_)
      << "target + original ids must cover the dense item space";

  is_target_.assign(num_items_, 0);
  for (data::ItemId t : targets_) {
    POISONREC_CHECK_LT(t, num_items_);
    is_target_[t] = 1;
  }

  switch (config_.action_space) {
    case ActionSpaceKind::kPlain:
      break;
    case ActionSpaceKind::kBPlain:
      set_emb_ = nn::Tensor::Randn(2, config_.embedding_dim, 0.1f,
                                   &init_rng_, /*requires_grad=*/true);
      break;
    case ActionSpaceKind::kBcbtPopular: {
      tree_ = std::make_unique<ActionTree>(targets_, originals_);
      break;
    }
    case ActionSpaceKind::kBcbtRandom: {
      std::vector<data::ItemId> shuffled = originals_;
      init_rng_.Shuffle(&shuffled);
      tree_ = std::make_unique<ActionTree>(targets_, shuffled);
      break;
    }
    case ActionSpaceKind::kCbtUnbiased: {
      // Targets are cold, so popularity order places them leftmost; the
      // tree is otherwise identical to BCBT-Popular minus the root bias.
      std::vector<data::ItemId> all = targets_;
      all.insert(all.end(), originals_.begin(), originals_.end());
      tree_ = std::make_unique<ActionTree>(all);
      break;
    }
  }
  if (tree_ != nullptr) {
    node_emb_ = nn::Tensor::Randn(tree_->num_nodes(), config_.embedding_dim,
                                  0.1f, &init_rng_, /*requires_grad=*/true);
  }
}

std::vector<nn::Tensor> Policy::Parameters() const {
  std::vector<nn::Tensor> params;
  for (const nn::Tensor& p : user_emb_.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : item_emb_.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : lstm_.Parameters()) params.push_back(p);
  for (const nn::Tensor& p : dnn_.Parameters()) params.push_back(p);
  if (node_emb_.defined()) params.push_back(node_emb_);
  if (set_emb_.defined()) params.push_back(set_emb_);
  return params;
}

FiniteSweep Policy::SweepParametersFinite() const {
  FiniteSweep total;
  for (const nn::Tensor& p : Parameters()) {
    const FiniteSweep sweep = SweepFinite(p.data());
    if (total.bad() == 0 && sweep.bad() > 0) {
      total.first_bad = total.checked + sweep.first_bad;
    }
    total.checked += sweep.checked;
    total.nan += sweep.nan;
    total.inf += sweep.inf;
  }
  return total;
}

std::size_t Policy::NodeFeatureRow(int node_id) const {
  if (tree_->IsLeaf(node_id)) return tree_->LeafItem(node_id);
  return num_items_ + static_cast<std::size_t>(node_id);
}

const float* Policy::NodeFeatureData(int node_id) const {
  const std::size_t dim = config_.embedding_dim;
  if (tree_->IsLeaf(node_id)) {
    return item_emb_.table().data().data() + tree_->LeafItem(node_id) * dim;
  }
  return node_emb_.data().data() +
         static_cast<std::size_t>(node_id) * dim;
}

// ---------------------------------------------------------------------------
// Sampling (fast raw-data paths; the LSTM/DNN forward uses tensor ops
// under NoGradScope).
// ---------------------------------------------------------------------------

void Policy::SampleStepPlain(const std::vector<float>& dht, std::size_t row,
                             Rng* rng, SampledStep* step) const {
  const std::size_t dim = config_.embedding_dim;
  const float* q = dht.data() + row * dim;
  const float* table = item_emb_.table().data().data();
  std::vector<double> logits(num_items_);
  for (std::size_t j = 0; j < num_items_; ++j) {
    logits[j] = DotRow(q, table + j * dim, dim);
  }
  const std::size_t chosen = rng->CategoricalFromLogits(logits);
  step->item = chosen;
  step->old_log_probs = {LogSoftmaxAt(logits, chosen)};
}

void Policy::SampleStepBPlain(const std::vector<float>& dht, std::size_t row,
                              Rng* rng, SampledStep* step) const {
  const std::size_t dim = config_.embedding_dim;
  const float* q = dht.data() + row * dim;
  const float* sets = set_emb_.data().data();
  std::vector<double> root_logits = {DotRow(q, sets, dim),
                                     DotRow(q, sets + dim, dim)};
  const std::size_t set_choice = rng->CategoricalFromLogits(root_logits);
  const std::vector<data::ItemId>& members =
      set_choice == 0 ? targets_ : originals_;
  const float* table = item_emb_.table().data().data();
  std::vector<double> logits(members.size());
  for (std::size_t j = 0; j < members.size(); ++j) {
    logits[j] = DotRow(q, table + members[j] * dim, dim);
  }
  const std::size_t pick = rng->CategoricalFromLogits(logits);
  step->item = members[pick];
  step->path = {static_cast<int>(set_choice)};
  step->old_log_probs = {LogSoftmaxAt(root_logits, set_choice),
                         LogSoftmaxAt(logits, pick)};
}

void Policy::SampleStepTree(const std::vector<float>& dht, std::size_t row,
                            Rng* rng, SampledStep* step) const {
  const std::size_t dim = config_.embedding_dim;
  const float* q = dht.data() + row * dim;
  int node = tree_->root();
  step->path.push_back(node);
  while (!tree_->IsLeaf(node)) {
    const ActionTree::Node& n = tree_->node(node);
    const double o_left = DotRow(q, NodeFeatureData(n.left), dim);
    const double o_right = DotRow(q, NodeFeatureData(n.right), dim);
    const double p_left = 1.0 / (1.0 + std::exp(o_right - o_left));
    const bool go_left = rng->Uniform() < p_left;
    const int next = go_left ? n.left : n.right;
    step->old_log_probs.push_back(
        LogSigmoid(go_left ? o_left - o_right : o_right - o_left));
    step->path.push_back(next);
    node = next;
  }
  step->item = tree_->LeafItem(node);
}

std::vector<SampledTrajectory> Policy::SampleEpisode(
    std::size_t trajectory_length, Rng* rng) const {
  std::vector<Rng> rngs = {*rng};
  std::vector<std::vector<SampledTrajectory>> episodes =
      SampleEpisodesBatched(1, trajectory_length, &rngs);
  *rng = rngs[0];
  return std::move(episodes[0]);
}

std::vector<std::vector<SampledTrajectory>> Policy::SampleEpisodesBatched(
    std::size_t episodes, std::size_t trajectory_length,
    std::vector<Rng>* rngs) const {
  POISONREC_CHECK(rngs != nullptr);
  POISONREC_CHECK_EQ(rngs->size(), episodes);
  nn::NoGradScope no_grad;
  const std::size_t n = num_attackers_;
  const std::size_t rows = episodes * n;
  std::vector<std::vector<SampledTrajectory>> out(episodes);
  std::vector<std::size_t> attacker_ids(rows);
  for (std::size_t e = 0; e < episodes; ++e) {
    out[e].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[e][i].attacker_index = i;
      out[e][i].steps.resize(trajectory_length);
      attacker_ids[e * n + i] = i;
    }
  }

  nn::LstmCell::State state = lstm_.InitialState(rows);
  state = lstm_.Step(user_emb_.Forward(attacker_ids), state);
  for (std::size_t t = 0; t < trajectory_length; ++t) {
    nn::Tensor dht = dnn_.Forward(state.h);  // (episodes·n x dim)
    const std::vector<float>& dht_data = dht.data();
    std::vector<std::size_t> chosen(rows);
    // Episode e draws only from its own stream, rows 0..n-1 at each t.
    for (std::size_t e = 0; e < episodes; ++e) {
      Rng* rng = &(*rngs)[e];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t row = e * n + i;
        SampledStep* step = &out[e][i].steps[t];
        switch (config_.action_space) {
          case ActionSpaceKind::kPlain:
            SampleStepPlain(dht_data, row, rng, step);
            break;
          case ActionSpaceKind::kBPlain:
            SampleStepBPlain(dht_data, row, rng, step);
            break;
          case ActionSpaceKind::kBcbtPopular:
          case ActionSpaceKind::kBcbtRandom:
          case ActionSpaceKind::kCbtUnbiased:
            SampleStepTree(dht_data, row, rng, step);
            break;
        }
        chosen[row] = step->item;
      }
    }
    if (t + 1 < trajectory_length) {
      state = lstm_.Step(item_emb_.Forward(chosen), state);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// PPO recompute (differentiable)
// ---------------------------------------------------------------------------

std::vector<nn::Tensor> Policy::HiddenStates(
    const std::vector<std::size_t>& attacker_ids,
    const std::vector<std::vector<data::ItemId>>& item_prefixes,
    std::size_t trajectory_length) const {
  const std::size_t rows = attacker_ids.size();
  std::vector<nn::Tensor> hs;
  hs.reserve(trajectory_length);
  nn::LstmCell::State state = lstm_.InitialState(rows);
  state = lstm_.Step(user_emb_.Forward(attacker_ids), state);
  hs.push_back(state.h);
  for (std::size_t t = 1; t < trajectory_length; ++t) {
    std::vector<std::size_t> items(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      items[r] = item_prefixes[r][t - 1];
    }
    state = lstm_.Step(item_emb_.Forward(items), state);
    hs.push_back(state.h);
  }
  return hs;
}

std::vector<DecisionBatch> Policy::RecomputeLogProbs(
    const std::vector<const SampledTrajectory*>& trajectories) const {
  POISONREC_CHECK(!trajectories.empty());
  const std::size_t rows = trajectories.size();
  const std::size_t T = trajectories[0]->steps.size();
  std::vector<std::size_t> attacker_ids(rows);
  std::vector<std::vector<data::ItemId>> sequences(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    POISONREC_CHECK_EQ(trajectories[r]->steps.size(), T)
        << "all trajectories must share T";
    attacker_ids[r] = trajectories[r]->attacker_index;
    sequences[r].reserve(T);
    for (const SampledStep& step : trajectories[r]->steps) {
      sequences[r].push_back(step.item);
    }
  }

  std::vector<nn::Tensor> hs = HiddenStates(attacker_ids, sequences, T);
  std::vector<DecisionBatch> batches;

  // [item embeddings; node embeddings], the rows the tree decisions
  // read. This node is where a leaf's item-row gradient joins the same
  // item's LSTM-input gradient; scattering straight into the two tables
  // would interleave those sums and move the golden digests.
  nn::Tensor feats;
  if (tree_ != nullptr) feats = nn::ConcatRows(item_emb_.table(), node_emb_);

  for (std::size_t t = 0; t < T; ++t) {
    nn::Tensor dht = dnn_.Forward(hs[t]);  // (rows x dim)
    switch (config_.action_space) {
      case ActionSpaceKind::kPlain: {
        nn::Tensor scores =
            nn::MatMul(dht, nn::Transpose(item_emb_.table()));
        nn::Tensor logp = nn::LogSoftmax(scores);
        nn::Tensor onehot = nn::Tensor::Zeros(rows, num_items_);
        DecisionBatch batch;
        for (std::size_t r = 0; r < rows; ++r) {
          onehot.set(r, trajectories[r]->steps[t].item, 1.0f);
          batch.old_log_probs.push_back(
              trajectories[r]->steps[t].old_log_probs[0]);
          batch.traj_index.push_back(r);
        }
        batch.new_log_probs = nn::RowSum(nn::Mul(logp, onehot));
        batches.push_back(std::move(batch));
        break;
      }
      case ActionSpaceKind::kBPlain: {
        // Root decision over the two set pseudo-nodes.
        nn::Tensor root_scores = nn::MatMul(dht, nn::Transpose(set_emb_));
        nn::Tensor root_logp = nn::LogSoftmax(root_scores);
        nn::Tensor root_onehot = nn::Tensor::Zeros(rows, 2);
        DecisionBatch root_batch;
        // In-set decision: full item scores with out-of-set logits masked.
        nn::Tensor scores =
            nn::MatMul(dht, nn::Transpose(item_emb_.table()));
        nn::Tensor mask = nn::Tensor::Zeros(rows, num_items_);
        nn::Tensor item_onehot = nn::Tensor::Zeros(rows, num_items_);
        DecisionBatch item_batch;
        for (std::size_t r = 0; r < rows; ++r) {
          const SampledStep& step = trajectories[r]->steps[t];
          const int set_choice = step.path[0];
          root_onehot.set(r, static_cast<std::size_t>(set_choice), 1.0f);
          root_batch.old_log_probs.push_back(step.old_log_probs[0]);
          root_batch.traj_index.push_back(r);
          const bool targets_chosen = set_choice == 0;
          for (std::size_t j = 0; j < num_items_; ++j) {
            const bool in_set = (is_target_[j] != 0) == targets_chosen;
            if (!in_set) mask.set(r, j, -1e9f);
          }
          item_onehot.set(r, step.item, 1.0f);
          item_batch.old_log_probs.push_back(step.old_log_probs[1]);
          item_batch.traj_index.push_back(r);
        }
        root_batch.new_log_probs =
            nn::RowSum(nn::Mul(root_logp, root_onehot));
        batches.push_back(std::move(root_batch));
        nn::Tensor logp = nn::LogSoftmax(nn::Add(scores, mask));
        item_batch.new_log_probs = nn::RowSum(nn::Mul(logp, item_onehot));
        batches.push_back(std::move(item_batch));
        break;
      }
      case ActionSpaceKind::kBcbtPopular:
      case ActionSpaceKind::kBcbtRandom:
      case ActionSpaceKind::kCbtUnbiased: {
        // Bucket the decisions by depth in one pass over the rows, rows
        // ascending within a depth; each depth is one fused node.
        struct Depth {
          std::vector<std::size_t> row_idx, chosen_rows, other_rows;
          DecisionBatch batch;
        };
        std::vector<Depth> depths;
        for (std::size_t r = 0; r < rows; ++r) {
          const SampledStep& step = trajectories[r]->steps[t];
          for (std::size_t d = 0; d + 1 < step.path.size(); ++d) {
            if (depths.size() == d) depths.emplace_back();
            Depth& depth = depths[d];
            const int chosen = step.path[d + 1];
            depth.row_idx.push_back(r);
            depth.chosen_rows.push_back(NodeFeatureRow(chosen));
            depth.other_rows.push_back(NodeFeatureRow(tree_->Sibling(chosen)));
            depth.batch.old_log_probs.push_back(step.old_log_probs[d]);
            depth.batch.traj_index.push_back(r);
          }
        }
        for (Depth& depth : depths) {
          depth.batch.new_log_probs = nn::TreeDecisionLogProb(
              dht, depth.row_idx, feats, depth.chosen_rows, depth.other_rows);
          batches.push_back(std::move(depth.batch));
        }
        break;
      }
    }
  }
  return batches;
}

}  // namespace poisonrec::core
