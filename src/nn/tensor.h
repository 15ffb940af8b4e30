// Dense 2-D tensor with reverse-mode automatic differentiation.
//
// This is the neural-network substrate for the whole library: the PoisonRec
// policy network (LSTM + DNN head) and the neural rankers (NeuMF, AutoRec,
// GRU4Rec, NGCF) are all built from these ops. The design is a dynamic tape:
// every op allocates a node that remembers its parents and a backward
// closure; Tensor::Backward() runs the tape in reverse topological order.
//
// The backward walk orders the interior nodes (those with parents) by an
// iterative post-order DFS from the loss and runs their closures in
// reverse. It marks a node visited by writing the walk's stamp into it:
// one number per walk from a process-wide atomic counter, so no two walks
// share a stamp, even when a graph built on one thread is walked on
// another. Leaves have no backward, so the walk neither queues nor stamps
// them: graphs built on different threads may share constant leaves, and
// their concurrent walks then write nothing shared.
//
// Tensors are row-major float matrices. A "vector" is a 1xN or Nx1 tensor.
// Gradients are accumulated into per-node grad buffers; optimizers read
// them and the caller zeroes them between steps.
//
// Row-sparse gradients: a leaf that the tape reads only through Rows (an
// embedding table) has a gradient that is nonzero on the looked-up rows
// alone. Rows' backward lists those rows on the leaf, ZeroGrad clears
// just them, and Adam updates just them (lazy Adam). The mode is derived
// from the tape, never set: once any other op takes the leaf as input,
// its gradient is dense for good.
#ifndef POISONREC_NN_TENSOR_H_
#define POISONREC_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace poisonrec::nn {

namespace internal {

/// Shared node in the autograd graph. Users interact through Tensor.
struct TensorImpl {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  // allocated lazily when requires_grad
  bool requires_grad = false;
  // Parents are held by shared_ptr so the graph stays alive until the
  // output handle is dropped; backward closures capture raw pointers only
  // (no ownership cycles).
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;
  // Row-sparse bookkeeping (see the file comment). `gathered` and
  // `read_densely` are set when a recorded op takes this node as input,
  // read by row gathers (Rows, and the fused ops that gather) or densely
  // respectively; neither is ever cleared.
  bool gathered = false;
  bool read_densely = false;
  // Set by Tensor::mutable_grad(): a write the row list cannot see, so
  // the next ZeroGrad clears the whole buffer.
  bool grad_written = false;
  // Rows Rows' backward scattered into since the last ZeroGrad, each
  // once; `row_listed` marks them. Both keep their storage across steps.
  std::vector<std::size_t> grad_rows;
  std::vector<bool> row_listed;
  // The stamp of the last backward walk that queued this (interior) node.
  std::uint64_t walk_stamp = 0;

  float& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  float at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  float& gat(std::size_t r, std::size_t c) { return grad[r * cols + c]; }
  bool RowSparse() const {
    return parents.empty() && gathered && !read_densely;
  }
  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace internal

/// Thread-local gradient-recording mode (the PyTorch GradMode idiom).
/// While disabled, ops skip graph-node bookkeeping entirely: no parent
/// edges, no backward closures, no grad buffers — outputs are plain
/// leaves. Inference and sampling paths (Policy::SampleEpisode, the
/// neural rankers' Score/top-k) run under a disabled scope, which also
/// makes them safe to call concurrently on shared parameters (reads
/// only, no tape mutation).
class GradMode {
 public:
  static bool Enabled();
  static void SetEnabled(bool enabled);
};

/// RAII scope that disables gradient recording on this thread and
/// restores the previous mode on destruction (nests correctly).
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool previous_;
};

/// Value-semantics handle to an autograd node. Copying a Tensor aliases the
/// underlying buffer (like a shared_ptr); use DeepCopy for a detached copy.
class Tensor {
 public:
  Tensor() = default;

  // -- Factories ----------------------------------------------------------
  static Tensor Zeros(std::size_t rows, std::size_t cols,
                      bool requires_grad = false);
  static Tensor Ones(std::size_t rows, std::size_t cols,
                     bool requires_grad = false);
  static Tensor Full(std::size_t rows, std::size_t cols, float value,
                     bool requires_grad = false);
  static Tensor FromData(std::size_t rows, std::size_t cols,
                         std::vector<float> data, bool requires_grad = false);
  /// Gaussian init N(0, stddev^2).
  static Tensor Randn(std::size_t rows, std::size_t cols, float stddev,
                      Rng* rng, bool requires_grad = false);
  /// Uniform init in [lo, hi).
  static Tensor Rand(std::size_t rows, std::size_t cols, float lo, float hi,
                     Rng* rng, bool requires_grad = false);

  // -- Shape / element access ---------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  std::size_t rows() const { return impl_->rows; }
  std::size_t cols() const { return impl_->cols; }
  std::size_t size() const { return impl_->data.size(); }
  bool is_scalar() const { return defined() && size() == 1; }

  float at(std::size_t r, std::size_t c) const { return impl_->at(r, c); }
  void set(std::size_t r, std::size_t c, float v) { impl_->at(r, c) = v; }
  /// Value of a 1x1 tensor.
  float item() const;

  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& mutable_data() { return impl_->data; }
  /// Gradient buffer (empty until backward touches this node).
  const std::vector<float>& grad() const { return impl_->grad; }
  /// Writable gradient buffer. Writes through it may land outside
  /// grad_rows(), so the next ZeroGrad clears the whole buffer.
  std::vector<float>& mutable_grad() {
    impl_->grad_written = true;
    return impl_->grad;
  }

  bool requires_grad() const { return defined() && impl_->requires_grad; }
  /// True for a leaf that recorded ops have read through Rows and never
  /// otherwise: its tape gradient lies in grad_rows() alone.
  bool row_sparse_grad() const { return defined() && impl_->RowSparse(); }
  /// Rows that Rows' backward wrote since the last ZeroGrad, each listed
  /// once, in first-write order. Only row-sparse leaves list rows.
  const std::vector<std::size_t>& grad_rows() const {
    return impl_->grad_rows;
  }
  /// Zeroes this tensor's gradient buffer (keeps allocation). A row-sparse
  /// gradient clears only grad_rows(), unless mutable_grad() was handed
  /// out since; either way every element is zero afterwards.
  void ZeroGrad();

  /// Runs backpropagation from this (scalar) tensor: seeds d(self)/d(self)
  /// = 1 and applies the tape in reverse topological order.
  void Backward();

  /// Detached deep copy (new leaf; same data; requires_grad as given).
  Tensor DeepCopy(bool requires_grad = false) const;
  /// Overwrites this tensor's values with `other`'s (shapes must match).
  void CopyDataFrom(const Tensor& other);

  std::string ShapeString() const;

  // Internal: op implementations need the node.
  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<internal::TensorImpl> impl)
      : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

namespace internal {

// Op-authoring hooks. Every op in tensor.cc records itself with these, and
// so do the ops defined elsewhere (SparseMatMul, SoftmaxCrossEntropy).

/// True when grad mode is on and some input requires grad.
bool TrackGrad(std::initializer_list<const Tensor*> inputs);

/// Makes `out` a tape node: its parents are `inputs`, then `gathered`, in
/// order, and `backward_fn` accumulates out's gradient into theirs. Marks
/// how each grad-requiring parent is read: `gathered` ones row by row, as
/// Rows reads its table, `inputs` densely. A tensor in both lists is
/// marked both ways, so it is read densely.
void Attach(const std::shared_ptr<TensorImpl>& out,
            std::initializer_list<const Tensor*> inputs,
            std::function<void()> backward_fn,
            std::initializer_list<const Tensor*> gathered = {});

}  // namespace internal

// -- Ops --------------------------------------------------------------------
// All ops allocate a fresh output node; inputs are unmodified.

/// Matrix product: (m x k) * (k x n) -> (m x n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Elementwise sum. Shapes must match, or b may be (1 x n) and broadcast
/// across a's rows (bias add).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference (same broadcast rule as Add).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) product; shapes must match, or b may be (m x 1)
/// and broadcast across a's columns.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Scalar multiple.
Tensor Scale(const Tensor& a, float s);
/// Adds a scalar to every element.
Tensor AddScalar(const Tensor& a, float s);

Tensor Sigmoid(const Tensor& a);
/// Elementwise tanh, by kernels::Tanh (the bits of glibc's tanhf).
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
/// max(x, slope*x) with slope in (0,1).
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
Tensor Exp(const Tensor& a);
/// log(1 + exp(x)), numerically stable.
Tensor Softplus(const Tensor& a);
/// Elementwise square.
Tensor Square(const Tensor& a);

/// Row-wise log-softmax (numerically stable).
Tensor LogSoftmax(const Tensor& a);

/// Sum of all elements -> 1x1.
Tensor Sum(const Tensor& a);
/// Mean of all elements -> 1x1.
Tensor Mean(const Tensor& a);
/// Row sums -> (m x 1).
Tensor RowSum(const Tensor& a);

Tensor Transpose(const Tensor& a);
/// Horizontal concatenation: (m x a) ++ (m x b) -> (m x (a+b)).
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Vertical concatenation: (a x n) ++ (b x n) -> ((a+b) x n).
Tensor ConcatRows(const Tensor& a, const Tensor& b);

/// Contiguous column slice: columns [start, start+len) -> (m x len).
Tensor Cols(const Tensor& a, std::size_t start, std::size_t len);

/// Gather: selects rows of `table` by index -> (|indices| x cols).
/// Backward scatter-adds into the table (this is the embedding lookup)
/// and, when the table is a row-sparse leaf, lists the rows it wrote.
Tensor Rows(const Tensor& table, const std::vector<std::size_t>& indices);

/// Row-wise dot product of equal-shaped matrices -> (m x 1).
Tensor RowDot(const Tensor& a, const Tensor& b);

/// Fused LSTM cell tail: consumes the (B x 4h) pre-activation block
/// `preact` (layout [i | f | g | o], the order module.cc produces) and
/// the previous cell state `c_prev` (B x h), and returns the new hidden
/// and cell states in one pass per row instead of eight elementwise
/// temporaries. Forward math uses the same per-element formulas as the
/// composed Sigmoid/Tanh/Mul/Add chain it replaces; rows are
/// partitioned with the kernels' row-ownership contract, so results do
/// not depend on the thread count.
struct LstmGatesResult {
  Tensor h;
  Tensor c;
};
LstmGatesResult LstmGates(const Tensor& preact, const Tensor& c_prev);

namespace internal {

/// Tests and bench_kernels only: LstmGates with its row splits (forward
/// and backward) from `min_work` elements on instead of
/// kernels::kParallelRowsMinWork.
LstmGatesResult LstmGatesAt(const Tensor& preact, const Tensor& c_prev,
                            std::size_t min_work);

}  // namespace internal

/// GRU4Rec's training loss over one session as one tape node. Runs a GRU
/// cell (update z, reset r, candidate n; weights W_x (d x 3h), b_x, W_h
/// (h x 3h), b_h (1 x 3h), h = d) over the embedded `inputs` x_0 …
/// x_{T-1} from a zero state:
///   gx = x_t W_x + b_x, gh = h_{t-1} W_h + b_h,
///   z = σ(gx_z + gh_z), r = σ(gx_r + gh_r), n = tanh(gx_n + r * gh_n),
///   h_t = (1 - z) * n + z * h_{t-1},
/// scores h_t against row t of `candidates` (T rows of C ids, the
/// positive first) and returns the 1x1 loss
///   Scale(((l_0 + l_1) + …), 1/T),
///   l_t = SoftmaxCrossEntropy(MatMul(h_t, Transpose(Rows(table, cands_t))), {0}).
/// Bit-identical, value and every gradient, to that graph composed from
/// Rows, Affine, the gate formulas (Cols, Add, Sigmoid, Tanh, Mul, Scale,
/// AddScalar), Transpose, MatMul, SoftmaxCrossEntropy, Add and Scale, and
/// it issues the same GEMM calls. The forward computes each value as those
/// ops do and saves the per-step state; the backward replays the composed
/// graph's reverse walk, for t = T-1 … 0: the step loss's gradient, the
/// logits row, MatMul (h_t's gradient, then the transposed rows'),
/// Transpose, the candidate rows' scatter into the table in the row's
/// order, the gates (g·z into h_{t-1}'s gradient), Affine(h_{t-1}) (b_h,
/// h_{t-1}, W_h; W_h's product also at t = 0, on the zero state), then
/// Affine(x_t) (b_x, x_t, W_x) and x_t's scatter. So h_t's gradient sums
/// step t+1's gate term, step t+1's W_h term, then step t's logits term.
/// Parents {W_x, b_x, W_h, b_h}, read densely, then the table, read by
/// row gathers: a row-sparse table lists its rows in the gathers' order.
Tensor GruSessionLoss(const Tensor& table, const Tensor& w_x,
                      const Tensor& b_x, const Tensor& w_h,
                      const Tensor& b_h,
                      const std::vector<std::size_t>& inputs,
                      const std::vector<std::size_t>& candidates);

/// The state GruSessionLoss's forward reaches after `inputs` (the zero
/// state when there are none), computed by the same step routine, as a
/// (1 x h) leaf. Records no tape, in any grad mode, and marks no input.
Tensor GruEncode(const Tensor& table, const Tensor& w_x, const Tensor& b_x,
                 const Tensor& w_h, const Tensor& b_h,
                 const std::vector<std::size_t>& inputs);

/// NeuMF's parameters (He et al., WWW'17), aliased: the GMF tables P_g,
/// Q_g (users x d_g, items x d_g), the MLP tables P_m, Q_m (d_m wide), the
/// tower's layers (W_1 is (2 d_m x n_1)), each followed by a ReLU, and the
/// fuse layer, W_f ((d_g + n_L) x 1) and b_f (1 x 1).
struct NeuMfParams {
  struct Layer {
    Tensor w;
    Tensor b;
  };
  Tensor gmf_user, gmf_item, mlp_user, mlp_item;
  std::vector<Layer> tower;
  Layer fuse;
};

/// NeuMF's training loss over one batch as one tape node. For the rows
/// (u, v) = (users[i], items[i]) it computes
///   gmf = P_g[u] * Q_g[v], x_0 = [P_m[u] | Q_m[v]],
///   x_l = relu(x_{l-1} W_l + b_l) for l = 1 … L,
///   logit = [gmf | x_L] W_f + b_f,
/// and returns the 1x1 loss Mean(Sub(Softplus(logits), Mul(logits, t))),
/// t = `targets`. Bit-identical, value and every gradient, to that graph
/// composed from Rows, Mul, ConcatCols, Affine, Relu and BceWithLogits,
/// and it issues the same GEMM calls. The forward computes each value as
/// those ops do and saves the rows the backward reads; the backward
/// replays the composed graph's reverse walk: Mean, Sub, Mul(logits, t),
/// Softplus (so a logit's gradient is (0 + (0 − g)·t) + (0 + g)·σ(logit),
/// g = 0 + Mean's share), the fuse Affine (b_f, [gmf | x_L], W_f), each
/// layer from the last (its ReLU, then b_l, x_{l-1}, W_l), then Rows'
/// scatters in row order into Q_m, P_m, Q_g and P_g. Each intermediate
/// gradient starts at +0, as the composed nodes' buffers do. Parents: the
/// tower's and the fuse layer's weights and biases, read densely, then the
/// four tables, read by row gathers, so a row-sparse table lists its rows
/// in the batch's order.
Tensor NeuMfLoss(const NeuMfParams& net, const std::vector<std::size_t>& users,
                 const std::vector<std::size_t>& items,
                 const std::vector<float>& targets);

/// The logits NeuMfLoss's forward computes for the rows (users[i],
/// items[i]), by the same routine, as a (B x 1) leaf. Records no tape, in
/// any grad mode, and marks no input.
Tensor NeuMfLogits(const NeuMfParams& net,
                   const std::vector<std::size_t>& users,
                   const std::vector<std::size_t>& items);

/// Affine map as one tape node: x1 W1 + b, or (x1 W1 + x2 W2) + b, with
/// b (1 x n) broadcast across rows. Linear uses the one-pair form, the
/// LSTM pre-activation the two-pair form.
/// Each product is summed into a zeroed buffer by the same GEMM as
/// MatMul's, the products are added elementwise, then the bias row; the
/// backward runs the composed reverse order (bias, then pair 2, then
/// pair 1) with MatMul's GEMM calls, and the parents {x1, W1, [x2, W2,]
/// b} keep the walk reaching x1's subgraph before x2's. So with a leaf
/// bias, as in every module, the one-pair form is bit-identical to
/// Add(MatMul(x1, W1), b) in any graph. The two-pair form matches
/// Add(Add(MatMul(x1, W1), MatMul(x2, W2)), b) when the walk has already
/// queued x2's subgraph on reaching this node, as in the policy's
/// recompute, where every LSTM state is scored before the next step
/// reads it; otherwise pair 1's gradient lands before x2's subgraph runs
/// instead of after it, which reorders the sums into a weight shared
/// across steps.
Tensor Affine(const Tensor& x1, const Tensor& w1, const Tensor& b);
Tensor Affine(const Tensor& x1, const Tensor& w1, const Tensor& x2,
              const Tensor& w2, const Tensor& b);

/// One batch of BCBT sibling decisions (paper §III-E) as one tape node:
/// for each k, with q = dht[row_idx[k]], ch = feats[chosen_rows[k]] and
/// ot = feats[other_rows[k]],
///   lp[k] = log σ(q·ch − q·ot) = −softplus(q·ot − q·ch)   -> (K x 1).
/// Bit-identical to the composed chain Rows/RowDot/Sub/Softplus/Scale(-1)
/// it replaces: the same float expressions forward, and a backward that
/// replays that chain's reverse order, scattering every chosen-row
/// gradient into feats before any other-row gradient (k ascending each),
/// then q's gradient into dht. Parents {dht, feats}, both read by row
/// gathers, so row-sparse leaves list the rows written.
Tensor TreeDecisionLogProb(const Tensor& dht,
                           const std::vector<std::size_t>& row_idx,
                           const Tensor& feats,
                           const std::vector<std::size_t>& chosen_rows,
                           const std::vector<std::size_t>& other_rows);

// -- Utilities ----------------------------------------------------------

/// Numerical gradient of f at `x` via central differences (testing aid).
std::vector<float> NumericalGradient(
    const std::function<float(const Tensor&)>& f, Tensor x,
    float eps = 1e-3f);

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_TENSOR_H_
