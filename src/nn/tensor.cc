#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "nn/kernels.h"

namespace poisonrec::nn {

using internal::Attach;
using internal::TensorImpl;
using internal::TrackGrad;

namespace {

thread_local bool g_grad_enabled = true;

// Source of the backward walks' stamps (see the file comment in tensor.h).
std::atomic<std::uint64_t> g_walk_stamps{0};

std::shared_ptr<TensorImpl> NewNode(std::size_t rows, std::size_t cols) {
  auto node = std::make_shared<TensorImpl>();
  node->rows = rows;
  node->cols = cols;
  node->data.assign(rows * cols, 0.0f);
  return node;
}

// The sigmoid and tanh derivatives from their output y, shared by the
// unary ops and the fused gates so both compute the same products.
inline float SigmoidDeriv(float y) { return y * (1.0f - y); }
inline float TanhDeriv(float y) { return 1.0f - y * y; }

// ReLU's forward, as Relu and NeuMF's tower compute it.
inline float ReluOf(float x) { return x > 0.0f ? x : 0.0f; }

// Log-softmax of one row of n logits, as LogSoftmax and the GRU
// session's step losses compute it: the max, the sum of exp(x - max) in
// column order (the exps in `out` first), then x - (max + log(sum)).
void LogSoftmaxRow(const float* x, std::size_t n, float* out) {
  float maxv = x[0];
  for (std::size_t c = 1; c < n; ++c) maxv = std::max(maxv, x[c]);
  for (std::size_t c = 0; c < n; ++c) out[c] = x[c] - maxv;
  kernels::Exp(out, out, n);
  float denom = 0.0f;
  for (std::size_t c = 0; c < n; ++c) denom += out[c];
  const float lse = maxv + std::log(denom);
  for (std::size_t c = 0; c < n; ++c) out[c] = x[c] - lse;
}

// Row loops of the fused nodes. Their operands are distinct buffers, so
// __restrict lets each loop vectorize; every element still gets the
// composed ops' operations in the composed order.
//
// dst += src, elementwise (Add's forward and its bias gradient).
inline void AddRow(const float* __restrict src, float* __restrict dst,
                   std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) dst[c] += src[c];
}
// dst = a·b, elementwise (Mul's forward).
inline void MulRow(const float* __restrict a, const float* __restrict b,
                   float* __restrict dst, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) dst[c] = a[c] * b[c];
}
// dst += 0 + s·src: a RowDot gradient, started at 0, scattered by Rows.
inline void ScatterScaledRow(float s, const float* __restrict src,
                             float* __restrict dst, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) dst[c] += 0.0f + s * src[c];
}
// dst += (0 + sa·a) + sb·b: two RowDot gradients into one gathered row.
inline void ScatterScaledRows(float sa, const float* __restrict a, float sb,
                              const float* __restrict b,
                              float* __restrict dst, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) dst[c] += (0.0f + sa * a[c]) + sb * b[c];
}

// After a gather's backward has scattered into `table`, lists the rows
// it wrote when the table is a row-sparse leaf (see tensor.h). Listed in
// the backward, not the forward: callers zero gradients between the two.
// Only leaves are listed, so intermediate gathers never build up lists.
void ListGradRows(TensorImpl* table, const std::size_t* rows,
                  std::size_t count) {
  if (!table->RowSparse()) return;
  if (table->row_listed.size() != table->rows) {
    table->row_listed.assign(table->rows, false);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = rows[i];
    if (table->row_listed[r]) continue;
    table->row_listed[r] = true;
    table->grad_rows.push_back(r);
  }
}
void ListGradRows(TensorImpl* table, const std::vector<std::size_t>& rows) {
  ListGradRows(table, rows.data(), rows.size());
}

}  // namespace

bool internal::TrackGrad(std::initializer_list<const Tensor*> inputs) {
  if (!GradMode::Enabled()) return false;
  for (const Tensor* t : inputs) {
    if (t->requires_grad()) return true;
  }
  return false;
}

namespace {

// Attach over any two lists of parents; NeuMfLoss's depend on its tower.
template <typename Inputs, typename Gathered>
void AttachParents(const std::shared_ptr<TensorImpl>& out,
                   const Inputs& inputs, std::function<void()> backward_fn,
                   const Gathered& gathered) {
  out->requires_grad = true;
  out->EnsureGrad();
  out->parents.reserve(inputs.size() + gathered.size());
  const auto add = [&out](const Tensor* t, bool gather) {
    out->parents.push_back(t->impl());
    if (t->requires_grad()) {
      t->impl()->EnsureGrad();
      (gather ? t->impl()->gathered : t->impl()->read_densely) = true;
    }
  };
  for (const Tensor* t : inputs) add(t, false);
  for (const Tensor* t : gathered) add(t, true);
  out->backward_fn = std::move(backward_fn);
}

}  // namespace

void internal::Attach(const std::shared_ptr<TensorImpl>& out,
                      std::initializer_list<const Tensor*> inputs,
                      std::function<void()> backward_fn,
                      std::initializer_list<const Tensor*> gathered) {
  AttachParents(out, inputs, std::move(backward_fn), gathered);
}

bool GradMode::Enabled() { return g_grad_enabled; }

void GradMode::SetEnabled(bool enabled) { g_grad_enabled = enabled; }

NoGradScope::NoGradScope() : previous_(GradMode::Enabled()) {
  GradMode::SetEnabled(false);
}

NoGradScope::~NoGradScope() { GradMode::SetEnabled(previous_); }

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

Tensor Tensor::Zeros(std::size_t rows, std::size_t cols, bool requires_grad) {
  auto node = NewNode(rows, cols);
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::Ones(std::size_t rows, std::size_t cols, bool requires_grad) {
  return Full(rows, cols, 1.0f, requires_grad);
}

Tensor Tensor::Full(std::size_t rows, std::size_t cols, float value,
                    bool requires_grad) {
  auto node = NewNode(rows, cols);
  std::fill(node->data.begin(), node->data.end(), value);
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::FromData(std::size_t rows, std::size_t cols,
                        std::vector<float> data, bool requires_grad) {
  POISONREC_CHECK_EQ(rows * cols, data.size());
  auto node = std::make_shared<TensorImpl>();
  node->rows = rows;
  node->cols = cols;
  node->data = std::move(data);
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::Randn(std::size_t rows, std::size_t cols, float stddev,
                     Rng* rng, bool requires_grad) {
  POISONREC_CHECK(rng != nullptr);
  auto node = NewNode(rows, cols);
  for (float& v : node->data) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::Rand(std::size_t rows, std::size_t cols, float lo, float hi,
                    Rng* rng, bool requires_grad) {
  POISONREC_CHECK(rng != nullptr);
  auto node = NewNode(rows, cols);
  for (float& v : node->data) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

float Tensor::item() const {
  POISONREC_CHECK(is_scalar()) << "item() on tensor of shape "
                               << ShapeString();
  return impl_->data[0];
}

void Tensor::ZeroGrad() {
  if (!defined() || impl_->grad.empty()) return;
  TensorImpl& t = *impl_;
  if (t.RowSparse() && !t.grad_written) {
    for (std::size_t r : t.grad_rows) {
      std::fill_n(t.grad.begin() + static_cast<std::ptrdiff_t>(r * t.cols),
                  t.cols, 0.0f);
    }
  } else {
    std::fill(t.grad.begin(), t.grad.end(), 0.0f);
  }
  for (std::size_t r : t.grad_rows) t.row_listed[r] = false;
  t.grad_rows.clear();
  t.grad_written = false;
}

Tensor Tensor::DeepCopy(bool requires_grad) const {
  POISONREC_CHECK(defined());
  return FromData(rows(), cols(), impl_->data, requires_grad);
}

void Tensor::CopyDataFrom(const Tensor& other) {
  POISONREC_CHECK(defined() && other.defined());
  POISONREC_CHECK_EQ(rows(), other.rows());
  POISONREC_CHECK_EQ(cols(), other.cols());
  impl_->data = other.impl_->data;
}

std::string Tensor::ShapeString() const {
  if (!defined()) return "(undefined)";
  return "(" + std::to_string(rows()) + "x" + std::to_string(cols()) + ")";
}

void Tensor::Backward() {
  POISONREC_CHECK(defined());
  POISONREC_CHECK(is_scalar()) << "Backward() requires a scalar loss, got "
                               << ShapeString();
  POISONREC_CHECK(impl_->requires_grad)
      << "Backward() on a tensor that does not require grad";

  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;
  if (impl_->parents.empty()) return;  // a leaf: nothing to propagate

  // Iterative post-order DFS over the interior nodes to build reverse
  // topological order; this walk's stamp marks the nodes it has queued.
  const std::uint64_t stamp =
      g_walk_stamps.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<TensorImpl*> topo;
  struct Frame {
    TensorImpl* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  impl_->walk_stamp = stamp;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (!parent->parents.empty() && parent->walk_stamp != stamp) {
        parent->walk_stamp = stamp;
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    (*it)->backward_fn();
  }
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.cols(), b.rows())
      << "MatMul shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  auto out = NewNode(m, n);
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  kernels::GemmNN(m, k, n, a.data().data(), b.data().data(),
                  out->data.data());
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, m, k, n]() {
          if (ai->requires_grad) {
            // dA(m×k) += dC(m×n) · Bᵀ (B stored k×n).
            kernels::GemmNT(m, n, k, oi->grad.data(), bi->data.data(),
                            ai->grad.data());
          }
          if (bi->requires_grad) {
            // dB(k×n) += Aᵀ · dC (A stored m×k).
            kernels::GemmTN(k, m, n, ai->data.data(), oi->grad.data(),
                            bi->grad.data());
          }
        });
  }
  return result;
}

namespace {

enum class AddKind { kSame, kBroadcastRow };

AddKind CheckAddShapes(const Tensor& a, const Tensor& b) {
  if (a.rows() == b.rows() && a.cols() == b.cols()) return AddKind::kSame;
  POISONREC_CHECK(b.rows() == 1 && b.cols() == a.cols())
      << "Add/Sub shape mismatch " << a.ShapeString() << " vs "
      << b.ShapeString();
  return AddKind::kBroadcastRow;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const AddKind kind = CheckAddShapes(a, b);
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  const std::size_t n = a.cols();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const float bv =
          kind == AddKind::kSame ? b.at(r, c) : b.at(0, c);
      out->at(r, c) = a.at(r, c) + bv;
    }
  }
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, kind]() {
          if (ai->requires_grad) {
            for (std::size_t i = 0; i < ai->grad.size(); ++i) {
              ai->grad[i] += oi->grad[i];
            }
          }
          if (bi->requires_grad) {
            if (kind == AddKind::kSame) {
              for (std::size_t i = 0; i < bi->grad.size(); ++i) {
                bi->grad[i] += oi->grad[i];
              }
            } else {
              for (std::size_t r = 0; r < oi->rows; ++r) {
                for (std::size_t c = 0; c < oi->cols; ++c) {
                  bi->grad[c] += oi->gat(r, c);
                }
              }
            }
          }
        });
  }
  return result;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  const AddKind kind = CheckAddShapes(a, b);
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const float bv =
          kind == AddKind::kSame ? b.at(r, c) : b.at(0, c);
      out->at(r, c) = a.at(r, c) - bv;
    }
  }
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, kind]() {
          if (ai->requires_grad) {
            for (std::size_t i = 0; i < ai->grad.size(); ++i) {
              ai->grad[i] += oi->grad[i];
            }
          }
          if (bi->requires_grad) {
            if (kind == AddKind::kSame) {
              for (std::size_t i = 0; i < bi->grad.size(); ++i) {
                bi->grad[i] -= oi->grad[i];
              }
            } else {
              for (std::size_t r = 0; r < oi->rows; ++r) {
                for (std::size_t c = 0; c < oi->cols; ++c) {
                  bi->grad[c] -= oi->gat(r, c);
                }
              }
            }
          }
        });
  }
  return result;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const bool broadcast_col = (b.cols() == 1 && b.rows() == a.rows() &&
                              a.cols() != 1);
  if (!broadcast_col) {
    POISONREC_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
        << "Mul shape mismatch " << a.ShapeString() << " vs "
        << b.ShapeString();
  }
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < ai->cols; ++c) {
      const float bv = broadcast_col ? bi->at(r, 0) : bi->at(r, c);
      oi->at(r, c) = ai->at(r, c) * bv;
    }
  }
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, broadcast_col]() {
          for (std::size_t r = 0; r < oi->rows; ++r) {
            for (std::size_t c = 0; c < oi->cols; ++c) {
              const float g = oi->gat(r, c);
              const float bv =
                  broadcast_col ? bi->data[r] : bi->at(r, c);
              if (ai->requires_grad) ai->gat(r, c) += g * bv;
              if (bi->requires_grad) {
                if (broadcast_col) {
                  bi->grad[r] += g * ai->at(r, c);
                } else {
                  bi->gat(r, c) += g * ai->at(r, c);
                }
              }
            }
          }
        });
  }
  return result;
}

namespace {

// Shared scaffolding for elementwise unary ops: out = fwd(x) for the
// whole tensor in one row call fwd(x, out, size), and
// dx += dout * dfn(x, y), or dx += dout * d with d = dfn(x) from one
// row call dfn(x, d, size), or the whole backward as one row call
// dfn(x, dout, dx, size).
template <typename RowFwd, typename Dfn>
Tensor UnaryRowOp(const Tensor& a, RowFwd fwd, Dfn dfn) {
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  fwd(a.data().data(), out->data.data(), a.size());
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi, dfn]() {
          if (!ai->requires_grad) return;
          const std::size_t n = ai->grad.size();
          if constexpr (std::is_invocable_v<Dfn, const float*, const float*,
                                            float*, std::size_t>) {
            dfn(ai->data.data(), oi->grad.data(), ai->grad.data(), n);
          } else if constexpr (std::is_invocable_v<Dfn, const float*, float*,
                                                   std::size_t>) {
            std::vector<float> d(n);
            dfn(ai->data.data(), d.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
              ai->grad[i] += oi->grad[i] * d[i];
            }
          } else {
            for (std::size_t i = 0; i < n; ++i) {
              ai->grad[i] += oi->grad[i] * dfn(ai->data[i], oi->data[i]);
            }
          }
        });
  }
  return result;
}

// UnaryRowOp with out = fwd(x) element by element.
template <typename Fwd, typename Dfn>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Dfn dfn) {
  return UnaryRowOp(
      a,
      [fwd](const float* x, float* y, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) y[i] = fwd(x[i]);
      },
      dfn);
}

}  // namespace

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryRowOp(a, kernels::Sigmoid,
                    [](float, float y) { return SigmoidDeriv(y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryRowOp(a, kernels::Tanh,
                    [](float, float y) { return TanhDeriv(y); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return ReluOf(x); },
      [](const float* x, const float* g, float* dx, std::size_t n) {
        kernels::ReluBackward(x, g, 0.0f, dx, n);
      });
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return UnaryOp(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](const float* x, const float* g, float* dx, std::size_t n) {
        kernels::ReluBackward(x, g, slope, dx, n);
      });
}

Tensor Exp(const Tensor& a) {
  return UnaryRowOp(a, kernels::Exp, [](float, float y) { return y; });
}

Tensor Softplus(const Tensor& a) {
  return UnaryRowOp(a, kernels::Softplus, kernels::Sigmoid);
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor LogSoftmax(const Tensor& a) {
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    LogSoftmaxRow(ai->data.data() + r * ai->cols, ai->cols,
                  oi->data.data() + r * ai->cols);
  }
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          std::vector<float> p(oi->data.size());
          kernels::Exp(oi->data.data(), p.data(), p.size());
          for (std::size_t r = 0; r < oi->rows; ++r) {
            float gsum = 0.0f;
            for (std::size_t c = 0; c < oi->cols; ++c) gsum += oi->gat(r, c);
            for (std::size_t c = 0; c < oi->cols; ++c) {
              ai->gat(r, c) += oi->gat(r, c) - p[r * oi->cols + c] * gsum;
            }
          }
        });
  }
  return result;
}

Tensor Sum(const Tensor& a) {
  auto out = NewNode(1, 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  out->data[0] = acc;
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          const float g = oi->grad[0];
          for (float& gv : ai->grad) gv += g;
        });
  }
  return result;
}

Tensor Mean(const Tensor& a) {
  POISONREC_CHECK_GT(a.size(), 0u);
  auto out = NewNode(1, 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  out->data[0] = acc / static_cast<float>(a.size());
  Tensor result(out);
  if (TrackGrad({&a})) {
    const float inv = 1.0f / static_cast<float>(a.size());
    Attach(
        out, {&a},
        [ai, oi, inv]() {
          if (!ai->requires_grad) return;
          const float g = oi->grad[0] * inv;
          for (float& gv : ai->grad) gv += g;
        });
  }
  return result;
}

Tensor RowSum(const Tensor& a) {
  auto out = NewNode(a.rows(), 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < ai->cols; ++c) acc += ai->at(r, c);
    oi->data[r] = acc;
  }
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < ai->rows; ++r) {
            const float g = oi->grad[r];
            for (std::size_t c = 0; c < ai->cols; ++c) ai->gat(r, c) += g;
          }
        });
  }
  return result;
}

Tensor Transpose(const Tensor& a) {
  auto out = NewNode(a.cols(), a.rows());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < ai->cols; ++c) {
      oi->at(c, r) = ai->at(r, c);
    }
  }
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < ai->rows; ++r) {
            for (std::size_t c = 0; c < ai->cols; ++c) {
              ai->gat(r, c) += oi->gat(c, r);
            }
          }
        });
  }
  return result;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.rows(), b.rows());
  auto out = NewNode(a.rows(), a.cols() + b.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < ai->cols; ++c) oi->at(r, c) = ai->at(r, c);
    for (std::size_t c = 0; c < bi->cols; ++c) {
      oi->at(r, ai->cols + c) = bi->at(r, c);
    }
  }
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi]() {
          for (std::size_t r = 0; r < oi->rows; ++r) {
            if (ai->requires_grad) {
              for (std::size_t c = 0; c < ai->cols; ++c) {
                ai->gat(r, c) += oi->gat(r, c);
              }
            }
            if (bi->requires_grad) {
              for (std::size_t c = 0; c < bi->cols; ++c) {
                bi->gat(r, c) += oi->gat(r, ai->cols + c);
              }
            }
          }
        });
  }
  return result;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.cols(), b.cols());
  auto out = NewNode(a.rows() + b.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  std::copy(ai->data.begin(), ai->data.end(), oi->data.begin());
  std::copy(bi->data.begin(), bi->data.end(),
            oi->data.begin() + static_cast<std::ptrdiff_t>(ai->data.size()));
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi]() {
          if (ai->requires_grad) {
            for (std::size_t i = 0; i < ai->grad.size(); ++i) {
              ai->grad[i] += oi->grad[i];
            }
          }
          if (bi->requires_grad) {
            const std::size_t offset = ai->data.size();
            for (std::size_t i = 0; i < bi->grad.size(); ++i) {
              bi->grad[i] += oi->grad[offset + i];
            }
          }
        });
  }
  return result;
}

Tensor Cols(const Tensor& a, std::size_t start, std::size_t len) {
  POISONREC_CHECK_LE(start + len, a.cols());
  auto out = NewNode(a.rows(), len);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < len; ++c) {
      oi->at(r, c) = ai->at(r, start + c);
    }
  }
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi, start, len]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < ai->rows; ++r) {
            for (std::size_t c = 0; c < len; ++c) {
              ai->gat(r, start + c) += oi->gat(r, c);
            }
          }
        });
  }
  return result;
}

Tensor Rows(const Tensor& table, const std::vector<std::size_t>& indices) {
  const std::size_t dim = table.cols();
  auto out = NewNode(indices.size(), dim);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    POISONREC_CHECK_LT(indices[i], table.rows());
    std::copy(table.data().begin() +
                  static_cast<std::ptrdiff_t>(indices[i] * dim),
              table.data().begin() +
                  static_cast<std::ptrdiff_t>((indices[i] + 1) * dim),
              out->data.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  Tensor result(out);
  if (TrackGrad({&table})) {
    TensorImpl* ti = table.impl().get();
    TensorImpl* oi = out.get();
    Attach(
        out, {},
        [ti, oi, idx = indices, dim]() {
          if (!ti->requires_grad) return;
          for (std::size_t i = 0; i < idx.size(); ++i) {
            float* dst = ti->grad.data() + idx[i] * dim;
            const float* src = oi->grad.data() + i * dim;
            for (std::size_t c = 0; c < dim; ++c) dst[c] += src[c];
          }
          ListGradRows(ti, idx);
        },
        /*gathered=*/{&table});
  }
  return result;
}

Tensor RowDot(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.rows(), b.rows());
  POISONREC_CHECK_EQ(a.cols(), b.cols());
  auto out = NewNode(a.rows(), 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  for (std::size_t r = 0; r < ai->rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < ai->cols; ++c) {
      acc += ai->at(r, c) * bi->at(r, c);
    }
    oi->data[r] = acc;
  }
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi]() {
          for (std::size_t r = 0; r < ai->rows; ++r) {
            const float g = oi->grad[r];
            for (std::size_t c = 0; c < ai->cols; ++c) {
              if (ai->requires_grad) ai->gat(r, c) += g * bi->at(r, c);
              if (bi->requires_grad) bi->gat(r, c) += g * ai->at(r, c);
            }
          }
        });
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fused LSTM gate tail
// ---------------------------------------------------------------------------

namespace {

// Forward for rows [r0, r1): activates the four gate blocks of `pre`
// into `act`, then produces c = f·c_prev + i·g and h = o·tanh(c) with
// the same per-element values the composed Sigmoid/Tanh/Mul/Add chain
// computed. Per row, one kernels::Sigmoid call covers the i|f blocks and
// one the o block, and one kernels::Tanh call each the g block and c.
// When `tanh_c` is not null (a tape is recorded), tanh(c) is kept there
// for h's backward; otherwise it passes through h's row.
void LstmGatesRows(std::size_t r0, std::size_t r1, std::size_t h,
                   const TensorImpl* pre, const TensorImpl* cprev,
                   TensorImpl* act, TensorImpl* cnew, TensorImpl* hnew,
                   float* tanh_c) {
  for (std::size_t r = r0; r < r1; ++r) {
    const float* p = pre->data.data() + r * 4 * h;
    float* a = act->data.data() + r * 4 * h;
    const float* cp = cprev->data.data() + r * h;
    float* cn = cnew->data.data() + r * h;
    float* hn = hnew->data.data() + r * h;
    float* t = tanh_c != nullptr ? tanh_c + r * h : hn;
    kernels::Sigmoid(p, a, 2 * h);
    kernels::Tanh(p + 2 * h, a + 2 * h, h);
    kernels::Sigmoid(p + 3 * h, a + 3 * h, h);
    for (std::size_t j = 0; j < h; ++j) {
      cn[j] = a[h + j] * cp[j] + a[j] * a[2 * h + j];
    }
    kernels::Tanh(cn, t, h);
    for (std::size_t j = 0; j < h; ++j) hn[j] = a[3 * h + j] * t[j];
  }
}

}  // namespace

LstmGatesResult LstmGates(const Tensor& preact, const Tensor& c_prev) {
  return internal::LstmGatesAt(preact, c_prev, kernels::kParallelRowsMinWork);
}

namespace internal {

LstmGatesResult LstmGatesAt(const Tensor& preact, const Tensor& c_prev,
                            std::size_t min_work) {
  POISONREC_CHECK_EQ(preact.rows(), c_prev.rows());
  POISONREC_CHECK_EQ(preact.cols(), 4 * c_prev.cols());
  const std::size_t rows = preact.rows();
  const std::size_t h = c_prev.cols();

  auto act = NewNode(rows, 4 * h);
  auto cnew = NewNode(rows, h);
  auto hnew = NewNode(rows, h);
  TensorImpl* pi = preact.impl().get();
  TensorImpl* ci = c_prev.impl().get();
  TensorImpl* acti = act.get();
  TensorImpl* cni = cnew.get();
  TensorImpl* hni = hnew.get();
  const bool track = TrackGrad({&preact, &c_prev});
  // tanh(c) per element, for h's backward; only when a tape is recorded.
  std::vector<float> tanh_c(track ? rows * h : 0);
  float* tci = track ? tanh_c.data() : nullptr;

  kernels::ParallelRows(
      rows, rows * 4 * h,
      [&](std::size_t r0, std::size_t r1) {
        LstmGatesRows(r0, r1, h, pi, ci, acti, cni, hni, tci);
      },
      min_work);

  Tensor act_t(act);
  Tensor cnew_t(cnew);
  Tensor hnew_t(hnew);
  LstmGatesResult result{hnew_t, cnew_t};
  if (!track) return result;

  // Three tape nodes so reverse topological order visits h -> c -> act
  // and every cross-term (h's grad into c, c's grad into the gates)
  // lands exactly once. Each backward partitions by row with the same
  // ownership contract as the forward: a row's gradients are written
  // only by the thread that owns the row, so results are bit-identical
  // at every thread count.
  //
  // act = [σ(i) | σ(f) | tanh(g) | σ(o)] with parent `preact`.
  Attach(
      act, {&preact},
      [pi, acti, rows, h, min_work]() {
        if (!pi->requires_grad) return;
        kernels::ParallelRows(
            rows, rows * 4 * h,
            [&](std::size_t r0, std::size_t r1) {
              for (std::size_t r = r0; r < r1; ++r) {
                const float* a = acti->data.data() + r * 4 * h;
                const float* ga = acti->grad.data() + r * 4 * h;
                float* gp = pi->grad.data() + r * 4 * h;
                for (std::size_t j = 0; j < h; ++j) {
                  gp[j] += ga[j] * a[j] * (1.0f - a[j]);
                  gp[h + j] += ga[h + j] * a[h + j] * (1.0f - a[h + j]);
                  gp[2 * h + j] +=
                      ga[2 * h + j] * (1.0f - a[2 * h + j] * a[2 * h + j]);
                  gp[3 * h + j] +=
                      ga[3 * h + j] * a[3 * h + j] * (1.0f - a[3 * h + j]);
                }
              }
            },
            min_work);
      });

  // c = f·c_prev + i·g with parents {act, c_prev}.
  Attach(
      cnew, {&act_t, &c_prev},
      [ci, acti, cni, rows, h, min_work]() {
        kernels::ParallelRows(
            rows, rows * h,
            [&](std::size_t r0, std::size_t r1) {
              for (std::size_t r = r0; r < r1; ++r) {
                const float* a = acti->data.data() + r * 4 * h;
                const float* gc = cni->grad.data() + r * h;
                const float* cp = ci->data.data() + r * h;
                float* ga = acti->grad.data() + r * 4 * h;
                float* gcp =
                    ci->requires_grad ? ci->grad.data() + r * h : nullptr;
                for (std::size_t j = 0; j < h; ++j) {
                  const float g = gc[j];
                  ga[j] += g * a[2 * h + j];   // d i  = dc · g
                  ga[h + j] += g * cp[j];      // d f  = dc · c_prev
                  ga[2 * h + j] += g * a[j];   // d g  = dc · i
                  if (gcp != nullptr) gcp[j] += g * a[h + j];  // dc_prev
                }
              }
            },
            min_work);
      });

  // h = o·tanh(c) with parents {act, c}; tanh(c) is the forward's.
  Attach(
      hnew, {&act_t, &cnew_t},
      [acti, cni, hni, rows, h, min_work, tanh_c = std::move(tanh_c)]() {
        kernels::ParallelRows(
            rows, rows * h,
            [&](std::size_t r0, std::size_t r1) {
              for (std::size_t r = r0; r < r1; ++r) {
                const float* a = acti->data.data() + r * 4 * h;
                const float* tc = tanh_c.data() + r * h;
                const float* gh = hni->grad.data() + r * h;
                float* ga = acti->grad.data() + r * 4 * h;
                float* gc = cni->grad.data() + r * h;
                for (std::size_t j = 0; j < h; ++j) {
                  const float t = tc[j];
                  ga[3 * h + j] += gh[j] * t;               // d o
                  gc[j] += gh[j] * a[3 * h + j] * (1.0f - t * t);
                }
              }
            },
            min_work);
      });

  return result;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// GRU4Rec session
// ---------------------------------------------------------------------------

namespace {

// The GRU's parameters as raw rows: W_x (d x 3h), b_x (1 x 3h), W_h
// (h x 3h), b_h (1 x 3h).
struct GruWeights {
  std::size_t d;
  std::size_t hs;
  const float* w_x;
  const float* b_x;
  const float* w_h;
  const float* b_h;
};

GruWeights CheckGru(const Tensor& table, const Tensor& w_x, const Tensor& b_x,
                    const Tensor& w_h, const Tensor& b_h,
                    const std::vector<std::size_t>& inputs) {
  const std::size_t d = table.cols();
  const std::size_t hs = w_h.rows();
  POISONREC_CHECK(w_x.rows() == d && w_x.cols() == 3 * hs &&
                  w_h.cols() == 3 * hs && b_x.rows() == 1 &&
                  b_x.cols() == 3 * hs && b_h.rows() == 1 &&
                  b_h.cols() == 3 * hs)
      << "GRU shape mismatch: table " << table.ShapeString() << ", W_x "
      << w_x.ShapeString() << ", b_x " << b_x.ShapeString() << ", W_h "
      << w_h.ShapeString() << ", b_h " << b_h.ShapeString();
  for (std::size_t id : inputs) POISONREC_CHECK_LT(id, table.rows());
  return {d,
          hs,
          w_x.data().data(),
          b_x.data().data(),
          w_h.data().data(),
          b_h.data().data()};
}

// Where GruSessionLoss keeps its forward's rows, in one buffer: per step
// x_t (from offset 0), h_t after h_{-1} = 0, gh_t, [z | r | n]_t, the
// transposed candidate rows (d x C) and the log-softmax row, all of which
// the backward reads; then the forward's own gx and logits rows.
struct GruSavedLayout {
  GruSavedLayout(std::size_t steps, std::size_t d, std::size_t hs,
                 std::size_t nc)
      : states(steps * d),
        gh(states + (steps + 1) * hs),
        act(gh + steps * 3 * hs),
        cand_t(act + steps * 3 * hs),
        logp(cand_t + steps * d * nc),
        gx(logp + steps * nc),
        logits(gx + 3 * hs),
        size(logits + nc) {}
  std::size_t states, gh, act, cand_t, logp, gx, logits, size;
};

// One step of the recurrence from the input row x and the state h_prev:
// gx and gh as Affine computes them (a zeroed row, GemmNN, then the bias
// row), then
//   z = σ(gx_z + gh_z), r = σ(gx_r + gh_r), n = tanh(gx_n + r * gh_n),
//   h = (1 - z) * n + z * h_prev,
// with 1 - z as z * -1 + 1, the association of the composed Scale and
// AddScalar, z and r as one kernels::Sigmoid call over their sums and
// n's tanh as one kernels::Tanh call. Writes gx, gh, h and
// act = [z | r | n]; h must not alias h_prev.
void GruStep(const GruWeights& w, const float* x, const float* h_prev,
             float* gx, float* gh, float* h, float* act) {
  const std::size_t hs = w.hs;
  std::fill_n(gx, 3 * hs, 0.0f);
  kernels::GemmNN(1, w.d, 3 * hs, x, w.w_x, gx);
  AddRow(w.b_x, gx, 3 * hs);
  std::fill_n(gh, 3 * hs, 0.0f);
  kernels::GemmNN(1, hs, 3 * hs, h_prev, w.w_h, gh);
  AddRow(w.b_h, gh, 3 * hs);
  for (std::size_t j = 0; j < 2 * hs; ++j) act[j] = gx[j] + gh[j];
  kernels::Sigmoid(act, act, 2 * hs);
  for (std::size_t j = 0; j < hs; ++j) {
    act[2 * hs + j] = gx[2 * hs + j] + act[hs + j] * gh[2 * hs + j];
  }
  kernels::Tanh(act + 2 * hs, act + 2 * hs, hs);
  for (std::size_t j = 0; j < hs; ++j) {
    const float z = act[j];
    h[j] = (z * -1.0f + 1.0f) * act[2 * hs + j] + z * h_prev[j];
  }
}

}  // namespace

Tensor GruSessionLoss(const Tensor& table, const Tensor& w_x,
                      const Tensor& b_x, const Tensor& w_h,
                      const Tensor& b_h,
                      const std::vector<std::size_t>& inputs,
                      const std::vector<std::size_t>& candidates) {
  const GruWeights w = CheckGru(table, w_x, b_x, w_h, b_h, inputs);
  const std::size_t d = w.d;
  const std::size_t hs = w.hs;
  const std::size_t steps = inputs.size();
  POISONREC_CHECK(steps > 0 && !candidates.empty() &&
                  candidates.size() % steps == 0)
      << "GruSessionLoss needs one candidate row per input, got "
      << candidates.size() << " ids for " << steps << " inputs";
  POISONREC_CHECK_EQ(d, hs) << "the logits dot h with item rows";
  for (std::size_t id : candidates) POISONREC_CHECK_LT(id, table.rows());
  const std::size_t nc = candidates.size() / steps;

  const GruSavedLayout at(steps, d, hs, nc);
  std::vector<float> saved(at.size, 0.0f);
  float* const xs = saved.data();
  float* const states = xs + at.states;
  float* const gh = xs + at.gh;
  float* const act = xs + at.act;
  float* const cand_t = xs + at.cand_t;
  float* const logp = xs + at.logp;
  float* const gx = xs + at.gx;
  float* const logits = xs + at.logits;
  const float* tab = table.data().data();
  float loss = 0.0f;
  for (std::size_t t = 0; t < steps; ++t) {
    float* x = xs + t * d;
    std::copy_n(tab + inputs[t] * d, d, x);
    const float* h_prev = states + t * hs;
    float* h = states + (t + 1) * hs;
    GruStep(w, x, h_prev, gx, gh + t * 3 * hs, h, act + t * 3 * hs);
    // MatMul(h_t, Transpose(Rows(table, candidates_t))).
    float* ct = cand_t + t * d * nc;
    const std::size_t* cands = candidates.data() + t * nc;
    for (std::size_t i = 0; i < nc; ++i) {
      for (std::size_t c = 0; c < d; ++c) ct[c * nc + i] = tab[cands[i] * d + c];
    }
    std::fill_n(logits, nc, 0.0f);
    kernels::GemmNN(1, d, nc, h, ct, logits);
    // SoftmaxCrossEntropy(logits, {0}): one row, so m = 1.
    float* lp = logp + t * nc;
    LogSoftmaxRow(logits, nc, lp);
    const float step_loss = (0.0f + lp[0]) / 1.0f * -1.0f;
    loss = t == 0 ? step_loss : loss + step_loss;
  }
  const float inv_steps = 1.0f / static_cast<float>(steps);
  auto out = NewNode(1, 1);
  out->data[0] = loss * inv_steps;
  Tensor result(out);
  if (!TrackGrad({&table, &w_x, &b_x, &w_h, &b_h})) return result;

  TensorImpl* ti = table.impl().get();
  TensorImpl* wxi = w_x.impl().get();
  TensorImpl* bxi = b_x.impl().get();
  TensorImpl* whi = w_h.impl().get();
  TensorImpl* bhi = b_h.impl().get();
  TensorImpl* oi = out.get();
  // The composed graph's reverse walk, step T-1 first (see tensor.h).
  Attach(
      out, {&w_x, &b_x, &w_h, &b_h},
      [ti, wxi, bxi, whi, bhi, oi, d, hs, nc, steps, inv_steps,
       inputs = inputs, candidates = candidates, saved = std::move(saved),
       at]() {
        const float* xs = saved.data();
        const float* states = xs + at.states;
        const float* gh = xs + at.gh;
        const float* act = xs + at.act;
        const float* cand_t = xs + at.cand_t;
        const float* logp = xs + at.logp;
        // What Scale(1/T) and the Adds hand every step loss, then what
        // SoftmaxCrossEntropy's backward hands its target (m = 1).
        const float g_step = 0.0f + oi->grad[0] * inv_steps;
        const float g_ce = g_step * -1.0f;
        // The scratch rows, in one buffer: the logits, the transposed
        // candidate rows, gx, gh, x_t, h_t's gradient (zero at t = T-1)
        // and h_{t-1}'s as step t adds to it.
        std::vector<float> scratch(nc + d * nc + 2 * 3 * hs + d + 2 * hs,
                                   0.0f);
        float* const g_logits = scratch.data();
        float* const g_cand_t = g_logits + nc;
        float* const g_gx = g_cand_t + d * nc;
        float* const g_gh = g_gx + 3 * hs;
        float* const g_x = g_gh + 3 * hs;
        float* g_h = g_x + d;
        float* g_h_prev = g_h + hs;
        for (std::size_t t = steps; t-- > 0;) {
          const float* h_prev = states + t * hs;
          const float* h = states + (t + 1) * hs;
          const float* ct = cand_t + t * d * nc;
          const float* lp = logp + t * nc;
          const std::size_t* cands = candidates.data() + t * nc;
          kernels::Exp(lp, g_logits, nc);
          for (std::size_t c = 0; c < nc; ++c) {
            g_logits[c] =
                0.0f + ((c == 0 ? g_ce : 0.0f) - g_logits[c] * g_ce);
          }
          // MatMul's backward: h_t, then the transposed rows.
          kernels::GemmNT(1, nc, d, g_logits, ct, g_h);
          if (ti->requires_grad) {
            std::fill_n(g_cand_t, d * nc, 0.0f);
            kernels::GemmTN(d, 1, nc, h, g_logits, g_cand_t);
            // Transpose's backward into a zeroed block, then Rows'
            // scatter in the row's order.
            for (std::size_t i = 0; i < nc; ++i) {
              float* dst = ti->grad.data() + cands[i] * d;
              for (std::size_t c = 0; c < d; ++c) {
                dst[c] += 0.0f + g_cand_t[c * nc + i];
              }
            }
            ListGradRows(ti, cands, nc);
          }
          // The gates' backward, each gradient into a zeroed row.
          const float* a = act + t * 3 * hs;
          const float* gh_t = gh + t * 3 * hs;
          for (std::size_t j = 0; j < hs; ++j) {
            const float z = a[j];
            const float r = a[hs + j];
            const float n = a[2 * hs + j];
            const float g = g_h[j];
            const float dz =
                (g * h_prev[j] + (g * n) * -1.0f) * SigmoidDeriv(z);
            const float dn = (g * (z * -1.0f + 1.0f)) * TanhDeriv(n);
            const float dr = (dn * gh_t[2 * hs + j]) * SigmoidDeriv(r);
            g_gx[j] = 0.0f + dz;
            g_gx[hs + j] = 0.0f + dr;
            g_gx[2 * hs + j] = 0.0f + dn;
            g_gh[j] = 0.0f + dz;
            g_gh[hs + j] = 0.0f + dr;
            g_gh[2 * hs + j] = 0.0f + dn * r;
            g_h_prev[j] = 0.0f + g * z;
          }
          // Affine(h_{t-1}, W_h, b_h); W_h's product runs on the zero
          // state too, where it can turn a -0 into +0.
          if (bhi->requires_grad) AddRow(g_gh, bhi->grad.data(), 3 * hs);
          if (t > 0) {
            kernels::GemmNT(1, 3 * hs, hs, g_gh, whi->data.data(), g_h_prev);
          }
          if (whi->requires_grad) {
            kernels::GemmTN(hs, 1, 3 * hs, h_prev, g_gh, whi->grad.data());
          }
          // Affine(x_t, W_x, b_x), then Rows' scatter of x_t's row.
          const float* x = xs + t * d;
          if (bxi->requires_grad) AddRow(g_gx, bxi->grad.data(), 3 * hs);
          if (ti->requires_grad) {
            std::fill_n(g_x, d, 0.0f);
            kernels::GemmNT(1, 3 * hs, d, g_gx, wxi->data.data(), g_x);
          }
          if (wxi->requires_grad) {
            kernels::GemmTN(d, 1, 3 * hs, x, g_gx, wxi->grad.data());
          }
          if (ti->requires_grad) {
            AddRow(g_x, ti->grad.data() + inputs[t] * d, d);
            ListGradRows(ti, &inputs[t], 1);
          }
          std::swap(g_h, g_h_prev);
        }
      },
      /*gathered=*/{&table});
  return result;
}

Tensor GruEncode(const Tensor& table, const Tensor& w_x, const Tensor& b_x,
                 const Tensor& w_h, const Tensor& b_h,
                 const std::vector<std::size_t>& inputs) {
  const GruWeights w = CheckGru(table, w_x, b_x, w_h, b_h, inputs);
  const std::size_t hs = w.hs;
  // gx, gh, act, and the state before and after a step.
  std::vector<float> rows(3 * 3 * hs + 2 * hs, 0.0f);
  float* const gx = rows.data();
  float* const gh = gx + 3 * hs;
  float* const act = gh + 3 * hs;
  float* h = act + 3 * hs;
  float* next = h + hs;
  const float* tab = table.data().data();
  for (std::size_t id : inputs) {
    GruStep(w, tab + id * w.d, h, gx, gh, next, act);
    std::swap(h, next);
  }
  return Tensor::FromData(1, hs, std::vector<float>(h, h + hs));
}

// ---------------------------------------------------------------------------
// NeuMF batch
// ---------------------------------------------------------------------------

namespace {

// Checks NeuMF's shapes against each other and every id against the
// tables that gather it, as Rows, Mul, ConcatCols and Affine would.
void CheckNeuMf(const NeuMfParams& p, const std::vector<std::size_t>& users,
                const std::vector<std::size_t>& items) {
  POISONREC_CHECK(p.gmf_item.cols() == p.gmf_user.cols() &&
                  p.mlp_item.cols() == p.mlp_user.cols() &&
                  !p.tower.empty() && users.size() == items.size())
      << "NeuMF shape mismatch: GMF tables " << p.gmf_user.ShapeString()
      << ", " << p.gmf_item.ShapeString() << ", MLP tables "
      << p.mlp_user.ShapeString() << ", " << p.mlp_item.ShapeString() << ", "
      << p.tower.size() << " tower layers, " << users.size() << " users, "
      << items.size() << " items";
  // Each layer's W takes the previous width; returns the layer's own.
  const auto check = [](const NeuMfParams::Layer& layer, std::size_t in) {
    POISONREC_CHECK(layer.w.rows() == in && layer.b.rows() == 1 &&
                    layer.b.cols() == layer.w.cols())
        << "NeuMF layer shape mismatch: input width " << in << ", W "
        << layer.w.ShapeString() << ", b " << layer.b.ShapeString();
    return layer.w.cols();
  };
  std::size_t width = 2 * p.mlp_user.cols();
  for (const NeuMfParams::Layer& layer : p.tower) width = check(layer, width);
  POISONREC_CHECK_EQ(check(p.fuse, p.gmf_user.cols() + width), 1u)
      << "NeuMF scores one logit per row";
  for (std::size_t i = 0; i < users.size(); ++i) {
    POISONREC_CHECK_LT(users[i], p.gmf_user.rows());
    POISONREC_CHECK_LT(items[i], p.gmf_item.rows());
    POISONREC_CHECK_LT(users[i], p.mlp_user.rows());
    POISONREC_CHECK_LT(items[i], p.mlp_item.rows());
  }
}

// Where NeuMF's forward keeps its rows, in one zeroed buffer of blocks of
// B rows: the tower's input x_0 = [P_m[u] | Q_m[v]] from offset 0, each
// layer's output after its input (a hidden layer's after its ReLU, the
// last one's before), [gmf | x_L] and the logits; for NeuMfLoss's
// backward also the GMF rows, P_g[u] then Q_g[v].
struct NeuMfLayout {
  NeuMfLayout(const NeuMfParams& p, std::size_t rows, bool with_gmf_rows)
      : keep_gmf_rows(with_gmf_rows) {
    std::size_t width = 2 * p.mlp_user.cols();
    for (const NeuMfParams::Layer& layer : p.tower) width += layer.w.cols();
    cat2 = rows * width;
    logits = cat2 + rows * p.fuse.w.rows();
    gmf_rows = logits + rows;
    size = gmf_rows + (keep_gmf_rows ? rows * 2 * p.gmf_user.cols() : 0);
  }
  bool keep_gmf_rows;
  std::size_t cat2, logits, gmf_rows, size;
};

// NeuMF's forward over the rows (users[i], items[i]) into the zeroed
// buffer `rows`, laid out by `at`: each value as the composed graph's ops
// compute it (see NeuMfLoss in tensor.h). An Affine layer sums its
// product into a zeroed block by MatMul's GemmNN call, then adds the bias
// row, and ReLU keeps x when x > 0, else +0.
void NeuMfForward(const NeuMfParams& p, const std::vector<std::size_t>& users,
                  const std::vector<std::size_t>& items,
                  const NeuMfLayout& at, float* rows) {
  const std::size_t batch = users.size();
  const std::size_t dg = p.gmf_user.cols();
  const std::size_t dm = p.mlp_user.cols();
  const std::size_t n_last = p.tower.back().w.cols();
  const std::size_t w2 = dg + n_last;
  float* const cat2 = rows + at.cat2;
  float* const gmf_rows = rows + at.gmf_rows;
  for (std::size_t i = 0; i < batch; ++i) {
    const float* pu = p.gmf_user.data().data() + users[i] * dg;
    const float* qv = p.gmf_item.data().data() + items[i] * dg;
    MulRow(pu, qv, cat2 + i * w2, dg);
    if (at.keep_gmf_rows) {
      std::memcpy(gmf_rows + i * dg, pu, dg * sizeof(float));
      std::memcpy(gmf_rows + (batch + i) * dg, qv, dg * sizeof(float));
    }
    float* x0 = rows + i * 2 * dm;
    std::memcpy(x0, p.mlp_user.data().data() + users[i] * dm,
                dm * sizeof(float));
    std::memcpy(x0 + dm, p.mlp_item.data().data() + items[i] * dm,
                dm * sizeof(float));
  }
  std::size_t x_at = 0;
  std::size_t in = 2 * dm;
  for (std::size_t l = 0; l < p.tower.size(); ++l) {
    const NeuMfParams::Layer& layer = p.tower[l];
    const std::size_t n = layer.w.cols();
    float* a = rows + x_at + batch * in;
    kernels::GemmNN(batch, in, n, rows + x_at, layer.w.data().data(), a);
    for (std::size_t r = 0; r < batch; ++r) {
      AddRow(layer.b.data().data(), a + r * n, n);
    }
    if (l + 1 < p.tower.size()) {
      for (std::size_t j = 0; j < batch * n; ++j) a[j] = ReluOf(a[j]);
    } else {
      for (std::size_t r = 0; r < batch; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          cat2[r * w2 + dg + c] = ReluOf(a[r * n + c]);
        }
      }
    }
    x_at += batch * in;
    in = n;
  }
  float* const logits = rows + at.logits;
  kernels::GemmNN(batch, w2, 1, cat2, p.fuse.w.data().data(), logits);
  for (std::size_t r = 0; r < batch; ++r) {
    AddRow(p.fuse.b.data().data(), logits + r, 1);
  }
}

}  // namespace

Tensor NeuMfLoss(const NeuMfParams& p, const std::vector<std::size_t>& users,
                 const std::vector<std::size_t>& items,
                 const std::vector<float>& targets) {
  CheckNeuMf(p, users, items);
  const std::size_t batch = users.size();
  POISONREC_CHECK(batch > 0 && targets.size() == batch)
      << "NeuMfLoss needs one target per row, got " << targets.size()
      << " for " << batch << " rows";
  const NeuMfLayout at(p, batch, /*with_gmf_rows=*/true);
  std::vector<float> saved(at.size, 0.0f);
  NeuMfForward(p, users, items, at, saved.data());
  // BceWithLogits: Mean(Sub(Softplus(logits), Mul(logits, targets))).
  const float* logits = saved.data() + at.logits;
  std::vector<float> softplus(batch);
  kernels::Softplus(logits, softplus.data(), batch);
  float acc = 0.0f;
  for (std::size_t i = 0; i < batch; ++i) {
    acc += softplus[i] - logits[i] * targets[i];
  }
  auto out = NewNode(1, 1);
  out->data[0] = acc / static_cast<float>(batch);
  Tensor result(out);
  if (!GradMode::Enabled()) return result;
  std::vector<const Tensor*> dense;
  for (const NeuMfParams::Layer& layer : p.tower) {
    dense.push_back(&layer.w);
    dense.push_back(&layer.b);
  }
  dense.push_back(&p.fuse.w);
  dense.push_back(&p.fuse.b);
  const std::vector<const Tensor*> gathered = {&p.gmf_user, &p.gmf_item,
                                               &p.mlp_user, &p.mlp_item};
  const auto requires_grad = [](const Tensor* t) {
    return t->requires_grad();
  };
  if (std::none_of(dense.begin(), dense.end(), requires_grad) &&
      std::none_of(gathered.begin(), gathered.end(), requires_grad)) {
    return result;
  }

  // Per layer: W, b, its input's offset in `saved`, and whether the
  // composed graph's input node requires grad (the layer's NT product
  // and the ReLU before it run only then). The tower's output x_L, and
  // [gmf | x_L], require grad when anything beneath them does.
  struct TowerLayer {
    TensorImpl* w;
    TensorImpl* b;
    std::size_t x;
    bool x_grad;
  };
  std::vector<TowerLayer> tower;
  bool x_grad = p.mlp_user.requires_grad() || p.mlp_item.requires_grad();
  std::size_t x_at = 0;
  for (const NeuMfParams::Layer& layer : p.tower) {
    tower.push_back({layer.w.impl().get(), layer.b.impl().get(), x_at, x_grad});
    x_at += batch * layer.w.rows();
    x_grad = x_grad || layer.w.requires_grad() || layer.b.requires_grad();
  }
  const bool mlp_grad = x_grad;
  const bool cat2_grad = mlp_grad || p.gmf_user.requires_grad() ||
                         p.gmf_item.requires_grad();
  const std::size_t dg = p.gmf_user.cols();
  const std::size_t dm = p.mlp_user.cols();
  const float inv = 1.0f / static_cast<float>(batch);
  TensorImpl* gui = p.gmf_user.impl().get();
  TensorImpl* gii = p.gmf_item.impl().get();
  TensorImpl* mui = p.mlp_user.impl().get();
  TensorImpl* mii = p.mlp_item.impl().get();
  TensorImpl* wfi = p.fuse.w.impl().get();
  TensorImpl* bfi = p.fuse.b.impl().get();
  TensorImpl* oi = out.get();
  // The composed graph's reverse walk (see tensor.h).
  AttachParents(
      out, dense,
      [gui, gii, mui, mii, wfi, bfi, oi, tower = std::move(tower), mlp_grad,
       cat2_grad, batch, dg, dm, inv, users = users, items = items,
       targets = targets, saved = std::move(saved), at]() {
        const float* s = saved.data();
        const float* cat2 = s + at.cat2;
        const float* logits = s + at.logits;
        const std::size_t w2 = wfi->rows;
        // Every intermediate gradient, in one zeroed buffer: the logits',
        // [gmf | x_L]'s, then per layer its output's and its input's.
        std::size_t size = batch * (1 + w2);
        for (const TowerLayer& layer : tower) {
          size += batch * (layer.w->cols + layer.w->rows);
        }
        std::vector<float> grads(size, 0.0f);
        float* next = grads.data();
        const auto take = [&next](std::size_t n) {
          float* block = next;
          next += n;
          return block;
        };
        // Mean, Sub, Mul(logits, targets), then Softplus (σ of each logit
        // first, in place).
        const float g_sub = 0.0f + oi->grad[0] * inv;
        const float g_sp = 0.0f + g_sub;
        const float g_lt = 0.0f - g_sub;
        float* g_logits = take(batch);
        kernels::Sigmoid(logits, g_logits, batch);
        for (std::size_t i = 0; i < batch; ++i) {
          g_logits[i] = (0.0f + g_lt * targets[i]) + g_sp * g_logits[i];
        }
        // The fuse Affine: b_f, [gmf | x_L], W_f.
        if (bfi->requires_grad) {
          for (std::size_t i = 0; i < batch; ++i) {
            AddRow(g_logits + i, bfi->grad.data(), 1);
          }
        }
        float* g_cat2 = take(batch * w2);
        if (cat2_grad) {
          kernels::GemmNT(batch, 1, w2, g_logits, wfi->data.data(), g_cat2);
        }
        if (wfi->requires_grad) {
          kernels::GemmTN(w2, batch, 1, cat2, g_logits, wfi->grad.data());
        }
        // The tower from the last layer: its ReLU, whose output x_L lies
        // in [gmf | x_L] (ConcatCols' 0 + g folds into the ReLU's), then
        // its Affine (b, x, W), and the next ReLU on its input's gradient.
        // A ReLU's x > 0 test reads its output, which is > 0 exactly
        // where its input is.
        const std::size_t n_last = tower.back().w->cols;
        float* g_out = take(batch * n_last);
        if (mlp_grad) {
          for (std::size_t r = 0; r < batch; ++r) {
            kernels::ReluBackward(cat2 + r * w2 + dg, g_cat2 + r * w2 + dg,
                                  0.0f, g_out + r * n_last, n_last);
          }
        }
        const float* g_x0 = nullptr;
        for (std::size_t l = tower.size(); l-- > 0;) {
          const TowerLayer& layer = tower[l];
          const std::size_t n = layer.w->cols;
          const std::size_t in = layer.w->rows;
          const float* x = s + layer.x;
          if (layer.b->requires_grad) {
            for (std::size_t r = 0; r < batch; ++r) {
              AddRow(g_out + r * n, layer.b->grad.data(), n);
            }
          }
          float* g_x = take(batch * in);
          if (layer.x_grad) {
            kernels::GemmNT(batch, n, in, g_out, layer.w->data.data(), g_x);
          }
          if (layer.w->requires_grad) {
            kernels::GemmTN(in, batch, n, x, g_out, layer.w->grad.data());
          }
          if (l == 0) {
            g_x0 = g_x;
          } else {
            g_out = take(batch * in);
            if (layer.x_grad) {
              kernels::ReluBackward(x, g_x, 0.0f, g_out, batch * in);
            }
          }
        }
        // ConcatCols(P_m rows, Q_m rows), then Rows' scatters: Q_m's,
        // then P_m's, each in row order.
        for (const bool user_side : {false, true}) {
          TensorImpl* table = user_side ? mui : mii;
          if (!table->requires_grad) continue;
          const std::vector<std::size_t>& ids = user_side ? users : items;
          const float* g = g_x0 + (user_side ? 0 : dm);
          for (std::size_t i = 0; i < batch; ++i) {
            const float* src = g + i * 2 * dm;
            float* dst = table->grad.data() + ids[i] * dm;
            for (std::size_t c = 0; c < dm; ++c) dst[c] += 0.0f + src[c];
          }
          ListGradRows(table, ids);
        }
        // Mul(P_g rows, Q_g rows) on gmf's gradient g = 0 + its part of
        // [gmf | x_L]'s: each side takes 0 + g·(the other side); then
        // Rows' scatters, Q_g's, then P_g's.
        const float* pu_rows = s + at.gmf_rows;
        const float* qv_rows = pu_rows + batch * dg;
        for (const bool user_side : {false, true}) {
          TensorImpl* table = user_side ? gui : gii;
          if (!table->requires_grad) continue;
          const std::vector<std::size_t>& ids = user_side ? users : items;
          const float* other = user_side ? qv_rows : pu_rows;
          for (std::size_t i = 0; i < batch; ++i) {
            const float* g = g_cat2 + i * w2;
            const float* o = other + i * dg;
            float* dst = table->grad.data() + ids[i] * dg;
            for (std::size_t c = 0; c < dg; ++c) {
              dst[c] += 0.0f + (0.0f + g[c]) * o[c];
            }
          }
          ListGradRows(table, ids);
        }
      },
      gathered);
  return result;
}

Tensor NeuMfLogits(const NeuMfParams& p, const std::vector<std::size_t>& users,
                   const std::vector<std::size_t>& items) {
  CheckNeuMf(p, users, items);
  const NeuMfLayout at(p, users.size(), /*with_gmf_rows=*/false);
  std::vector<float> rows(at.size, 0.0f);
  NeuMfForward(p, users, items, at, rows.data());
  const auto logits = rows.begin() + static_cast<std::ptrdiff_t>(at.logits);
  return Tensor::FromData(
      users.size(), 1,
      std::vector<float>(logits,
                         logits + static_cast<std::ptrdiff_t>(users.size())));
}

// ---------------------------------------------------------------------------
// Fused affine map
// ---------------------------------------------------------------------------

namespace {

// Both Affine forms; x2 and w2 are null in the one-pair form.
Tensor AffineOp(const Tensor& x1, const Tensor& w1, const Tensor* x2,
                const Tensor* w2, const Tensor& b) {
  const std::size_t m = x1.rows();
  const std::size_t n = w1.cols();
  // (x, W) per product, pair 1 first.
  std::vector<std::pair<TensorImpl*, TensorImpl*>> pairs = {
      {x1.impl().get(), w1.impl().get()}};
  if (x2 != nullptr) pairs.emplace_back(x2->impl().get(), w2->impl().get());
  for (const auto& [x, w] : pairs) {
    POISONREC_CHECK(x->rows == m && x->cols == w->rows && w->cols == n)
        << "Affine shape mismatch (" << x->rows << "x" << x->cols << ") * ("
        << w->rows << "x" << w->cols << ")";
  }
  POISONREC_CHECK(b.rows() == 1 && b.cols() == n)
      << "Affine bias must be (1x" << n << "), got " << b.ShapeString();
  auto out = NewNode(m, n);
  float* o = out->data.data();
  kernels::GemmNN(m, x1.cols(), n, x1.data().data(), w1.data().data(), o);
  if (x2 != nullptr) {
    std::vector<float> second(m * n, 0.0f);
    kernels::GemmNN(m, x2->cols(), n, x2->data().data(), w2->data().data(),
                    second.data());
    AddRow(second.data(), o, m * n);
  }
  for (std::size_t r = 0; r < m; ++r) AddRow(b.data().data(), o + r * n, n);
  Tensor result(out);
  const bool track = x2 == nullptr ? TrackGrad({&x1, &w1, &b})
                                   : TrackGrad({&x1, &w1, x2, w2, &b});
  if (!track) return result;
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  auto backward = [pairs = std::move(pairs), bi, oi, m, n]() {
    const float* g = oi->grad.data();
    if (bi->requires_grad) {
      for (std::size_t r = 0; r < m; ++r) AddRow(g + r * n, bi->grad.data(), n);
    }
    // Pair 2 before pair 1, the order the composed Adds handed them on.
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
      const auto [x, w] = *it;
      if (x->requires_grad) {
        kernels::GemmNT(m, n, x->cols, g, w->data.data(), x->grad.data());
      }
      if (w->requires_grad) {
        kernels::GemmTN(x->cols, m, n, x->data.data(), g, w->grad.data());
      }
    }
  };
  if (x2 == nullptr) {
    Attach(out, {&x1, &w1, &b}, std::move(backward));
  } else {
    Attach(out, {&x1, &w1, x2, w2, &b}, std::move(backward));
  }
  return result;
}

}  // namespace

Tensor Affine(const Tensor& x1, const Tensor& w1, const Tensor& b) {
  return AffineOp(x1, w1, nullptr, nullptr, b);
}

Tensor Affine(const Tensor& x1, const Tensor& w1, const Tensor& x2,
              const Tensor& w2, const Tensor& b) {
  return AffineOp(x1, w1, &x2, &w2, b);
}

// ---------------------------------------------------------------------------
// Fused BCBT decision batch
// ---------------------------------------------------------------------------

Tensor TreeDecisionLogProb(const Tensor& dht,
                           const std::vector<std::size_t>& row_idx,
                           const Tensor& feats,
                           const std::vector<std::size_t>& chosen_rows,
                           const std::vector<std::size_t>& other_rows) {
  const std::size_t count = row_idx.size();
  const std::size_t dim = dht.cols();
  POISONREC_CHECK(feats.cols() == dim && chosen_rows.size() == count &&
                  other_rows.size() == count)
      << "TreeDecisionLogProb shape mismatch " << dht.ShapeString() << ", "
      << feats.ShapeString() << ", " << count << "/" << chosen_rows.size()
      << "/" << other_rows.size() << " rows";
  for (std::size_t k = 0; k < count; ++k) {
    POISONREC_CHECK_LT(row_idx[k], dht.rows());
    POISONREC_CHECK_LT(chosen_rows[k], feats.rows());
    POISONREC_CHECK_LT(other_rows[k], feats.rows());
  }
  auto out = NewNode(count, 1);
  TensorImpl* di = dht.impl().get();
  TensorImpl* fi = feats.impl().get();
  TensorImpl* oi = out.get();
  const bool track = TrackGrad({&dht, &feats});
  // x = q·ot − q·ch per decision, saved for the softplus derivative.
  std::vector<float> x(count);
  for (std::size_t k = 0; k < count; ++k) {
    const float* q = di->data.data() + row_idx[k] * dim;
    const float* ch = fi->data.data() + chosen_rows[k] * dim;
    const float* ot = fi->data.data() + other_rows[k] * dim;
    // Two RowDots, each summed from 0 with c ascending.
    float dot_ot = 0.0f;
    float dot_ch = 0.0f;
    for (std::size_t c = 0; c < dim; ++c) {
      dot_ot += q[c] * ot[c];
      dot_ch += q[c] * ch[c];
    }
    x[k] = dot_ot - dot_ch;
  }
  kernels::Softplus(x.data(), oi->data.data(), count);
  for (std::size_t k = 0; k < count; ++k) oi->data[k] = oi->data[k] * -1.0f;
  Tensor result(out);
  if (!track) return result;
  Attach(
      out, {},
      [di, fi, oi, x = std::move(x), rows = row_idx, chosen = chosen_rows,
       other = other_rows, dim]() {
        const std::size_t count = rows.size();
        // The composed chain's scalar gradients, each intermediate
        // started at 0: Scale(-1), Softplus (its derivative σ(x) goes
        // into g_a first), then Sub's two sides, g_a for q·ot and g_b
        // for q·ch.
        std::vector<float> g_a(count);
        std::vector<float> g_b(count);
        kernels::Sigmoid(x.data(), g_a.data(), count);
        for (std::size_t k = 0; k < count; ++k) {
          const float g_s = 0.0f + oi->grad[k] * -1.0f;
          const float g_x = 0.0f + g_s * g_a[k];
          g_a[k] = 0.0f + g_x;
          g_b[k] = 0.0f - g_x;
        }
        const float* q = di->data.data();
        const float* f = fi->data.data();
        if (fi->requires_grad) {
          // Rows(feats, chosen) ran before Rows(feats, other).
          float* dst = fi->grad.data();
          for (std::size_t k = 0; k < count; ++k) {
            ScatterScaledRow(g_b[k], q + rows[k] * dim,
                             dst + chosen[k] * dim, dim);
          }
          for (std::size_t k = 0; k < count; ++k) {
            ScatterScaledRow(g_a[k], q + rows[k] * dim,
                             dst + other[k] * dim, dim);
          }
          ListGradRows(fi, chosen);
          ListGradRows(fi, other);
        }
        if (di->requires_grad) {
          // q's gradient: RowDot(q, ch)'s term first, then RowDot(q, ot)'s.
          float* dst = di->grad.data();
          for (std::size_t k = 0; k < count; ++k) {
            ScatterScaledRows(g_b[k], f + chosen[k] * dim, g_a[k],
                              f + other[k] * dim, dst + rows[k] * dim, dim);
          }
          ListGradRows(di, rows);
        }
      },
      /*gathered=*/{&dht, &feats});
  return result;
}

std::vector<float> NumericalGradient(
    const std::function<float(const Tensor&)>& f, Tensor x, float eps) {
  std::vector<float> grad(x.size());
  std::vector<float>& data = x.mutable_data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float saved = data[i];
    data[i] = saved + eps;
    const float fp = f(x);
    data[i] = saved - eps;
    const float fm = f(x);
    data[i] = saved;
    grad[i] = (fp - fm) / (2.0f * eps);
  }
  return grad;
}

}  // namespace poisonrec::nn
