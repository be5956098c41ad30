#ifndef EALGAP_TENSOR_AUTOGRAD_H_
#define EALGAP_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ealgap {

namespace autograd {

/// A node in the dynamically-built computation graph.
struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily; same shape as value
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates `gout` (d loss / d value) into the parents' grads.
  std::function<void(const Tensor& gout)> backfn;

  /// Reduces `g` to value's shape (undo broadcasting) and adds it to grad.
  void AccumulateGrad(const Tensor& g);
};

}  // namespace autograd

/// True when new ops record the graph (default). Flip with NoGradGuard.
bool GradEnabled();

/// RAII scope that disables graph recording (inference / data prep).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// A differentiable handle on a Tensor.
///
/// Vars are cheap to copy (shared node). Build expressions with the free
/// functions / operators below, call Backward() on a scalar result, then
/// read leaf gradients via grad().
class Var {
 public:
  Var() = default;

  /// Wraps a tensor as a graph leaf. Parameters pass requires_grad = true.
  static Var Leaf(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  const Shape& shape() const { return value().shape(); }
  bool requires_grad() const;

  /// Gradient accumulated by Backward(); zeros if none was propagated.
  Tensor& grad();

  /// Clears the accumulated gradient (used by optimizers between steps).
  void ZeroGrad();

  /// Detaches from the graph: same value, no history.
  Var Detach() const;

  const std::shared_ptr<autograd::Node>& node() const { return node_; }
  explicit Var(std::shared_ptr<autograd::Node> node) : node_(std::move(node)) {}

 private:
  std::shared_ptr<autograd::Node> node_;
};

/// Runs reverse-mode differentiation from `root` (seeded with ones).
void Backward(const Var& root);

// --- differentiable ops (mirror tensor/ops.h) ---
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);
Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);
Var PowScalar(const Var& a, float p);
Var Neg(const Var& a);
Var Exp(const Var& a);
Var Log(const Var& a);
Var Sqrt(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);
Var Abs(const Var& a);
Var MatMul(const Var& a, const Var& b);
Var BMatMul(const Var& a, const Var& b);
Var TransposeLast2(const Var& a);
Var SumAll(const Var& a);
Var MeanAll(const Var& a);
Var SumAxis(const Var& a, int64_t axis, bool keepdim = true);
Var MeanAxis(const Var& a, int64_t axis, bool keepdim = true);
Var SoftmaxLastDim(const Var& a);
Var Slice(const Var& a, int64_t axis, int64_t start, int64_t end);
Var Concat(const std::vector<Var>& parts, int64_t axis);
Var Stack(const std::vector<Var>& parts);
Var Reshape(const Var& a, Shape shape);

inline Var operator+(const Var& a, const Var& b) { return Add(a, b); }
inline Var operator-(const Var& a, const Var& b) { return Sub(a, b); }
inline Var operator*(const Var& a, const Var& b) { return Mul(a, b); }
inline Var operator/(const Var& a, const Var& b) { return Div(a, b); }
inline Var operator-(const Var& a) { return Neg(a); }

}  // namespace ealgap

#endif  // EALGAP_TENSOR_AUTOGRAD_H_
