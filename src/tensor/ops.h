#ifndef EALGAP_TENSOR_OPS_H_
#define EALGAP_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace ealgap {
namespace ops {

/// Forward-only tensor math. All binary elementwise ops broadcast with numpy
/// semantics; the autograd layer (tensor/autograd.h) builds on these.

// --- elementwise binary (broadcasting) ---
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// --- elementwise with scalar ---
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor PowScalar(const Tensor& a, float p);
Tensor MaximumScalar(const Tensor& a, float s);
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- elementwise unary ---
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  ///< natural log; inputs must be > 0
Tensor Sqrt(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);  ///< -1/0/+1

// --- in-place (allocation-free; used by the optimizer / grad accumulation) ---
/// a += b. Shapes must match exactly (no broadcasting).
void AddInPlace(Tensor& a, const Tensor& b);
/// a += alpha * b. Shapes must match exactly.
void AxpyInPlace(Tensor& a, float alpha, const Tensor& b);
/// a *= s.
void ScaleInPlace(Tensor& a, float s);
/// a = min(hi, max(lo, a)) elementwise.
void ClampInPlace(Tensor& a, float lo, float hi);
/// Sum of squared elements, accumulated in double with a deterministic
/// blocked reduction (bit-identical for any thread count).
double SumSquares(const Tensor& a);

// --- linear algebra ---
/// 2-D matrix product: (m,k) x (k,n) -> (m,n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Batched 3-D matrix product: (B,m,k) x (B,k,n) -> (B,m,n).
Tensor BMatMul(const Tensor& a, const Tensor& b);
/// Swap the last two dims (rank >= 2); copies.
Tensor TransposeLast2(const Tensor& a);

// --- reductions ---
Tensor SumAll(const Tensor& a);   ///< shape {1}
Tensor MeanAll(const Tensor& a);  ///< shape {1}
Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim = true);
Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim = true);
Tensor MaxAll(const Tensor& a);  ///< shape {1}

/// Numerically-stable softmax over the last dimension.
Tensor SoftmaxLastDim(const Tensor& a);

// --- shape manipulation (copying) ---
/// Elements [start, end) along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);
/// Concatenation along `axis`; all inputs must agree on other dims.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
/// Stacks rank-r tensors into rank-(r+1) along a new leading `axis`=0.
Tensor Stack(const std::vector<Tensor>& parts);
/// Expands `a` to `shape` by broadcasting; copies.
Tensor BroadcastTo(const Tensor& a, const Shape& shape);

/// Sums `grad` down to `target` shape (inverse of broadcasting); used by the
/// autograd layer for the backward pass of broadcast ops.
Tensor ReduceToShape(const Tensor& grad, const Shape& target);

}  // namespace ops
}  // namespace ealgap

#endif  // EALGAP_TENSOR_OPS_H_
