#ifndef EALGAP_NN_LINEAR_H_
#define EALGAP_NN_LINEAR_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace nn {

/// Fully-connected layer: y = x W + b.
///
/// Accepts inputs of any rank >= 1 whose last dimension equals
/// `in_features`; leading dimensions are treated as batch.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool has_bias = true);

  /// x: (..., in_features) -> (..., out_features).
  Var Forward(const Var& x) const;

  /// No-grad forward in lanes layout, where a batch is stored feature-major
  /// with one column per batch row: x is (in_features, lanes), out is
  /// (out_features, lanes), out = Wᵀ·x + b. Reads the live parameters and
  /// is bit-identical to Forward() on the transposed batch: the product
  /// keeps matmul's per-element expression tree and the bias is added
  /// after it (DESIGN.md §8i).
  void ForwardLanes(const float* x, int64_t lanes, float* out) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Var weight_;  // (in, out)
  Var bias_;    // (out) — undefined when has_bias = false
};

}  // namespace nn
}  // namespace ealgap

#endif  // EALGAP_NN_LINEAR_H_
