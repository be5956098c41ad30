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
