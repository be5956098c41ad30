#include "nn/linear.h"

#include <cstring>

#include "common/logging.h"
#include "nn/init.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool has_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight",
      XavierUniform({in_features, out_features}, in_features, out_features,
                    rng));
  if (has_bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
  }
}

Var Linear::Forward(const Var& x) const {
  const Shape& in_shape = x.value().shape();
  EALGAP_CHECK_GE(in_shape.size(), 1u);
  EALGAP_CHECK_EQ(in_shape.back(), in_features_)
      << "Linear(" << in_features_ << ") got " << ShapeToString(in_shape);
  const int64_t rows = x.value().numel() / in_features_;
  Var flat = Reshape(x, {rows, in_features_});
  Var out = MatMul(flat, weight_);
  if (bias_.defined()) {
    out = Add(out, Reshape(bias_, {1, out_features_}));
  }
  Shape out_shape(in_shape.begin(), in_shape.end() - 1);
  out_shape.push_back(out_features_);
  return Reshape(out, std::move(out_shape));
}

void Linear::ForwardLanes(const float* x, int64_t lanes, float* out) const {
  const kernels::KernelTable& t = kernels::Active();
  std::memset(out, 0, static_cast<size_t>(out_features_ * lanes) * sizeof(float));
  t.matmul_tn_rows(weight_.value().data(), x, out, 0, out_features_,
                   out_features_, in_features_, lanes);
  if (!bias_.defined()) return;
  const float* b = bias_.value().data();
  for (int64_t j = 0; j < out_features_; ++j) {
    t.add_vs(out + j * lanes, b[j], out + j * lanes, lanes);
  }
}

}  // namespace nn
}  // namespace ealgap
