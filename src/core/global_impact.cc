#include "core/global_impact.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace core {

GlobalImpactModule::GlobalImpactModule(int64_t num_regions,
                                       int64_t history_length, int64_t hidden,
                                       Rng& rng,
                                       stats::DistributionFamily family,
                                       int64_t attention_dim)
    : n_(num_regions),
      l_(history_length),
      j_(attention_dim),
      family_(family),
      dec1_(num_regions * history_length, hidden, rng),
      dec2_(hidden, hidden, rng),
      dec3_(hidden, num_regions * 3 * attention_dim, rng),
      pred1_(history_length, hidden, rng),
      pred2_(hidden, hidden, rng),
      pred3_(hidden, 1, rng) {
  EALGAP_CHECK_GE(attention_dim, 1);
  RegisterModule("dec1", &dec1_);
  RegisterModule("dec2", &dec2_);
  RegisterModule("dec3", &dec3_);
  if (j_ > 1) {
    combine_ = std::make_unique<nn::Linear>(j_, 1, rng);
    RegisterModule("combine", combine_.get());
  }
  RegisterModule("pred1", &pred1_);
  RegisterModule("pred2", &pred2_);
  RegisterModule("pred3", &pred3_);
  // Start the attention parameters near identity (W^Q=W^K=W^V ~ 1) and the
  // prediction head positive, so Eq. (11)'s outer ReLU does not begin in
  // its dead zone on non-negative count data.
  const_cast<Tensor&>(dec3_.bias().value()).Fill(1.f);
  const_cast<Tensor&>(pred3_.bias().value()).Fill(1.f);
}

GlobalImpactModule::Output GlobalImpactModule::Forward(const Var& x) const {
  EALGAP_CHECK_EQ(x.value().ndim(), 2);
  const int64_t n = x.value().dim(0);
  const int64_t l = x.value().dim(1);
  EALGAP_CHECK_EQ(n, n_);
  EALGAP_CHECK_EQ(l, l_);

  // A-1: densities under the per-region fitted distribution (Eqs. 3-4).
  // The fit is a data transformation: gradients flow through the attention
  // parameters produced from Z, not through the fit itself.
  Tensor z = stats::RowwisePdf(x.value(), family_);
  Var zv = Var::Leaf(std::move(z));
  // Three FC layers interleaved with Softmax decode the citywide density
  // pattern into per-region attention parameters (Eq. 5).
  Var h = SoftmaxLastDim(dec1_.Forward(Reshape(zv, {1, n * l})));
  h = SoftmaxLastDim(dec2_.Forward(h));
  Var w = Reshape(dec3_.Forward(h), {n, 3 * j_});  // per-region W^Q/K/V
  Var wq = Slice(w, 1, 0, j_);
  Var wk = Slice(w, 1, j_, 2 * j_);
  Var wv = Slice(w, 1, 2 * j_, 3 * j_);

  // A-2: per-region temporal self-attention (Eq. 6). Q[n,l,:] is the
  // scalar history value projected by the region's J-vector (I = 1):
  // outer products via batched matmul.
  Var x3 = Reshape(x, {n, l, 1});
  Var q = BMatMul(x3, Reshape(wq, {n, 1, j_}));  // (N, L, J)
  Var k = BMatMul(x3, Reshape(wk, {n, 1, j_}));
  Var v = BMatMul(x3, Reshape(wv, {n, 1, j_}));
  Var logits = MulScalar(BMatMul(q, TransposeLast2(k)),
                         1.f / std::sqrt(static_cast<float>(j_)));
  Var scores = SoftmaxLastDim(logits);  // (N, L, L)
  Var xg3 = BMatMul(scores, v);         // (N, L, J)
  Output out;
  if (j_ == 1) {
    out.xg_history = Reshape(xg3, {n, l});
  } else {
    out.xg_history = Reshape(combine_->Forward(xg3), {n, l});
  }

  // Eq. 7: three FC layers with ReLU predict X̂g[:, t+1].
  Var p = Relu(pred1_.Forward(out.xg_history));
  p = Relu(pred2_.Forward(p));
  out.xg_next = Reshape(pred3_.Forward(p), {n});
  return out;
}

Tensor GlobalImpactModule::InferAttentionParams(const Tensor& z) const {
  EALGAP_CHECK_EQ(z.numel(), n_ * l_);
  // The Tensor ops Forward()'s Vars wrap, minus the graph.
  auto linear = [](const nn::Linear& fc, const Tensor& in) {
    return ops::Add(ops::MatMul(in, fc.weight().value()),
                    fc.bias().value().Reshape({1, fc.out_features()}));
  };
  Tensor h = ops::SoftmaxLastDim(linear(dec1_, z.Reshape({1, n_ * l_})));
  h = ops::SoftmaxLastDim(linear(dec2_, h));
  return linear(dec3_, h).Reshape({n_, 3 * j_});
}

namespace {

/// out = Σ_{p<k} a_p ⊙ b_p over `lanes` columns with matmul_rows' per-element
/// expression tree: products summed in groups of four left to right, each
/// group then added onto an accumulator that starts at 0, leftover
/// products added one at a time. `product(p, dst)` writes a_p ⊙ b_p; `t`
/// and `u` are lanes-sized scratch.
template <class Product>
void TreeDotLanes(int64_t k, int64_t lanes, Product product, float* out,
                  float* t, float* u) {
  const kernels::KernelTable& kt = kernels::Active();
  bool first = true;
  auto accumulate = [&](const float* v) {
    if (first) {
      kt.add_vs(v, 0.f, out, lanes);  // 0 + v: turns a -0 product into +0
      first = false;
    } else {
      kt.add_vv(out, v, out, lanes);
    }
  };
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    product(p, t);
    for (int64_t q = 1; q < 4; ++q) {
      product(p + q, u);
      kt.add_vv(t, u, t, lanes);
    }
    accumulate(t);
  }
  for (; p < k; ++p) {
    product(p, t);
    accumulate(t);
  }
}

}  // namespace

void GlobalImpactModule::AttentionLanes(const float* x, const float* w,
                                        int64_t lanes, float* hist,
                                        float* scratch) const {
  const kernels::KernelTable& kt = kernels::Active();
  const int64_t lj = l_ * j_;
  float* wl = scratch;               // (3J, lanes): W^Q | W^K | W^V
  float* q = wl + 3 * j_ * lanes;    // (L*J, lanes), row l*J + j
  float* k = q + lj * lanes;
  float* v = k + lj * lanes;
  float* logits = v + lj * lanes;    // (L*L, lanes), row i*L + jj
  float* xg3 = logits + l_ * l_ * lanes;   // (J*L, lanes), row j*L + i
  float* t = xg3 + lj * lanes;
  float* u = t + lanes;
  for (int64_t r = 0; r < lanes; ++r) {
    for (int64_t c = 0; c < 3 * j_; ++c) wl[c * lanes + r] = w[r * 3 * j_ + c];
  }
  // Q/K/V[l, j] = x[l] * W[j]: BMatMul with k = 1, i.e. 0 + x*W.
  for (int64_t part = 0; part < 3; ++part) {
    float* dst = q + part * lj * lanes;
    for (int64_t l = 0; l < l_; ++l) {
      for (int64_t j = 0; j < j_; ++j) {
        kt.mul_vv(x + l * lanes, wl + (part * j_ + j) * lanes,
                  dst + (l * j_ + j) * lanes, lanes);
      }
    }
  }
  kt.add_vs(q, 0.f, q, 3 * lj * lanes);
  // logits[i, jj] = (Q[i] · K[jj]) / sqrt(J).
  for (int64_t i = 0; i < l_; ++i) {
    for (int64_t jj = 0; jj < l_; ++jj) {
      TreeDotLanes(
          j_, lanes,
          [&](int64_t p, float* dst) {
            kt.mul_vv(q + (i * j_ + p) * lanes, k + (jj * j_ + p) * lanes, dst,
                      lanes);
          },
          logits + (i * l_ + jj) * lanes, t, u);
    }
  }
  kt.mul_vs(logits, 1.f / std::sqrt(static_cast<float>(j_)), logits,
            l_ * l_ * lanes);
  // Softmax over jj, per (query step i, region).
  for (int64_t i = 0; i < l_; ++i) {
    kt.softmax_cols(logits + i * l_ * lanes, logits + i * l_ * lanes, l_,
                    lanes);
  }
  // Xg[i, j] = scores[i] · V[:, j]; with J = 1 that is the history itself.
  float* out = j_ == 1 ? hist : xg3;
  for (int64_t j = 0; j < j_; ++j) {
    for (int64_t i = 0; i < l_; ++i) {
      TreeDotLanes(
          l_, lanes,
          [&](int64_t p, float* dst) {
            kt.mul_vv(logits + (i * l_ + p) * lanes, v + (p * j_ + j) * lanes,
                      dst, lanes);
          },
          out + (j * l_ + i) * lanes, t, u);
    }
  }
  // J > 1: the combine Linear over J, its columns being (i, region) pairs.
  if (j_ > 1) combine_->ForwardLanes(xg3, l_ * lanes, hist);
}

void GlobalImpactModule::PredictLanes(const float* hist, int64_t lanes,
                                      float* xg_next, float* scratch) const {
  const kernels::KernelTable& kt = kernels::Active();
  const int64_t h = pred1_.out_features() * lanes;
  float* p1 = scratch;
  float* p2 = p1 + h;
  pred1_.ForwardLanes(hist, lanes, p1);
  kt.relu_ip(p1, h);
  pred2_.ForwardLanes(p1, lanes, p2);
  kt.relu_ip(p2, h);
  pred3_.ForwardLanes(p2, lanes, xg_next);
}

}  // namespace core
}  // namespace ealgap
