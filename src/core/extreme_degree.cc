#include "core/extreme_degree.h"

#include <cstring>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace core {

ExtremeDegreeModule::ExtremeDegreeModule(int64_t num_regions,
                                         int64_t history_length,
                                         int64_t gru_hidden, Rng& rng)
    : n_(num_regions),
      l_(history_length),
      gru_(history_length, gru_hidden, rng),
      head_(gru_hidden, 1, rng) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({num_regions, 1}));
  epsilon_ = RegisterParameter("epsilon",
                               Tensor::Full({num_regions, 1}, 1e-2f));
  RegisterModule("gru", &gru_);
  RegisterModule("head", &head_);
}

Var ExtremeDegreeModule::ExtremeDegree(const Var& x, const Var& mu,
                                       const Var& sigma) const {
  // sqrt(sigma^2 + |eps| + floor): |eps| keeps the learnable offset
  // positive, the floor keeps constant histories finite.
  Var var = Add(Mul(sigma, sigma), AddScalar(Abs(epsilon_), 1e-4f));
  Var d = Div(Sub(x, mu), Sqrt(var));  // broadcasts eps (N,1) over (N,L)
  return Tanh(Mul(d, gamma_));
}

ExtremeDegreeModule::Output ExtremeDegreeModule::Forward(
    const Var& f, const Var& f_mu, const Var& f_sigma) const {
  Output out;
  ForwardInto(f, f_mu, f_sigma, &out);
  return out;
}

void ExtremeDegreeModule::ForwardInto(const Var& f, const Var& f_mu,
                                      const Var& f_sigma, Output* out) const {
  EALGAP_CHECK_EQ(f.value().ndim(), 3);
  const int64_t m = f.value().dim(0);
  const int64_t n = f.value().dim(1);
  const int64_t l = f.value().dim(2);
  EALGAP_CHECK_EQ(n, n_);

  out->e.clear();
  out->d_steps.clear();
  out->e.reserve(m);
  out->d_steps.reserve(m);
  Var h = nn::ZeroState(n, gru_.hidden_size());
  for (int64_t w = 0; w < m; ++w) {
    Var fw = Reshape(Slice(f, 0, w, w + 1), {n, l});
    Var mw = Reshape(Slice(f_mu, 0, w, w + 1), {n, l});
    Var sw = Reshape(Slice(f_sigma, 0, w, w + 1), {n, l});
    Var e = ExtremeDegree(fw, mw, sw);  // (N, L)
    out->e.push_back(e);
    // Eq. (10): the hidden state of window m seeds window m+1, and each
    // window emits a prediction of the degree one step past its end.
    h = gru_.Forward(e, h);
    out->d_steps.push_back(Reshape(Tanh(head_.Forward(h)), {n}));
  }
  out->d_next = out->d_steps.back();
}

void ExtremeDegreeModule::DegreeLanes(const float* f, const float* mu,
                                      const float* sigma, int64_t rows,
                                      int64_t r0, int64_t lanes, float* e,
                                      float* scratch) const {
  const kernels::KernelTable& t = kernels::Active();
  const int64_t n = rows * lanes;
  float* var = scratch;          // (rows, lanes)
  float* eps = var + n;          // (lanes): |eps| + floor per region
  const float* gamma = gamma_.value().data() + r0;
  t.abs(epsilon_.value().data() + r0, eps, lanes);
  t.add_vs(eps, 1e-4f, eps, lanes);
  t.mul_vv(sigma, sigma, var, n);
  for (int64_t i = 0; i < rows; ++i) {
    t.add_vv(var + i * lanes, eps, var + i * lanes, lanes);
  }
  t.sqrt(var, var, n);
  t.sub_vv(f, mu, e, n);
  t.div_vv(e, var, e, n);
  for (int64_t i = 0; i < rows; ++i) {
    t.mul_vv(e + i * lanes, gamma, e + i * lanes, lanes);
  }
  t.tanh(e, e, n);
}

void ExtremeDegreeModule::PredictDegreeLanes(const float* e, int64_t m,
                                             int64_t lanes, float* d_next,
                                             float* scratch) const {
  float* h = scratch;
  std::memset(h, 0,
              static_cast<size_t>(gru_.hidden_size() * lanes) * sizeof(float));
  for (int64_t w = 0; w < m; ++w) {
    gru_.StepLanes(e + w * l_ * lanes, lanes, h,
                   h + gru_.hidden_size() * lanes);
  }
  head_.ForwardLanes(h, lanes, d_next);
  kernels::Active().tanh(d_next, d_next, lanes);
}

}  // namespace core
}  // namespace ealgap
