#ifndef EALGAP_CORE_GLOBAL_IMPACT_H_
#define EALGAP_CORE_GLOBAL_IMPACT_H_

#include <memory>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "stats/distribution.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace core {

/// Global Impact Modeling Module (paper Sec. V-A, Fig. 8).
///
/// A-1 ("Global Dominant Spatial Dependencies Generation"): the mobility of
/// each region over the last L steps is fitted to an exponential
/// distribution (MLE, Eq. 3); the probability densities Z (Eq. 4) of ALL
/// regions are decoded jointly by three Softmax-interleaved FC layers into
/// *temporally-varying* per-region attention parameters W^Q, W^K, W^V
/// (Eq. 5, I = J = 1 in the paper's study). Decoding from the citywide Z
/// is what makes the parameters spatial dependencies: each region's
/// attention is conditioned on every region's density pattern.
///
/// A-2: per-region temporal self-attention (Eq. 6) re-weights the recent
/// history into global impacts Xg[:, t-L+1:t], and three ReLU-interleaved
/// FC layers predict the next-step global impact X̂g[:, t+1] (Eq. 7).
class GlobalImpactModule : public nn::Module {
 public:
  /// `attention_dim` is the paper's J (Eq. 2): each region's query/key/value
  /// projections are J-dimensional; the study fixes J = 1, and J > 1 adds a
  /// learned combine layer over the J attention outputs (extension bench
  /// ext_attention_dim sweeps it).
  GlobalImpactModule(int64_t num_regions, int64_t history_length,
                     int64_t hidden, Rng& rng,
                     stats::DistributionFamily family =
                         stats::DistributionFamily::kExponential,
                     int64_t attention_dim = 1);

  struct Output {
    Var xg_history;  ///< (N, L) global impacts over the input window
    Var xg_next;     ///< (N)    predicted global impact at t+1
  };

  /// x: (N, L) model-space mobility (non-negative). The distribution fit
  /// and PDF evaluation are data (not differentiated through), matching
  /// the paper's data-driven parameter generation.
  Output Forward(const Var& x) const;

  // --- No-grad inference (DESIGN.md §8i) -------------------------------
  // The stages of Forward() as plain kernel calls over the live
  // parameters, bit-identical to it. Per-region stages run on one block of
  // regions in lanes layout (nn::Linear::ForwardLanes): a (rows, lanes)
  // buffer holds one column per region of the block.

  /// A-1 decoder, once per sample: the densities z = RowwisePdf(x) (N, L)
  /// through dec1 -> softmax -> dec2 -> softmax -> dec3, giving each
  /// region's row [W^Q | W^K | W^V] of the returned (N, 3J) tensor.
  Tensor InferAttentionParams(const Tensor& z) const;

  /// A-2 for one block: x (L, lanes) model-space history, w the block's
  /// rows of InferAttentionParams (lanes, 3J row-major); writes the global
  /// impacts Xg[:, t-L+1:t] into hist (L, lanes).
  void AttentionLanes(const float* x, const float* w, int64_t lanes,
                      float* hist, float* scratch) const;
  int64_t AttentionLanesScratch(int64_t lanes) const {
    return (3 * j_ + 4 * l_ * j_ + l_ * l_ + 2) * lanes;
  }

  /// Eq. 7 for one block: hist (L, lanes) -> X̂g[:, t+1] (lanes).
  void PredictLanes(const float* hist, int64_t lanes, float* xg_next,
                    float* scratch) const;
  int64_t PredictLanesScratch(int64_t lanes) const {
    return 2 * pred1_.out_features() * lanes;
  }

  stats::DistributionFamily family() const { return family_; }

 private:
  int64_t n_;
  int64_t l_;
  int64_t j_;
  stats::DistributionFamily family_;
  // Decoder: Z -> [W^Q, W^K, W^V]
  nn::Linear dec1_, dec2_, dec3_;
  // Combines the J attention outputs when J > 1.
  std::unique_ptr<nn::Linear> combine_;
  // Predictor: Xg[:, t-L+1:t] -> X̂g[:, t+1]
  nn::Linear pred1_, pred2_, pred3_;
};

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_GLOBAL_IMPACT_H_
