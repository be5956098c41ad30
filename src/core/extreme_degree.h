#ifndef EALGAP_CORE_EXTREME_DEGREE_H_
#define EALGAP_CORE_EXTREME_DEGREE_H_

#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace core {

/// Extreme Degree and Local Impact Modeling Module (paper Sec. V-B, Fig. 9).
///
/// B-1: the extreme degree of each (region, step) is the temporally-matched
/// instance normalization of Eq. (9):
///     D[n,l] = gamma_n * (X[n,l] - mu[n,l]) / sqrt(sigma^2[n,l] + eps_n)
/// followed by tanh; mu/sigma come from the same time step of day on the
/// same day type (precomputed by the dataset), and gamma_n / eps_n are
/// learnable per-region parameters.
///
/// B-2: the extreme degrees E_1..E_M of the M day-offset windows feed a GRU
/// (regions as batch, one window per GRU step, hidden state carried across
/// windows, Eq. 10); a linear head with tanh emits D̂[:, t+1] in [-1, 1].
class ExtremeDegreeModule : public nn::Module {
 public:
  ExtremeDegreeModule(int64_t num_regions, int64_t history_length,
                      int64_t gru_hidden, Rng& rng);

  struct Output {
    Var d_next;               ///< (N) predicted extreme degree at t+1
    std::vector<Var> e;       ///< per-window extreme degrees, each (N, L)
    /// Eq. (10): after consuming window m the GRU predicts the extreme
    /// degree one step past that window, D[:, t - T(M-m) + 1]. The last
    /// entry equals d_next.
    std::vector<Var> d_steps;
  };

  /// f, f_mu, f_sigma: (M, N, L) windows with aligned matched statistics
  /// (model space; the degree is scale-invariant).
  Output Forward(const Var& f, const Var& f_mu, const Var& f_sigma) const;

  /// Forward() into a caller-owned Output whose vectors are cleared and
  /// refilled (capacity reused). Callers that run under an ArenaScope must
  /// clear the Output again before the scope rewinds (the Vars inside are
  /// arena-backed).
  void ForwardInto(const Var& f, const Var& f_mu, const Var& f_sigma,
                   Output* out) const;

  /// Eq. (9) + tanh for one window (exposed for tests).
  Var ExtremeDegree(const Var& x, const Var& mu, const Var& sigma) const;

  // --- No-grad inference (DESIGN.md §8i) -------------------------------
  // ExtremeDegree() and ForwardInto() as kernel calls on one block of
  // regions [r0, r0 + lanes) in lanes layout (nn::Linear::ForwardLanes),
  // bit-identical to them and reading the live parameters.

  /// Eq. (9) + tanh: f, mu, sigma are (rows, lanes) model-space blocks —
  /// any number of rows, e.g. all M windows' L steps at once. e may alias
  /// f.
  void DegreeLanes(const float* f, const float* mu, const float* sigma,
                   int64_t rows, int64_t r0, int64_t lanes, float* e,
                   float* scratch) const;
  static int64_t DegreeLanesScratch(int64_t rows, int64_t lanes) {
    return (rows + 1) * lanes;
  }

  /// Eq. (10) for inference: the GRU over the M windows of e (M*L, lanes)
  /// from a zero state, then tanh(head(h)) — D̂[:, t+1] — into d_next
  /// (lanes). The per-window heads only feed training, so they are skipped.
  void PredictDegreeLanes(const float* e, int64_t m, int64_t lanes,
                          float* d_next, float* scratch) const;
  int64_t PredictDegreeLanesScratch(int64_t lanes) const {
    return gru_.hidden_size() * lanes + gru_.StepLanesScratch(lanes);
  }

 private:
  int64_t n_;
  int64_t l_;
  Var gamma_;    // (N, 1)
  Var epsilon_;  // (N, 1), used as |eps| + floor inside the sqrt
  nn::GruCell gru_;
  nn::Linear head_;
};

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_EXTREME_DEGREE_H_
