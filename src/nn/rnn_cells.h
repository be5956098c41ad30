#ifndef EALGAP_NN_RNN_CELLS_H_
#define EALGAP_NN_RNN_CELLS_H_

#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace nn {

/// Vanilla recurrent cell: h' = tanh(x W + h U + b).
class RnnCell : public Module {
 public:
  RnnCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  /// x: (B, input), h: (B, hidden) -> (B, hidden).
  Var Forward(const Var& x, const Var& h) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Linear ih_;  // input -> hidden (with bias)
  Linear hh_;  // hidden -> hidden (no bias)
};

/// Gated Recurrent Unit cell (Cho et al. 2014):
///   z = sigmoid(x Wz + h Uz + bz)
///   r = sigmoid(x Wr + h Ur + br)
///   n = tanh(x Wn + (r .* h) Un + bn)
///   h' = (1 - z) .* h + z .* n
class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  /// x: (B, input), h: (B, hidden) -> (B, hidden).
  Var Forward(const Var& x, const Var& h) const;

  /// No-grad Forward() in lanes layout (Linear::ForwardLanes): x is
  /// (input, lanes), h is (hidden, lanes) and is overwritten with h'.
  /// Bit-identical to Forward() on the transposed batch. `scratch` holds
  /// StepLanesScratch(lanes) floats.
  void StepLanes(const float* x, int64_t lanes, float* h,
                 float* scratch) const;
  int64_t StepLanesScratch(int64_t lanes) const {
    return 4 * hidden_size_ * lanes;
  }

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Linear iz_, hz_;
  Linear ir_, hr_;
  Linear in_, hn_;
};

/// Long Short-Term Memory cell with forget-gate bias initialized to 1.
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  struct State {
    Var h;
    Var c;
  };

  /// x: (B, input), state {h, c}: (B, hidden) each.
  State Forward(const Var& x, const State& state) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Linear ii_, hi_;  // input gate
  Linear if_, hf_;  // forget gate
  Linear ig_, hg_;  // candidate
  Linear io_, ho_;  // output gate
};

/// Zero hidden state of shape (batch, hidden).
Var ZeroState(int64_t batch, int64_t hidden);

/// Unrolls a cell over a sequence. `steps[t]` is the (B, input) slice at
/// time t; returns the final hidden state (B, hidden).
Var RunRnn(const RnnCell& cell, const std::vector<Var>& steps, Var h);
Var RunGru(const GruCell& cell, const std::vector<Var>& steps, Var h);
Var RunLstm(const LstmCell& cell, const std::vector<Var>& steps,
            LstmCell::State state);

}  // namespace nn
}  // namespace ealgap

#endif  // EALGAP_NN_RNN_CELLS_H_
