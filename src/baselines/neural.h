#ifndef EALGAP_BASELINES_NEURAL_H_
#define EALGAP_BASELINES_NEURAL_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/forecaster.h"
#include "common/rng.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"

namespace ealgap {

/// Ordered key/value pairs a forecaster echoes into its checkpoint's
/// `config` section.
using CheckpointConfig = std::vector<std::pair<std::string, std::string>>;

/// Shared skeleton for every gradient-trained forecaster (the recurrent
/// family, ST-Norm, ST-ResNet, EVL, CHAT, and EALGAP itself).
///
/// Subclasses implement the model pieces; this class owns the loop:
/// shuffled mini-batches, Adam, gradient clipping, early stopping on the
/// validation range, and restoring the best-validation parameters.
class NeuralForecaster : public Forecaster {
 public:
  Status Fit(const data::SlidingWindowDataset& dataset,
             const data::StepRanges& split, const TrainConfig& config) final;

  Result<std::vector<double>> Predict(const data::SlidingWindowDataset& dataset,
                                      int64_t target_step) final;

  /// Every gradient-trained forecaster predicts from a bare sample unless a
  /// subclass (ST-ResNet, CHAT) needs dataset-wide history and opts out.
  bool SupportsStreaming() const override { return true; }

  /// Bit-identical to Predict() on the sample MakeSample would build, but
  /// touches no mutable forecaster state: safe to call concurrently.
  Result<std::vector<double>> PredictSample(
      const data::WindowSample& sample) override;

  /// The real sample-path body: runs the forward pass into `out` (resized,
  /// capacity reused) through thread-local batch scratch, so the steady
  /// state allocates nothing — tensors and graph nodes land on the ambient
  /// arena when serve installed one. PredictSample() wraps this.
  Status PredictSampleInto(const data::WindowSample& sample,
                           std::vector<double>* out) override;

  /// Writes a "checkpoint" record (common/record_io.h) with sections
  /// `model` (name), `config` (the EncodeConfig key/value echo) and
  /// `params` (every parameter). Requires Fit() or LoadCheckpoint() first.
  Status SaveCheckpoint(const std::string& path);

  /// Restores a forecaster from SaveCheckpoint output without a Fit() call:
  /// verifies the record, checks the model name, rebuilds the network from
  /// the config echo (DecodeConfig), and loads the parameters with shape
  /// validation. A corrupted, truncated, or mismatched file yields a Status
  /// error and leaves the fitted flag untouched.
  Status LoadCheckpoint(const std::string& path);

  /// The model name a SaveCheckpoint file was written for (the file's
  /// framing is verified first), so a caller can pick the forecaster type
  /// before calling LoadCheckpoint.
  static Result<std::string> CheckpointModelName(const std::string& path);

  /// Bounded online fine-tune knobs (serve::AdaptivePredictor). Plain SGD,
  /// deliberately: a micro-fit leaves no optimizer moments behind, so
  /// RestoreParams alone rolls the model back bit-exactly.
  struct MicroFitConfig {
    int steps = 4;             ///< SGD steps per adaptation attempt
    int batch_size = 8;        ///< samples per step (cycled in order)
    float learning_rate = 1e-3f;
    float grad_clip = 1.0f;
  };

  /// Snapshot of every module parameter (name -> cloned tensor), the same
  /// capture path Fit's divergence rollback uses. Requires a fitted model.
  Result<std::map<std::string, Tensor>> CaptureParams();

  /// Bit-exact restore of a CaptureParams snapshot (nn::ApplyParameters:
  /// names and shapes validated, bytes copied).
  Status RestoreParams(const std::map<std::string, Tensor>& params);

  /// Mean model-space loss over `samples`, batched serially in order with
  /// gradients off — deterministic for a fixed parameter state regardless
  /// of thread count. Requires a fitted model and a non-empty sample set.
  Result<double> EvaluateSamplesLoss(
      const std::vector<data::WindowSample>& samples, int batch_size);

  /// Bounded SGD fine-tune on `samples` (cycled in order): the Fit train
  /// step body — forward, scaled-target loss, backward, clip, step — minus
  /// Adam, shuffling, and early stopping. Fails (leaving the caller to
  /// RestoreParams) on a non-finite loss or gradient norm.
  Status MicroFit(const std::vector<data::WindowSample>& samples,
                  const MicroFitConfig& config);

  /// Mean validation loss of the best epoch (for diagnostics).
  double best_validation_loss() const { return best_val_loss_; }
  /// Wall-clock milliseconds of one average optimization step.
  double mean_step_ms() const { return mean_step_ms_; }
  /// Attribution of the most recent Fit: rollbacks, retries, skipped
  /// steps, checkpoints written, resume point.
  const TrainStats& train_stats() const { return train_stats_; }

 protected:
  /// Builds modules and fits scalers; called once at the start of Fit.
  virtual void Initialize(const data::SlidingWindowDataset& dataset,
                          const data::StepRanges& split,
                          const TrainConfig& config) = 0;

  /// Model-space predictions for a batch, shape (B, N).
  virtual Var ForwardBatch(const std::vector<data::WindowSample>& batch) = 0;

  /// Converts raw count targets (B, N) to model space.
  virtual Tensor ScaleTargets(const Tensor& targets) const = 0;

  /// Converts model-space predictions (B, N) back to counts, clamped >= 0.
  virtual Tensor InverseScale(const Tensor& predictions) const = 0;

  /// Training loss; defaults to MSE in model space.
  virtual Var ComputeLoss(const Var& predictions, const Tensor& scaled_targets);

  /// The module whose parameters are optimized.
  virtual nn::Module* module() = 0;

  /// Checkpoint hooks. EncodeConfig appends everything DecodeConfig needs
  /// to rebuild the network and scalers without a dataset (options, input
  /// dims, scaler state); DecodeConfig validates the echoed values and
  /// reconstructs the model. Defaults return NotImplemented, which makes
  /// SaveCheckpoint/LoadCheckpoint report the forecaster as
  /// non-checkpointable instead of writing a half-restorable file.
  virtual Status EncodeConfig(CheckpointConfig* config) const;
  virtual Status DecodeConfig(const std::map<std::string, std::string>& config);

  /// Range-checked lookups for DecodeConfig implementations: missing keys,
  /// unparseable values, and out-of-range numbers all become Status errors.
  static Status ConfigInt(const std::map<std::string, std::string>& config,
                          const std::string& key, int64_t lo, int64_t hi,
                          int64_t* out);
  static Status ConfigFloat(const std::map<std::string, std::string>& config,
                            const std::string& key, float* out);

  /// The dataset of the in-flight Fit/Predict call; valid inside
  /// ForwardBatch for forecasters (ST-ResNet) that need more history than
  /// a WindowSample carries.
  const data::SlidingWindowDataset* current_dataset() const {
    return current_dataset_;
  }

  /// Everything Fit needs to continue from an epoch boundary: parameters,
  /// optimizer moments, the RNG stream, loop counters, the best-validation
  /// snapshot, and the attribution stats. One struct serves both the
  /// in-memory divergence-rollback target and the on-disk train state, so
  /// "roll back" and "resume" are the same restore path.
  struct TrainSnapshot {
    int epoch = 0;  ///< next epoch to run (== epochs completed)
    float lr = 0.f;
    double best_val = 1e300;
    int bad_epochs = 0;
    int64_t total_steps = 0;
    double total_step_ms = 0.0;
    RngState rng;
    /// Train-step visit order. The per-epoch shuffle permutes this vector
    /// in place, so the epoch-N order depends on every earlier shuffle — it
    /// is loop state, and a bit-identical resume must restore it along
    /// with the RNG stream.
    std::vector<int64_t> order;
    std::map<std::string, Tensor> params;
    int64_t adam_t = 0;
    std::vector<Tensor> adam_m, adam_v;
    std::map<std::string, Tensor> best_params;  ///< empty: no best epoch yet
    TrainStats stats;
  };

  /// Atomic train-state record (see neural.cc for its sections): saves
  /// `snap`, or restores it with full validation (model name, field
  /// ranges, shapes, Adam moment pairing). Fit's resume path calls these.
  Status SaveTrainState(const std::string& path, const TrainSnapshot& snap);
  Status LoadTrainState(const std::string& path, TrainSnapshot* snap);

 private:

  const data::SlidingWindowDataset* current_dataset_ = nullptr;
  Tensor StackTargets(const std::vector<data::WindowSample>& batch) const;
  /// Mean loss over `steps`, fanned out across the pool. The first error —
  /// an injected fault or a non-finite batch loss — wins deterministically
  /// by lowest batch index, regardless of which pool thread hit it.
  Result<double> EvaluateLoss(const data::SlidingWindowDataset& dataset,
                              const std::vector<int64_t>& steps,
                              int batch_size);

  bool fitted_ = false;
  double best_val_loss_ = 0.0;
  double mean_step_ms_ = 0.0;
  TrainStats train_stats_;
};

}  // namespace ealgap

#endif  // EALGAP_BASELINES_NEURAL_H_
