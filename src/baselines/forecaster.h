#ifndef EALGAP_BASELINES_FORECASTER_H_
#define EALGAP_BASELINES_FORECASTER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace ealgap {

/// Training hyper-parameters shared by every learned forecaster.
struct TrainConfig {
  int epochs = 30;
  float learning_rate = 2e-4f;  // the paper's 0.0002
  int batch_size = 16;          // samples per step (each sample = N regions)
  int patience = 6;             // early-stop epochs without val improvement
  float grad_clip = 5.f;
  uint64_t seed = 7;
  bool verbose = false;

  // --- crash-safe checkpointing (NeuralForecaster only) ---
  /// Path of the atomic train-state record (params, optimizer moments, RNG
  /// stream, counters, best-val snapshot). Empty disables
  /// checkpointing entirely.
  std::string checkpoint_path;
  /// Write the train state every this many completed epochs (requires
  /// checkpoint_path). 0 disables periodic snapshots.
  int checkpoint_every = 0;
  /// Continue from checkpoint_path when it exists: the run resumes
  /// bit-identically to the uninterrupted one. A missing file starts
  /// fresh; a corrupt one is a hard error (never a silent restart).
  bool resume = false;

  // --- divergence sentinel ---
  /// A non-finite loss or gradient norm rolls training back to the last
  /// good epoch boundary with the learning rate multiplied by
  /// `rollback_lr_backoff`; after `max_rollbacks` such events Fit gives up
  /// with an error instead of producing garbage.
  int max_rollbacks = 3;
  float rollback_lr_backoff = 0.5f;
};

/// Attribution of what training actually did — rollbacks taken, epochs
/// retried, steps discarded — so a recovered-from divergence is visible
/// instead of silently absorbed. Filled by NeuralForecaster::Fit.
struct TrainStats {
  int64_t epochs_completed = 0;  ///< epochs finished (incl. before resume)
  int64_t steps = 0;             ///< optimizer steps applied and kept
  int64_t rollbacks = 0;         ///< divergence events that restored state
  int64_t retries = 0;           ///< epoch attempts beyond the first
  int64_t skipped_steps = 0;     ///< steps discarded by rollbacks
  int64_t checkpoints_written = 0;  ///< train-state snapshots persisted
  int64_t resumed_epoch = -1;    ///< epoch a resume continued from; -1=fresh
  float final_lr = 0.f;          ///< learning rate after any backoffs
};

/// Common interface of EALGAP and all baselines: fit on the chronological
/// training range, then produce the next-step citywide prediction for any
/// target step.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Scheme name as it appears in the paper's tables ("GRU", "ST-Norm", ...).
  virtual std::string name() const = 0;

  /// Trains on `split.train_*` using `split.val_*` for early stopping.
  virtual Status Fit(const data::SlidingWindowDataset& dataset,
                     const data::StepRanges& split,
                     const TrainConfig& config) = 0;

  /// Predicts X[:, target_step] (one value per region). Requires Fit().
  virtual Result<std::vector<double>> Predict(
      const data::SlidingWindowDataset& dataset, int64_t target_step) = 0;

  /// True when the forecaster can predict from a self-contained
  /// WindowSample (no dataset attached) — the contract serve::OnlinePredictor
  /// relies on. Forecasters that read arbitrary history beyond the sample
  /// (ST-ResNet, CHAT) or bypass windows entirely (ARIMA, HA) return false.
  virtual bool SupportsStreaming() const { return false; }

  /// Predicts from one assembled sample. Unlike Predict(), this reads no
  /// shared forecaster state besides the (const) fitted parameters, so
  /// concurrent calls from different threads are safe. Default:
  /// NotImplemented (see SupportsStreaming()).
  virtual Result<std::vector<double>> PredictSample(
      const data::WindowSample& sample);

  /// PredictSample() into a caller-owned buffer: `out` is resized to one
  /// value per region and overwritten, so a caller that reuses the same
  /// vector pays no steady-state allocation (serve::OnlinePredictor's
  /// zero-allocation contract). The default wraps PredictSample() and
  /// copies; allocation-free forecasters override both coherently.
  virtual Status PredictSampleInto(const data::WindowSample& sample,
                                   std::vector<double>* out);

  /// Convenience: predictions and truths flattened over [begin, end),
  /// ready for stats::ComputeMetrics.
  Status PredictRange(const data::SlidingWindowDataset& dataset,
                      int64_t begin, int64_t end,
                      std::vector<double>* predictions,
                      std::vector<double>* truths);
};

}  // namespace ealgap

#endif  // EALGAP_BASELINES_FORECASTER_H_
