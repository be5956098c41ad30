#ifndef EALGAP_SERVE_ADAPTIVE_PREDICTOR_H_
#define EALGAP_SERVE_ADAPTIVE_PREDICTOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/neural.h"
#include "common/result.h"

namespace ealgap {
namespace serve {

/// Online test-time adaptation knobs. Every trigger, cooldown, and freeze
/// decision is driven by observed-step counters and per-region residual
/// state — virtual time only — so a replay with the same stream makes the
/// same adaptation decisions at any thread count.
struct AdaptOptions {
  // --- drift detector (per-region CUSUM over matched-stat residuals) ---
  /// CUSUM allowance: per-step slack, in matched-sigma units, subtracted
  /// from |z| before accumulating. Ordinary prediction error stays below
  /// it; sustained drift does not.
  double cusum_k = 1.0;
  /// CUSUM trip threshold: an adaptation is triggered when any region's
  /// accumulated excess residual exceeds this many sigma units.
  double cusum_h = 12.0;
  /// EWMA smoothing for the per-region |z| telemetry stream.
  double ewma_alpha = 0.05;
  /// Floor of the matched-sigma denominator (near-constant regions would
  /// otherwise turn count noise into huge z-scores).
  double sigma_floor = 1.0;

  // --- micro-fine-tune window ---
  /// Ring capacity of completed (observation-backfilled) samples.
  int window = 64;
  /// Held-out validation tail: the most recent `holdout` completed samples
  /// are never trained on; they decide commit vs rollback.
  int holdout = 8;
  /// No adaptation before the ring holds this many samples (must exceed
  /// `holdout` so the train split is non-empty).
  int min_window = 24;
  /// Observed steps that must pass between adaptation attempts.
  int cooldown = 32;
  NeuralForecaster::MicroFitConfig micro;

  // --- freeze + hysteresis ---
  /// Consecutive rolled-back attempts that trip the sticky freeze.
  int freeze_after = 3;
  /// Observed steps a freeze must age before one probe attempt is allowed;
  /// a failed probe re-arms the full cooldown, a committed probe unfreezes.
  int frozen_probe_after = 256;

  // --- shadow A/B harness ---
  /// Frozen-arm forward cadence (every Nth target step) once the adapted
  /// arm has diverged from the frozen one; 0 disables the shadow forward.
  /// Before the first commit the arms are identical and the frozen arm is
  /// scored from the adapted prediction at zero cost.
  int shadow_every = 1;
};

/// What one MaybeAdapt call did, for digest records and logs.
enum class AdaptOutcome {
  kNone = 0,       ///< no attempt (no trigger, cooldown, frozen, short ring)
  kCommitted = 1,  ///< validation improved; adapted weights are live
  kRejected = 2,   ///< validation did not improve; rolled back bit-exactly
  kNan = 3,        ///< non-finite validation loss; rolled back bit-exactly
  kError = 4,      ///< micro-fit/infra failure; rolled back bit-exactly
};

struct AdaptEvent {
  AdaptOutcome outcome = AdaptOutcome::kNone;
  bool froze = false;    ///< this attempt's failure tripped the freeze
  bool unfroze = false;  ///< this attempt was a successful frozen probe
};

/// Adaptation attribution, folded into the serve/daemon reports. The
/// conservation law mirrors the SLO report's: every attempt is a commit or
/// exactly one kind of rollback — UnattributedAdaptations() must be 0.
struct AdaptStats {
  int64_t steps = 0;      ///< model predictions served through the wrapper
  int64_t observed = 0;   ///< samples completed with a realized observation
  int64_t triggers = 0;   ///< CUSUM trips (one pending attempt each)
  int64_t attempts = 0;
  int64_t commits = 0;
  int64_t rollbacks_reject = 0;  ///< validation not improved (incl. injected)
  int64_t rollbacks_nan = 0;     ///< non-finite validation loss
  int64_t rollbacks_error = 0;   ///< micro-fit/infra failure
  int64_t freezes = 0;
  int64_t unfreezes = 0;         ///< successful probes out of a freeze
  int64_t shadow_forwards = 0;   ///< frozen-arm forwards actually run
  int64_t shadow_failures = 0;   ///< frozen-arm forwards that errored (skipped)
  bool frozen = false;
  double max_cusum = 0.0;        ///< largest per-region CUSUM value seen
  double last_val_before = 0.0;  ///< holdout loss before the last attempt
  double last_val_after = 0.0;   ///< holdout loss after the last attempt

  /// Shadow A/B accumulators: paired scores of both arms on the same
  /// realized observations. `pairs` counts scored steps, `values` scored
  /// (step, region) elements.
  int64_t pairs = 0;
  int64_t values = 0;
  double truth_sum = 0.0;
  double adapted_abs_err = 0.0;
  double frozen_abs_err = 0.0;
  double adapted_log_err = 0.0;  ///< sum |log2(pred+1) - log2(truth+1)|
  double frozen_log_err = 0.0;

  int64_t Rollbacks() const {
    return rollbacks_reject + rollbacks_nan + rollbacks_error;
  }
  int64_t UnattributedAdaptations() const {
    return attempts - commits - Rollbacks();
  }
  double AdaptedEr() const {
    return adapted_abs_err / (truth_sum > 1.0 ? truth_sum : 1.0);
  }
  double FrozenEr() const {
    return frozen_abs_err / (truth_sum > 1.0 ? truth_sum : 1.0);
  }
  double AdaptedMsle() const {
    return values > 0 ? adapted_log_err / static_cast<double>(values) : 0.0;
  }
  double FrozenMsle() const {
    return values > 0 ? frozen_log_err / static_cast<double>(values) : 0.0;
  }

  /// Folds another incarnation's counters in (daemon restart accounting;
  /// max/last fields take the newer incarnation's values when it saw any
  /// activity, sticky state is OR'd).
  void Accumulate(const AdaptStats& other);

  bool operator==(const AdaptStats&) const = default;
};

/// Test-time adaptation layer for the serving chain. Implements Forecaster
/// and wraps a fitted NeuralForecaster, so it slots between
/// ResilientPredictor/OnlinePredictor and the model:
///
///   ResilientPredictor -> OnlinePredictor -> AdaptivePredictor
///       -> NeuralForecaster
///
/// Serving path (PredictSampleInto): consecutive samples carry last step's
/// realized observation (`x[:, L-1]` of the next sample), so the wrapper
/// backfills its previous sample's target and matched stats, updates a
/// per-region EWMA/CUSUM drift detector on |pred - obs| / max(sigma,
/// floor), scores both A/B arms, and keeps the completed sample in a
/// bounded ring. All of it is input-determined: no clocks, no RNG.
///
/// Adaptation (MaybeAdapt) is deferred — the serving loop calls it OUTSIDE
/// the timed predict path (the daemon runs it single-threaded from the
/// supervisor phase) so a micro-fine-tune never eats a request's deadline
/// budget. An attempt snapshots the parameters (PR 5's capture path),
/// micro-fits on the ring minus a held-out tail, re-validates on the tail,
/// and commits only if the validation loss strictly improved — otherwise
/// the snapshot is restored bit-exactly. Repeated failures trip a sticky
/// freeze with probe-based hysteresis recovery.
///
/// Fault sites: serve.adapt.delay (attempt stall), serve.adapt.error
/// (micro-fit failure), serve.adapt.nan (poisoned validation loss),
/// serve.adapt.reject (forced validation rejection).
///
/// Single-stream, like OnlinePredictor: one wrapper serves one stream, and
/// MaybeAdapt must not run concurrently with PredictSampleInto (the daemon
/// phases them; the serve tool interleaves them on one thread).
class AdaptivePredictor : public Forecaster {
 public:
  /// `model` must be fitted and must outlive the wrapper.
  static Result<std::unique_ptr<AdaptivePredictor>> Create(
      NeuralForecaster* model, AdaptOptions options = {});

  std::string name() const override;
  bool SupportsStreaming() const override;

  Status Fit(const data::SlidingWindowDataset& dataset,
             const data::StepRanges& split, const TrainConfig& config) override;

  Result<std::vector<double>> Predict(const data::SlidingWindowDataset& dataset,
                                      int64_t target_step) override;

  Result<std::vector<double>> PredictSample(
      const data::WindowSample& sample) override;

  /// Serve step: backfill + detector update for the previous sample, then
  /// the wrapped forward, then the shadow frozen forward on cadence. The
  /// adapt ring's clones live on the heap (not the caller's arena), so
  /// adaptation mode trades the zero-allocation serve contract for the
  /// ring — by design.
  Status PredictSampleInto(const data::WindowSample& sample,
                           std::vector<double>* out) override;

  /// Runs at most one adaptation attempt if the detector has a pending
  /// trigger and every gate (ring fill, cooldown, freeze hysteresis)
  /// passes. Returns what happened; errors only on unrecoverable snapshot
  /// restore failure (the model would otherwise be corrupted).
  Result<AdaptEvent> MaybeAdapt();

  const AdaptStats& stats() const { return stats_; }
  const AdaptOptions& options() const { return options_; }
  bool frozen() const { return frozen_; }

  /// The wrapped model: it serves and is micro-fine-tuned.
  NeuralForecaster* model() { return model_; }

  /// Persists the detector + freeze state (CRC'd, atomic) so a restarted
  /// shard resumes its drift posture along with the adapted weights in the
  /// model checkpoint. The sample ring and the A/B baseline are per
  /// incarnation: a restart rebaselines the frozen arm to the reloaded
  /// (possibly adapted) weights.
  Status SaveState(const std::string& path) const;
  Status LoadState(const std::string& path);

 private:
  AdaptivePredictor(NeuralForecaster* model, AdaptOptions options);

  /// Backfills `pending_` from the next step's sample, updates the
  /// detector and A/B accumulators, and pushes it into the ring.
  void CompletePending(const data::WindowSample& next);
  void EnsureDetector(int64_t num_regions);
  /// Frozen-arm forward: swap in the frozen snapshot, run the float
  /// forward (its status lands in `forward`), swap the live parameters
  /// back. The returned status covers the swaps only — a swap failure is
  /// unrecoverable, a forward failure just skips this step's A/B pair.
  Status FrozenForward(const data::WindowSample& sample,
                       std::vector<double>* out, Status* forward);
  Result<AdaptEvent> RunAttempt();

  NeuralForecaster* model_;  // not owned
  AdaptOptions options_;

  AdaptStats stats_;
  bool frozen_ = false;
  bool probing_ = false;           ///< current attempt is a frozen probe
  int failed_streak_ = 0;
  bool pending_trigger_ = false;
  int64_t observed_since_attempt_ = 0;
  int64_t observed_since_freeze_ = 0;

  std::vector<double> ewma_;   ///< per-region EWMA of |z|
  std::vector<double> cusum_;  ///< per-region CUSUM of max(0, |z| - k)

  /// Completed samples, oldest first; heap-backed clones.
  std::deque<data::WindowSample> ring_;

  /// The last served sample awaiting its observation, plus both arms'
  /// predictions for it.
  data::WindowSample pending_;
  bool have_pending_ = false;
  std::vector<double> pending_adapted_;
  std::vector<double> pending_frozen_;
  bool pending_frozen_valid_ = false;
  bool diverged_at_pending_ = false;

  /// A/B parameter snapshots: frozen_ arm = weights at wrapper creation,
  /// live = weights after the latest commit. `diverged_` flips on the
  /// first commit; until then the arms are identical and no shadow
  /// forward runs.
  std::map<std::string, Tensor> frozen_params_;
  std::map<std::string, Tensor> live_params_;
  bool diverged_ = false;

  std::vector<double> shadow_buf_;
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_ADAPTIVE_PREDICTOR_H_
