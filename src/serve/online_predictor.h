#ifndef EALGAP_SERVE_ONLINE_PREDICTOR_H_
#define EALGAP_SERVE_ONLINE_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/forecaster.h"
#include "common/aligned_alloc.h"
#include "common/arena.h"
#include "common/result.h"
#include "data/dataset.h"

namespace ealgap {
namespace serve {

/// How an input guard repairs invalid observed values or stream gaps.
///  * kReject:   refuse the observation with a Status error; state unchanged.
///  * kHoldLast: substitute the region's most recent accepted value.
///  * kImpute:   substitute the matched same-slot mean — the average of the
///               `norm_history` most recent observations at the same
///               (time-of-day, day-type) slot, the mu accumulator Observe()
///               already maintains. Falls back to hold-last when the slot
///               is empty.
enum class RepairPolicy { kReject, kHoldLast, kImpute };

/// Maps "reject" / "hold-last" / "impute" to a RepairPolicy (tool flags).
Result<RepairPolicy> ParseRepairPolicy(const std::string& name);
const char* RepairPolicyName(RepairPolicy policy);

/// Input-guard configuration for OnlinePredictor::Observe/ObserveAt.
/// The default rejects everything invalid — bit-for-bit compatible with
/// the unguarded behavior on clean feeds.
struct GuardPolicy {
  RepairPolicy on_bad_value = RepairPolicy::kReject;  ///< NaN/Inf/negative
  RepairPolicy on_gap = RepairPolicy::kReject;        ///< missing steps
  /// Gaps longer than this are rejected regardless of on_gap: synthesizing
  /// a day of data would only launder the outage into the statistics.
  int64_t max_gap_steps = 24;
};

/// Guard observability. Counters are process-local diagnostics: SaveState
/// does not persist them and LoadState starts them at zero.
struct GuardStats {
  int64_t repaired_values = 0;        ///< individual region values replaced
  int64_t repaired_steps = 0;         ///< accepted steps with >=1 repair
  int64_t gap_steps_filled = 0;       ///< synthesized missing steps
  int64_t rejected_observations = 0;  ///< Observe/ObserveAt calls refused
  /// Per-region quarantine counters: how many times each region's value
  /// needed repair. A hot region here means a sensor needs attention.
  std::vector<int64_t> quarantine;

  /// Folds another incarnation's counters in (shard restart accounting);
  /// `quarantine` grows to the longer of the two.
  void Accumulate(const GuardStats& other);

  bool operator==(const GuardStats&) const = default;
};

/// Streaming next-step prediction around a fitted Forecaster.
///
/// The batch pipeline re-walks a SlidingWindowDataset on every call: the
/// matched instance-norm statistics mu/sigma (Eq. 9) and the exponential-MLE
/// inputs of the global module (Eq. 3-4) are recomputed from raw history.
/// OnlinePredictor instead keeps per-region incremental state:
///
///  * a ring buffer of the last W = T*(M-1) + L observed steps (values plus
///    their matched statistics) — everything a WindowSample reads,
///  * per-(time-of-day, day-type) matched-statistic accumulators holding the
///    `norm_history` most recent same-slot observations, so Observe()
///    refreshes mu/sigma in O(norm_history) work per region — independent of
///    stream length — through data::MatchedMoments, the dataset's kernel,
///  * a rolling per-region sum over the live L-window, giving an O(1)
///    refresh of the exponential MLE rate (lambda = L / sum) that the serve
///    tool reports as a drift diagnostic.
///
/// PredictNext() assembles its sample from the ring with
/// data::AssembleWindowSample, the function MakeSample() calls, and runs
/// the model's sample path, so streaming predictions are bit-identical to
/// the batch pipeline (asserted by tests/serve_parity_test.cc, which also
/// covers the SaveState/LoadState mid-stream checkpoint boundary and
/// thread-count invariance).
///
/// Memory substrate (DESIGN.md §8e): every per-step buffer lives in
/// pre-sized aligned storage — the ring buffers and the flattened slot
/// accumulator use 64-byte-aligned blocks, row scratch is member-owned, and
/// the model forward runs under this predictor's Arena — so steady-state
/// Observe/ObserveAt/PredictNextInto perform ZERO heap allocations (after a
/// one-step warm-up that sizes the arena), asserted by
/// tests/alloc_guard_test.cc.
///
/// Real feeds degrade: Observe() validates every incoming count
/// (NaN/Inf/negative/wrong length) and ObserveAt() additionally detects
/// stream gaps, repairing either per the configured GuardPolicy; guard_stats()
/// exposes per-region quarantine counters. The matched-mean / recent-mean /
/// persistence accessors feed serve::ResilientPredictor's degradation chain.
class OnlinePredictor {
 public:
  /// Wraps a fitted, streaming-capable `model` (not owned; must outlive the
  /// predictor) and seeds the incremental state from the first
  /// `history_end` steps of `history`. Requires
  /// history_end >= history.MinTargetStep() (so the first PredictNext() has
  /// full windows) and history_end <= total steps.
  static Result<OnlinePredictor> Create(
      Forecaster* model, const data::SlidingWindowDataset& history,
      int64_t history_end);

  /// Appends one observed step (one count per region) and refreshes the
  /// incremental state: ring buffer, matched statistics, rolling MLE sum.
  /// Non-finite or negative counts are repaired per guard_policy(); a
  /// wrong-length row is always rejected (there is nothing to repair).
  Status Observe(const std::vector<double>& counts);

  /// Observe() with explicit stream position, for feeds that can skip:
  /// `step` is the step `counts` was measured at. step == next_step() is a
  /// plain Observe; an older step is rejected as stale; a newer step is a
  /// gap, and the missing steps are synthesized per guard_policy().on_gap
  /// (or rejected) before `counts` is applied.
  Status ObserveAt(int64_t step, const std::vector<double>& counts);

  /// Predicts the next unobserved step (index next_step()) from the
  /// incremental state. Does not advance the stream: call Observe() with
  /// the realized (or, for rollout, the predicted) counts afterwards.
  Result<std::vector<double>> PredictNext();

  /// PredictNext() into a caller-owned buffer (resized to num_regions()).
  /// The sample tensors and the whole model forward run on this
  /// predictor's arena and are rewound before returning, so a caller that
  /// reuses `out` pays zero heap allocations per step.
  Status PredictNextInto(std::vector<double>* out);

  /// Batched prediction for concurrent requests: fans the predictors out
  /// over the process thread pool. Slot i of the result corresponds to
  /// predictors[i]; results are bit-identical to calling PredictNext() on
  /// each predictor serially, for any thread count. Predictors may share
  /// one model: the sample path reads only fitted parameters.
  static std::vector<Result<std::vector<double>>> PredictMany(
      const std::vector<OnlinePredictor*>& predictors);

  /// PredictMany() into caller-owned buffers: statuses/outs are resized to
  /// predictors.size() and slot i is overwritten in place. With reused
  /// buffers the steady state allocates nothing (each predictor's forward
  /// runs on its own arena; the pool dispatch is allocation-free).
  static void PredictManyInto(const std::vector<OnlinePredictor*>& predictors,
                              std::vector<Status>* statuses,
                              std::vector<std::vector<double>>* outs);

  /// Index of the step PredictNext() predicts (== number of steps the
  /// stream has, counted from the seed dataset's origin).
  int64_t next_step() const { return next_step_; }
  int num_regions() const { return num_regions_; }

  void SetGuardPolicy(const GuardPolicy& policy) { guard_policy_ = policy; }
  const GuardPolicy& guard_policy() const { return guard_policy_; }
  const GuardStats& guard_stats() const { return guard_stats_; }

  /// Model-free fallback predictions for the degradation chain, all
  /// computed from already-maintained incremental state:
  ///  * MatchedMeanNext: the matched same-slot mean for next_step() — the
  ///    strongest model-free estimate (time-of-day + day-type aware).
  ///  * RecentMeanNext: per-region mean over the live L-window (the same
  ///    statistic behind ExponentialRate) — calendar-free, tracks level.
  ///  * LastObserved: persistence — the final, always-available resort.
  /// MatchedMeanNext falls back per-region to LastObserved when a slot has
  /// no history yet, so every accessor returns finite values. The *Into
  /// variants overwrite a caller-owned buffer (zero-allocation serving);
  /// the value-returning forms are conveniences that wrap them.
  std::vector<double> MatchedMeanNext() const;
  std::vector<double> RecentMeanNext() const;
  std::vector<double> LastObserved() const;
  void MatchedMeanNextInto(std::vector<double>* out) const;
  void RecentMeanNextInto(std::vector<double>* out) const;
  void LastObservedInto(std::vector<double>* out) const;

  /// O(1)-maintained exponential-MLE rate lambda = 1/mean over the region's
  /// live L-window (the Eq. 3 fit the global module recomputes internally);
  /// exposed as a serving-time drift diagnostic.
  double ExponentialRate(int region) const;

  /// This predictor's scratch arena (sizing/diagnostics; tests read the
  /// high-water mark).
  const Arena* arena() const { return arena_.get(); }

  /// Serializes the incremental state (ring, accumulators, calendar) to a
  /// "serve-state" record file (common/record_io.h), CRC'd per section and
  /// written atomically, so a crash mid-save can never leave a torn file.
  /// Together with the model's SaveCheckpoint this makes a serving node
  /// restartable mid-stream with bit-identical predictions.
  Status SaveState(const std::string& path) const;

  /// Restores a predictor saved by SaveState around `model` (not owned),
  /// which must already be fitted/loaded and report SupportsStreaming().
  /// Corrupted, truncated, or checksum-mismatched files yield a Status
  /// error, never a crash. Guard counters restart at zero.
  static Result<OnlinePredictor> LoadState(const std::string& path,
                                           Forecaster* model);

 private:
  OnlinePredictor() = default;

  /// The ring as a step-row source for data::AssembleWindowSample.
  struct RingRows;

  /// Ring slot of step s (valid while next_step_ - W <= s < next_step_).
  int64_t RingIndex(int64_t s) const { return (s % window_span_) * num_regions_; }

  // --- flattened matched-statistic accumulator -----------------------------
  // slot_data_ holds 2T circular slots (data::StepCalendar::MatchedSlot) of
  // up to norm_history rows of N floats each, in one aligned block: row j
  // of slot i lives at slot_data_[(i * norm_history + j) * N].
  // slot_head_[i]/slot_count_[i] give the circular window; SlotRowNewest
  // feeds data::MatchedMoments newest first, and SlotRowOldest gives the
  // imputation mean its oldest-first order.
  const float* SlotRowNewest(int slot, int k) const {
    const int nh = geometry_.options.norm_history;
    const int idx = (slot_head_[slot] + slot_count_[slot] - 1 - k + nh) % nh;
    return slot_data_.data() + (static_cast<int64_t>(slot) * nh + idx) *
                                   num_regions_;
  }
  const float* SlotRowOldest(int slot, int j) const {
    const int nh = geometry_.options.norm_history;
    const int idx = (slot_head_[slot] + j) % nh;
    return slot_data_.data() + (static_cast<int64_t>(slot) * nh + idx) *
                                   num_regions_;
  }
  /// Appends a row to the slot's circular window, evicting the oldest when
  /// the window is full. Equivalent to push_back + erase(begin()) of the
  /// old nested-vector representation, without touching the heap.
  void SlotPush(int slot, const float* row);
  /// Allocates/zeroes the flattened slot storage for the current geometry.
  void InitSlotStorage();

  /// Pre-sizes the member scratch rows and the arena so the steady state
  /// allocates nothing.
  void InitScratch();

  /// Matched same-slot mean of region r at step s (prior observations
  /// only), or the hold-last value when the slot is empty.
  float SlotMeanOrHold(int64_t s, int r) const;
  /// The region's most recent accepted value (ring row of next_step_ - 1).
  float HoldLastValue(int r) const;
  /// Validates/repairs `counts` into a float row per guard_policy().
  Status GuardRow(const std::vector<double>& counts,
                  std::vector<float>* x_row);
  /// Core Observe body: advances all incremental state with a clean row.
  Status ObserveRow(const std::vector<float>& x_row);

  Forecaster* model_ = nullptr;  // not owned

  // Stream geometry/calendar (copied from the seed dataset).
  data::WindowGeometry geometry_;
  int num_regions_ = 0;
  int64_t window_span_ = 0;  ///< geometry_.span(), the ring capacity in steps
  int64_t next_step_ = 0;    ///< first unobserved step

  // Ring buffers over the last W steps; slot (s % W) holds step s's rows.
  // Aligned so kernel reads of whole rows can take the aligned fast path.
  AlignedBuffer<float> ring_x_, ring_mu_, ring_sigma_;  // each W * N

  // Flattened matched-statistic accumulator (see SlotRow* above).
  AlignedBuffer<float> slot_data_;  // [2T * norm_history * N]
  std::vector<int> slot_head_;     // oldest row index per slot
  std::vector<int> slot_count_;    // valid rows per slot (<= norm_history)

  // Rolling sum over the live L-window per region (exponential MLE state).
  std::vector<double> window_sum_;

  // Member scratch rows (pre-sized; never reallocated in steady state).
  std::vector<float> scratch_x_, scratch_mu_, scratch_sigma_, scratch_synth_;
  /// Scratch for the row pointers ObserveRow hands data::MatchedMoments:
  /// the new row, then up to norm_history slot rows.
  std::vector<const float*> slot_rows_;

  /// Per-predictor scratch arena: every tensor and autograd node of a
  /// PredictNextInto forward lands here and is rewound when the call
  /// returns.
  std::unique_ptr<Arena> arena_;

  GuardPolicy guard_policy_;
  GuardStats guard_stats_;
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_ONLINE_PREDICTOR_H_
