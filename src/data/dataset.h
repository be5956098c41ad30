#ifndef EALGAP_DATA_DATASET_H_
#define EALGAP_DATA_DATASET_H_

#include <vector>

#include "common/result.h"
#include "data/aggregate.h"
#include "data/window.h"
#include "tensor/tensor.h"

namespace ealgap {
namespace data {

/// Produces EALGAP-ready samples from a MobilitySeries.
///
/// On construction it precomputes, for every (region, step), the mean and
/// standard deviation over {the step itself and the `norm_history` previous
/// records at the same time step of day on the same day type
/// (weekday/weekend)} — the temporally-matched statistics of the paper's
/// Eq. (9), which avoid flagging rush hours as extremes.
class SlidingWindowDataset {
 public:
  /// An empty dataset; only valid as an assignment target for Create().
  SlidingWindowDataset() = default;

  static Result<SlidingWindowDataset> Create(MobilitySeries series,
                                             DatasetOptions options);

  /// Smallest target step with fully in-range windows and meaningful
  /// normalization statistics.
  int64_t MinTargetStep() const { return geometry().min_target_step(); }

  /// Valid target steps in [begin, end) (clamped to the feasible range).
  std::vector<int64_t> TargetSteps(int64_t begin, int64_t end) const;

  /// Builds the sample predicting step `target_step`. Requires
  /// target_step in [MinTargetStep(), total_steps).
  WindowSample MakeSample(int64_t target_step) const;

  /// Deep copy (fresh tensor storage). Use before OverwriteStep so the
  /// original stays intact.
  SlidingWindowDataset Clone() const;

  /// Replaces the counts of every region at `step` and refreshes the
  /// matched statistics that depend on that value (same hour of day, at
  /// and after `step`). Enables recursive multi-step rollout: write the
  /// model's own prediction, then predict the next step.
  Status OverwriteStep(int64_t step, const std::vector<double>& values);

  const MobilitySeries& series() const { return series_; }
  const DatasetOptions& options() const { return options_; }
  /// The series' calendar with the options: which steps a sample reads.
  WindowGeometry geometry() const { return {series_, options_}; }
  /// Precomputed per-(region, step) matched statistics.
  const Tensor& mu() const { return mu_; }
  const Tensor& sigma() const { return sigma_; }

  /// Counts and matched statistics of every step as a step-row source
  /// (data/window.h): what MakeSample reads and serve::OnlinePredictor
  /// seeds its ring and accumulators from.
  SeriesRows step_rows() const {
    return {series_.counts.data(), mu_.data(), sigma_.data(),
            series_.total_steps()};
  }

  /// Dense per-region counts of one step. Requires step in
  /// [0, total_steps).
  std::vector<float> StepCounts(int64_t step) const;

 private:
  /// Recomputes mu_/sigma_ for all regions at one step; `rows` is scratch
  /// for norm_history + 1 row pointers.
  void RefreshMatchedStats(int64_t step, std::vector<const float*>* rows);

  MobilitySeries series_;
  DatasetOptions options_;
  Tensor mu_;     // (N, total_steps)
  Tensor sigma_;  // (N, total_steps)
};

/// Chronological split of target steps following the paper: the last 15
/// days are held out — 5 for validation, 10 for testing — and everything
/// before is training.
struct SplitSpec {
  int val_days = 5;
  int test_days = 10;
};

struct StepRanges {
  int64_t train_begin = 0, train_end = 0;
  int64_t val_begin = 0, val_end = 0;
  int64_t test_begin = 0, test_end = 0;
};

Result<StepRanges> MakeChronoSplit(const SlidingWindowDataset& dataset,
                                   const SplitSpec& spec = {});

}  // namespace data
}  // namespace ealgap

#endif  // EALGAP_DATA_DATASET_H_
