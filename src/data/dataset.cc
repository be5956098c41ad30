#include "data/dataset.h"

#include <algorithm>

#include "common/logging.h"

namespace ealgap {
namespace data {

Result<SlidingWindowDataset> SlidingWindowDataset::Create(
    MobilitySeries series, DatasetOptions options) {
  if (options.history_length < 1 || options.num_windows < 1 ||
      options.norm_history < 1) {
    return Status::InvalidArgument("dataset options must be >= 1");
  }
  if (!series.counts.defined() || series.num_regions <= 0) {
    return Status::InvalidArgument("empty mobility series");
  }
  SlidingWindowDataset ds;
  ds.series_ = std::move(series);
  ds.options_ = options;

  const int n = ds.series_.num_regions;
  const int64_t steps = ds.series_.total_steps();
  ds.mu_ = Tensor::Zeros({n, steps});
  ds.sigma_ = Tensor::Zeros({n, steps});
  std::vector<const float*> rows(options.norm_history + 1);
  for (int64_t s = 0; s < steps; ++s) ds.RefreshMatchedStats(s, &rows);
  return ds;
}

void SlidingWindowDataset::RefreshMatchedStats(
    int64_t s, std::vector<const float*>* rows) {
  const int64_t steps = series_.total_steps();
  const float* x = series_.counts.data();
  int count = 0;
  (*rows)[count++] = x + s;
  series_.ForEachMatchedStep(s, options_.norm_history, [&](int64_t back) {
    (*rows)[count++] = x + back;
  });
  MatchedMoments(rows->data(), count, steps, series_.num_regions,
                 mu_.data() + s, sigma_.data() + s, steps);
}

SlidingWindowDataset SlidingWindowDataset::Clone() const {
  SlidingWindowDataset out;
  out.series_ = series_;
  out.series_.counts = series_.counts.Clone();
  out.options_ = options_;
  out.mu_ = mu_.Clone();
  out.sigma_ = sigma_.Clone();
  return out;
}

Status SlidingWindowDataset::OverwriteStep(int64_t step,
                                           const std::vector<double>& values) {
  const int n = series_.num_regions;
  if (step < 0 || step >= series_.total_steps()) {
    return Status::OutOfRange("step out of range");
  }
  if (static_cast<int>(values.size()) != n) {
    return Status::InvalidArgument("expected one value per region");
  }
  float* x = series_.counts.data();
  const int64_t steps = series_.total_steps();
  for (int r = 0; r < n; ++r) {
    x[r * steps + step] = static_cast<float>(values[r]);
  }
  // Matched stats at this step and at later same-hour steps that include
  // it in their history window. Walking forward a generous number of days
  // (history + weekend bridging) covers every dependent step.
  const int t_day = series_.steps_per_day;
  const int64_t horizon =
      static_cast<int64_t>(2 * (options_.norm_history + 2)) * t_day;
  std::vector<const float*> rows(options_.norm_history + 1);
  for (int64_t s = step; s < std::min(steps, step + horizon + 1);
       s += t_day) {
    RefreshMatchedStats(s, &rows);
  }
  return Status::OK();
}

std::vector<float> SlidingWindowDataset::StepCounts(int64_t step) const {
  EALGAP_CHECK_GE(step, 0);
  EALGAP_CHECK_LT(step, series_.total_steps());
  std::vector<float> out(series_.num_regions);
  CopyRegions(series_.counts.data() + step, series_.total_steps(), out.data(),
              1, series_.num_regions);
  return out;
}

std::vector<int64_t> SlidingWindowDataset::TargetSteps(int64_t begin,
                                                       int64_t end) const {
  begin = std::max(begin, MinTargetStep());
  end = std::min(end, series_.total_steps());
  std::vector<int64_t> out;
  for (int64_t s = begin; s < end; ++s) out.push_back(s);
  return out;
}

WindowSample SlidingWindowDataset::MakeSample(int64_t target_step) const {
  EALGAP_CHECK_GE(target_step, MinTargetStep());
  EALGAP_CHECK_LT(target_step, series_.total_steps());
  return AssembleWindowSample(step_rows(), geometry(), series_.num_regions,
                              target_step);
}

Result<StepRanges> MakeChronoSplit(const SlidingWindowDataset& dataset,
                                   const SplitSpec& spec) {
  const MobilitySeries& series = dataset.series();
  const int64_t t_day = series.steps_per_day;
  const int64_t total = series.total_steps();
  const int64_t holdout = static_cast<int64_t>(spec.val_days + spec.test_days);
  if (series.num_days <= holdout + 10) {
    return Status::InvalidArgument(
        "series too short for the requested split: " +
        std::to_string(series.num_days) + " days");
  }
  StepRanges r;
  r.train_begin = dataset.MinTargetStep();
  r.train_end = total - holdout * t_day;
  r.val_begin = r.train_end;
  r.val_end = total - static_cast<int64_t>(spec.test_days) * t_day;
  r.test_begin = r.val_end;
  r.test_end = total;
  if (r.train_begin >= r.train_end) {
    return Status::InvalidArgument("no training steps after warm-up");
  }
  return r;
}

}  // namespace data
}  // namespace ealgap
