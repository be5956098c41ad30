#include "baselines/historical_average.h"

namespace ealgap {

Status HistoricalAverageForecaster::Fit(
    const data::SlidingWindowDataset& dataset, const data::StepRanges& split,
    const TrainConfig& config) {
  (void)dataset;
  (void)split;
  (void)config;
  return Status::OK();
}

Result<std::vector<double>> HistoricalAverageForecaster::Predict(
    const data::SlidingWindowDataset& dataset, int64_t target_step) {
  const auto& series = dataset.series();
  if (target_step < 0 || target_step >= series.total_steps()) {
    return Status::OutOfRange("target step out of range");
  }
  std::vector<double> out(series.num_regions, 0.0);
  int found = 0;
  series.ForEachMatchedStep(target_step, history_, [&](int64_t back) {
    for (int r = 0; r < series.num_regions; ++r) out[r] += series.At(r, back);
    ++found;
  });
  if (found > 0) {
    for (double& v : out) v /= found;
  }
  return out;
}

}  // namespace ealgap
