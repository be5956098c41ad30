#include "baselines/forecaster.h"

namespace ealgap {

Result<std::vector<double>> Forecaster::PredictSample(
    const data::WindowSample& sample) {
  (void)sample;
  return Status::NotImplemented(name() +
                                " cannot predict from a bare sample");
}

Status Forecaster::PredictSampleInto(const data::WindowSample& sample,
                                     std::vector<double>* out) {
  EALGAP_ASSIGN_OR_RETURN(std::vector<double> values, PredictSample(sample));
  *out = std::move(values);
  return Status::OK();
}

Status Forecaster::PredictRange(const data::SlidingWindowDataset& dataset,
                                int64_t begin, int64_t end,
                                std::vector<double>* predictions,
                                std::vector<double>* truths) {
  for (int64_t step : dataset.TargetSteps(begin, end)) {
    EALGAP_ASSIGN_OR_RETURN(std::vector<double> pred,
                            Predict(dataset, step));
    const std::vector<float> truth = dataset.StepCounts(step);
    for (size_t r = 0; r < pred.size(); ++r) {
      predictions->push_back(pred[r]);
      truths->push_back(truth[r]);
    }
  }
  return Status::OK();
}

}  // namespace ealgap
