#include "serve/resilient_predictor.h"

#include <chrono>
#include <cmath>

namespace ealgap {
namespace serve {

namespace {

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

const char* FallbackLevelName(FallbackLevel level) {
  switch (level) {
    case FallbackLevel::kFullModel: return "full-model";
    case FallbackLevel::kMatchedMean: return "matched-mean";
    case FallbackLevel::kRecentMean: return "recent-mean";
    case FallbackLevel::kPersistence: return "persistence";
  }
  return "unknown";
}

const char* DegradeCauseName(DegradeCause cause) {
  switch (cause) {
    case DegradeCause::kNone: return "none";
    case DegradeCause::kNonFinite: return "non-finite";
    case DegradeCause::kModelError: return "model-error";
    case DegradeCause::kDeadline: return "deadline";
    case DegradeCause::kProbation: return "probation";
  }
  return "unknown";
}

void DegradationState::Accumulate(const DegradationState& other) {
  total_steps += other.total_steps;
  degraded_steps += other.degraded_steps;
  for (int c = 0; c < kNumDegradeCauses; ++c) by_cause[c] += other.by_cause[c];
  for (int l = 0; l < kNumFallbackLevels; ++l) by_level[l] += other.by_level[l];
}

ResilientPredictor::ResilientPredictor(OnlinePredictor* inner,
                                       ResilienceOptions options)
    : inner_(inner), options_(options) {}

void ResilientPredictor::FallbackInto(FallbackLevel from, DegradeCause cause,
                                      ServedPrediction* out) const {
  out->cause = cause;
  if (from <= FallbackLevel::kMatchedMean) {
    inner_->MatchedMeanNextInto(&out->values);
    out->source = FallbackLevel::kMatchedMean;
    if (AllFinite(out->values)) return;
  }
  if (from <= FallbackLevel::kRecentMean) {
    inner_->RecentMeanNextInto(&out->values);
    out->source = FallbackLevel::kRecentMean;
    if (AllFinite(out->values)) return;
  }
  // Persistence re-serves values the guards already admitted (finite by
  // construction) — the chain's floor.
  inner_->LastObservedInto(&out->values);
  out->source = FallbackLevel::kPersistence;
}

Status ResilientPredictor::PredictNextInto(ServedPrediction* out) {
  if (inner_ == nullptr) {
    return Status::InvalidArgument("ResilientPredictor needs a predictor");
  }
  ++state_.total_steps;

  // Always attempt the model: when healthy it serves the step, when
  // degraded it is the recovery probe.
  const auto t0 = std::chrono::steady_clock::now();
  const Status attempt = inner_->PredictNextInto(&attempt_values_);
  const auto t1 = std::chrono::steady_clock::now();
  const double latency_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  DegradeCause failure = DegradeCause::kNone;
  if (!attempt.ok()) {
    failure = DegradeCause::kModelError;
  } else if (!AllFinite(attempt_values_)) {
    failure = DegradeCause::kNonFinite;
  } else if (options_.deadline_ms > 0.0 && latency_ms > options_.deadline_ms) {
    failure = DegradeCause::kDeadline;
  }

  if (failure != DegradeCause::kNone) {
    // Unhealthy answer: (re)enter degraded serving and reset hysteresis.
    state_.consecutive_healthy = 0;
    FallbackInto(FallbackLevel::kMatchedMean, failure, out);
  } else if (!state_.degraded()) {
    // Healthy chain, healthy model: serve the model output untouched.
    // Swap, not move: both buffers stay warm, so neither side reallocates.
    std::swap(out->values, attempt_values_);
    out->source = FallbackLevel::kFullModel;
    out->cause = DegradeCause::kNone;
  } else if (++state_.consecutive_healthy >= options_.recovery_successes) {
    // Hysteresis satisfied: promote back to the model on this very step —
    // the probe answer is healthy, so it is served, not discarded.
    std::swap(out->values, attempt_values_);
    out->source = FallbackLevel::kFullModel;
    out->cause = DegradeCause::kNone;
    state_.consecutive_healthy = 0;
  } else {
    // Healthy probe, hysteresis not yet satisfied: keep serving fallback.
    FallbackInto(FallbackLevel::kMatchedMean, DegradeCause::kProbation, out);
  }
  out->model_latency_ms = latency_ms;

  state_.level = out->source;
  state_.last_cause = out->cause;
  if (out->source != FallbackLevel::kFullModel) {
    ++state_.degraded_steps;
    ++state_.by_cause[static_cast<int>(out->cause)];
    ++state_.by_level[static_cast<int>(out->source)];
  }
  return Status::OK();
}

Result<ServedPrediction> ResilientPredictor::PredictNext() {
  ServedPrediction served;
  EALGAP_RETURN_IF_ERROR(PredictNextInto(&served));
  return served;
}

Status ResilientPredictor::Observe(const std::vector<double>& counts) {
  if (inner_ == nullptr) {
    return Status::InvalidArgument("ResilientPredictor needs a predictor");
  }
  return inner_->Observe(counts);
}

Status ResilientPredictor::ObserveAt(int64_t step,
                                     const std::vector<double>& counts) {
  if (inner_ == nullptr) {
    return Status::InvalidArgument("ResilientPredictor needs a predictor");
  }
  return inner_->ObserveAt(step, counts);
}

}  // namespace serve
}  // namespace ealgap
