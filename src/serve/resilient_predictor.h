#ifndef EALGAP_SERVE_RESILIENT_PREDICTOR_H_
#define EALGAP_SERVE_RESILIENT_PREDICTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/online_predictor.h"

namespace ealgap {
namespace serve {

/// Where a served prediction came from, strongest first. The degradation
/// chain walks down this list until a source yields finite values.
enum class FallbackLevel {
  kFullModel = 0,       ///< the neural forward pass
  kMatchedMean = 1,     ///< matched same-slot mean (time-of-day aware)
  kRecentMean = 2,      ///< mean over the live L-window (level tracking)
  kPersistence = 3,     ///< last observed counts
};
constexpr int kNumFallbackLevels = 4;
const char* FallbackLevelName(FallbackLevel level);

/// Why a step was served degraded.
enum class DegradeCause {
  kNone = 0,        ///< served by the full model
  kNonFinite = 1,   ///< model output contained NaN/Inf
  kModelError = 2,  ///< model returned a Status error
  kDeadline = 3,    ///< model answered after the deadline
  kProbation = 4,   ///< model healthy again, hysteresis not yet satisfied
};
constexpr int kNumDegradeCauses = 5;
const char* DegradeCauseName(DegradeCause cause);

/// Degradation-chain configuration.
struct ResilienceOptions {
  /// Model answers slower than this are discarded and the step degrades
  /// (cause kDeadline). <= 0 disables the deadline.
  double deadline_ms = 0.0;
  /// Hysteresis: the model must answer this many consecutive probes
  /// healthily (finite, within deadline) before it is promoted back to
  /// serving. 1 = recover on the first healthy answer.
  int recovery_successes = 3;
};

/// Queryable degradation telemetry. total_steps counts PredictNext calls;
/// degraded_steps those not served by the full model; by_cause/by_level
/// attribute each degraded step to why and to which fallback served it.
struct DegradationState {
  FallbackLevel level = FallbackLevel::kFullModel;
  DegradeCause last_cause = DegradeCause::kNone;
  int consecutive_healthy = 0;  ///< healthy probes since last failure
  int64_t total_steps = 0;
  int64_t degraded_steps = 0;
  std::array<int64_t, kNumDegradeCauses> by_cause{};
  std::array<int64_t, kNumFallbackLevels> by_level{};

  bool degraded() const { return level != FallbackLevel::kFullModel; }

  /// Adds another incarnation's counters (shard restart accounting). The
  /// live posture (level, last_cause, consecutive_healthy) is left as is.
  void Accumulate(const DegradationState& other);

  bool operator==(const DegradationState&) const = default;
};

/// One served prediction with its provenance.
struct ServedPrediction {
  std::vector<double> values;
  FallbackLevel source = FallbackLevel::kFullModel;
  DegradeCause cause = DegradeCause::kNone;  ///< kNone iff source is model
  double model_latency_ms = 0.0;  ///< time spent in the model attempt
};

/// Wraps an OnlinePredictor in a graceful-degradation chain so serving
/// survives a misbehaving model instead of propagating its failure:
///
///   full model -> matched mean -> recent mean -> persistence
///
/// Every PredictNext() attempts the model (a degraded chain keeps probing
/// so it can recover). A healthy answer — finite values, within the
/// deadline — is served directly when the chain is healthy; after a
/// failure the chain serves fallbacks until `recovery_successes`
/// consecutive healthy probes accumulate (hysteresis, so one good answer
/// amid a flapping model does not bounce the chain), then promotes back
/// to the model on the same step. Fallback sources are computed from the
/// OnlinePredictor's incremental statistics and never touch the model, so
/// they cannot fail; if one still produces a non-finite value it is
/// skipped for the next level. Persistence is always finite.
///
/// On a healthy chain with a healthy model the served values are the
/// model's own output, bit-identical to calling inner->PredictNext()
/// directly — wrapping is free until something breaks.
class ResilientPredictor {
 public:
  /// Wraps `inner` (not owned; must outlive this object).
  ResilientPredictor(OnlinePredictor* inner, ResilienceOptions options = {});

  /// Never returns a model failure: the only error cases are a null inner
  /// predictor at construction or guard-rejected geometry (empty chain).
  Result<ServedPrediction> PredictNext();

  /// PredictNext() into a caller-owned ServedPrediction: `out->values` is
  /// overwritten in place (capacity reused), so a serving loop that holds
  /// one ServedPrediction performs zero steady-state heap allocations on
  /// both the healthy and the degraded path (tests/alloc_guard_test.cc).
  /// The value-returning form wraps this.
  Status PredictNextInto(ServedPrediction* out);

  /// Stream advancement passes through to the inner predictor (with its
  /// input guards).
  Status Observe(const std::vector<double>& counts);
  Status ObserveAt(int64_t step, const std::vector<double>& counts);

  const DegradationState& degradation() const { return state_; }
  const ResilienceOptions& options() const { return options_; }
  OnlinePredictor* inner() { return inner_; }

  /// Rebinds the model-attempt deadline before a step. The serving daemon
  /// uses this to propagate each request's *remaining* budget into the
  /// chain: a request that has already burned most of its deadline in the
  /// queue gets a tighter model cap, so a late answer degrades instead of
  /// blocking the serve loop. <= 0 disables the deadline.
  void set_deadline_ms(double ms) { options_.deadline_ms = ms; }

 private:
  /// First fallback level at or below `from` whose values are all finite,
  /// written into `out` (values overwritten, capacity reused).
  void FallbackInto(FallbackLevel from, DegradeCause cause,
                    ServedPrediction* out) const;

  OnlinePredictor* inner_;  // not owned
  ResilienceOptions options_;
  DegradationState state_;
  /// Reused buffer for the per-step model attempt; swapped into the served
  /// prediction on a healthy serve so neither side reallocates.
  std::vector<double> attempt_values_;
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_RESILIENT_PREDICTOR_H_
