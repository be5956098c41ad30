#ifndef EALGAP_SERVE_STACK_H_
#define EALGAP_SERVE_STACK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "baselines/neural.h"
#include "common/result.h"
#include "data/dataset.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"

namespace ealgap {
namespace serve {

struct StackOptions {
  GuardPolicy guard;
  ResilienceOptions resilience;
  /// Set => a test-time adaptation layer serves between predictor and model.
  std::optional<AdaptOptions> adapt;
};

/// One serving stack over a fitted model (not owned):
///   resilient -> online -> [adaptive ->] model
/// The layers are heap-held, so moving a Stack keeps their links valid.
struct Stack {
  std::unique_ptr<AdaptivePredictor> adaptive;  ///< null unless options.adapt
  std::unique_ptr<OnlinePredictor> online;
  std::unique_ptr<ResilientPredictor> resilient;
  bool restored = false;  ///< online came from state_path, not the dataset
};

/// The one place the serving layers are composed. Restores the predictor
/// from `state_path` when it is non-empty and loads (a missing or corrupt
/// file is not an error); otherwise seeds it from the first `serve_begin`
/// steps of `dataset`. Every call builds a fresh adaptive incarnation:
/// zero stats, frozen A/B arm at the model's current weights.
Result<Stack> BuildStack(NeuralForecaster* model, const StackOptions& options,
                         const data::SlidingWindowDataset& dataset,
                         int64_t serve_begin,
                         const std::string& state_path = "");

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_STACK_H_
