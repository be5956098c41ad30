#include "serve/stack.h"

#include <utility>

namespace ealgap {
namespace serve {

Result<Stack> BuildStack(NeuralForecaster* model, const StackOptions& options,
                         const data::SlidingWindowDataset& dataset,
                         int64_t serve_begin, const std::string& state_path) {
  Stack stack;
  Forecaster* serving = model;
  if (options.adapt.has_value()) {
    EALGAP_ASSIGN_OR_RETURN(stack.adaptive,
                            AdaptivePredictor::Create(model, *options.adapt));
    serving = stack.adaptive.get();
  }
  if (!state_path.empty()) {
    auto state = OnlinePredictor::LoadState(state_path, serving);
    if (state.ok()) {
      stack.online =
          std::make_unique<OnlinePredictor>(std::move(state).value());
      stack.restored = true;
    }
  }
  if (stack.online == nullptr) {
    EALGAP_ASSIGN_OR_RETURN(
        OnlinePredictor seeded,
        OnlinePredictor::Create(serving, dataset, serve_begin));
    stack.online = std::make_unique<OnlinePredictor>(std::move(seeded));
  }
  stack.online->SetGuardPolicy(options.guard);
  stack.resilient = std::make_unique<ResilientPredictor>(stack.online.get(),
                                                         options.resilience);
  return stack;
}

}  // namespace serve
}  // namespace ealgap
