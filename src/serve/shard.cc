#include "serve/shard.h"

#include <filesystem>
#include <utility>

namespace ealgap {
namespace serve {

const char* RejectCauseName(RejectCause cause) {
  switch (cause) {
    case RejectCause::kOverload: return "overload";
    case RejectCause::kQuarantined: return "quarantined";
    case RejectCause::kExpired: return "expired";
  }
  return "unknown";
}

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kServing: return "serving";
    case ShardHealth::kProbation: return "probation";
    case ShardHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

Result<std::unique_ptr<Shard>> Shard::Create(
    data::SlidingWindowDataset dataset, std::unique_ptr<NeuralForecaster> model,
    int64_t serve_begin, ShardConfig config, ModelReloader reloader) {
  if (config.queue_capacity < 2) config.queue_capacity = 2;
  auto shard = std::unique_ptr<Shard>(new Shard());
  shard->config_ = std::move(config);
  shard->dataset_ = std::move(dataset);
  shard->model_ = std::move(model);
  shard->reloader_ = std::move(reloader);
  shard->serve_begin_ = serve_begin;
  shard->next_feed_step_ = serve_begin;
  shard->queue_ =
      std::make_unique<BoundedQueue<Request>>(shard->config_.queue_capacity);
  EALGAP_ASSIGN_OR_RETURN(
      shard->stack_, BuildStack(shard->model_.get(), shard->config_,
                                shard->dataset_, serve_begin));

  if (!shard->config_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(shard->config_.state_dir, ec);
    if (ec) {
      return Status::IoError("cannot create shard state dir " +
                             shard->config_.state_dir + ": " + ec.message());
    }
    // The model checkpoint is written at creation; without adaptation the
    // parameters never change while serving, and with it MaybeCheckpoint
    // re-saves the file after committed adaptations.
    if (!shard->model_->SaveCheckpoint(shard->ModelPath()).ok()) {
      ++shard->totals_.checkpoint_failures;
    }
    // The initial predictor-state checkpoint guarantees a restart always
    // finds SOMETHING on disk — a crash in the first cadence window must
    // not force a cold re-seed.
    Status saved = shard->stack_.online->SaveState(shard->StatePath());
    if (saved.ok()) {
      ++shard->totals_.checkpoints_written;
    } else {
      ++shard->totals_.checkpoint_failures;
    }
  }
  return shard;
}

const std::vector<double>& Shard::FeedCounts(int64_t step) {
  // Long soaks outlive the recorded series: cycle the serve range. The
  // stream step keeps advancing (the calendar is synthetic anyway); only
  // the VALUES repeat.
  const int64_t total = dataset_.series().total_steps();
  const int64_t range = total - serve_begin_;
  const int64_t mapped =
      serve_begin_ + (range > 0 ? (step - serve_begin_) % range : 0);
  const std::vector<float> row = dataset_.StepCounts(mapped);
  feed_scratch_.assign(row.begin(), row.end());
  return feed_scratch_;
}

void Shard::ApplyObserve(const Request& request) {
  const std::vector<double>& counts = FeedCounts(request.feed_step);
  const Status st = stack_.resilient->ObserveAt(request.feed_step, counts);
  // A guard rejection (stale step, oversized gap, ...) is counted by the
  // guard and survivable: the feed keeps flowing, the loop keeps serving.
  if (st.ok()) {
    ++totals_.observes_applied;
    ++observes_since_checkpoint_;
  }
}

bool Shard::ServePredictStep(double deadline_ms) {
  stack_.resilient->set_deadline_ms(deadline_ms);
  return stack_.resilient->PredictNextInto(&last_served_).ok();
}

const std::vector<double>& Shard::ExpiredFallback() {
  stack_.online->MatchedMeanNextInto(&expired_scratch_);
  return expired_scratch_;
}

bool Shard::NoteServedStep() {
  const ServedPrediction& served = last_served_;
  const bool degraded = served.source != FallbackLevel::kFullModel;
  const bool model_failure = served.cause == DegradeCause::kNonFinite ||
                             served.cause == DegradeCause::kModelError ||
                             served.cause == DegradeCause::kDeadline;

  consecutive_model_failures_ =
      model_failure ? consecutive_model_failures_ + 1 : 0;
  degraded_streak_ = degraded ? degraded_streak_ + 1 : 0;

  if (health_ == ShardHealth::kProbation) {
    if (model_failure) return true;  // relapse: back to quarantine
    if (!degraded && ++probation_healthy_ >= config_.watchdog.probation_steps) {
      health_ = ShardHealth::kServing;
    }
    return false;
  }
  return consecutive_model_failures_ >=
             config_.watchdog.max_consecutive_failures ||
         degraded_streak_ >= config_.watchdog.max_degraded_steps;
}

bool Shard::NoteStalledTick() {
  ++totals_.stall_ticks;
  return ++stalled_streak_ >= config_.watchdog.max_stalled_ticks;
}

void Shard::BeginQuarantine(int64_t now_tick, bool injected_crash) {
  health_ = ShardHealth::kQuarantined;
  restart_at_tick_ = now_tick + config_.watchdog.restart_ticks;
  ++totals_.quarantines;
  if (injected_crash) ++totals_.crashes;
  consecutive_model_failures_ = 0;
  degraded_streak_ = 0;
  stalled_streak_ = 0;
  probation_healthy_ = 0;
}

Status Shard::Restart() {
  std::unique_ptr<NeuralForecaster> reloaded;
  std::string state_path;
  if (!config_.state_dir.empty()) {
    state_path = StatePath();
    if (reloader_) {
      auto model = reloader_(ModelPath());
      if (model.ok()) reloaded = std::move(model).value();
      // A failed model reload falls back to the in-memory object: the
      // parameters are identical, only the load-path rehearsal is lost.
    }
  }
  // A missing or corrupt state file (the CRC rejected it) cold re-seeds
  // from the original dataset; the guard absorbs the feed gap back to the
  // live stream position.
  EALGAP_ASSIGN_OR_RETURN(
      Stack stack,
      BuildStack(reloaded != nullptr ? reloaded.get() : model_.get(), config_,
                 dataset_, serve_begin_, state_path));
  totals_ = Totals();  // the dying incarnation's counters
  stack_ = std::move(stack);
  if (reloaded != nullptr) model_ = std::move(reloaded);
  if (stack_.restored) ++totals_.restarts_from_checkpoint;

  // The fresh adaptive incarnation resumes the persisted drift posture.
  adapt_commits_checkpointed_ = 0;
  if (stack_.adaptive != nullptr && !state_path.empty() &&
      std::filesystem::exists(AdaptStatePath())) {
    // A corrupt adapt state is survivable: the detector restarts cold,
    // exactly like a missing file. The CRC rejected it, nothing loaded.
    (void)stack_.adaptive->LoadState(AdaptStatePath());
  }

  health_ = ShardHealth::kProbation;
  restart_at_tick_ = -1;
  probation_healthy_ = 0;
  observes_since_checkpoint_ = 0;
  ++totals_.restarts;
  return Status::OK();
}

Result<AdaptEvent> Shard::MaybeAdapt() {
  if (health_ == ShardHealth::kQuarantined) return AdaptEvent{};
  if (stack_.adaptive == nullptr) return AdaptEvent{};
  return stack_.adaptive->MaybeAdapt();
}

void Shard::MaybeCheckpoint() {
  if (config_.state_dir.empty() || config_.checkpoint_every_steps <= 0) return;
  if (observes_since_checkpoint_ < config_.checkpoint_every_steps) return;
  observes_since_checkpoint_ = 0;  // keep the cadence even when writes fail
  const Status saved = stack_.online->SaveState(StatePath());
  if (saved.ok()) {
    ++totals_.checkpoints_written;
  } else {
    ++totals_.checkpoint_failures;
  }
  if (const AdaptivePredictor* ap = adaptive()) {
    // Committed adaptations changed the weights since the last model save:
    // without this re-save a quarantine-restart would silently serve the
    // pre-adaptation parameters.
    if (ap->stats().commits != adapt_commits_checkpointed_) {
      if (model_->SaveCheckpoint(ModelPath()).ok()) {
        adapt_commits_checkpointed_ = ap->stats().commits;
        ++totals_.checkpoints_written;
      } else {
        ++totals_.checkpoint_failures;
      }
    }
    const Status adapt_saved = ap->SaveState(AdaptStatePath());
    if (adapt_saved.ok()) {
      ++totals_.checkpoints_written;
    } else {
      ++totals_.checkpoint_failures;
    }
  }
}

ShardTotals Shard::Totals() const {
  ShardTotals out = totals_;
  out.guard.Accumulate(stack_.online->guard_stats());
  out.degradation.Accumulate(stack_.resilient->degradation());
  if (const AdaptivePredictor* ap = adaptive()) {
    out.adapt.Accumulate(ap->stats());
  }
  return out;
}

}  // namespace serve
}  // namespace ealgap
