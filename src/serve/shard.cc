#include "serve/shard.h"

#include <filesystem>
#include <utility>

#include "baselines/neural.h"

namespace ealgap {
namespace serve {

namespace {

/// The checkpointable model behind a served Forecaster: the adaptive
/// wrapper checkpoints its inner model (detector state has its own file).
NeuralForecaster* CheckpointableModel(Forecaster* model) {
  if (auto* adaptive = dynamic_cast<AdaptivePredictor*>(model)) {
    return adaptive->model();
  }
  return dynamic_cast<NeuralForecaster*>(model);
}

}  // namespace

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
    data::SlidingWindowDataset dataset, std::unique_ptr<Forecaster> model,
    int64_t serve_begin, ShardConfig config, ModelReloader reloader) {
  if (model == nullptr) {
    return Status::InvalidArgument("Shard needs a fitted model");
  }
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
  EALGAP_RETURN_IF_ERROR(shard->SeedPredictor());

  if (!shard->config_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(shard->config_.state_dir, ec);
    if (ec) {
      return Status::IoError("cannot create shard state dir " +
                             shard->config_.state_dir + ": " + ec.message());
    }
    // The model checkpoint is written at creation; without adaptation the
    // parameters never change while serving, and with it MaybeCheckpoint
    // re-saves the file after committed adaptations. Non-neural models
    // have no checkpoint format; their restarts reuse the in-memory
    // object.
    if (auto* neural = CheckpointableModel(shard->model_.get())) {
      Status saved = neural->SaveCheckpoint(shard->ModelPath());
      if (!saved.ok()) ++shard->totals_.checkpoint_failures;
    }
    // The initial predictor-state checkpoint guarantees a restart always
    // finds SOMETHING on disk — a crash in the first cadence window must
    // not force a cold re-seed.
    Status saved = shard->predictor_->SaveState(shard->StatePath());
    if (saved.ok()) {
      ++shard->totals_.checkpoints_written;
    } else {
      ++shard->totals_.checkpoint_failures;
    }
  }
  return shard;
}

Status Shard::SeedPredictor() {
  auto predictor =
      OnlinePredictor::Create(model_.get(), dataset_, serve_begin_);
  EALGAP_RETURN_IF_ERROR(predictor.status());
  predictor_ =
      std::make_unique<OnlinePredictor>(std::move(predictor).value());
  predictor_->SetGuardPolicy(config_.guard);
  resilient_ =
      std::make_unique<ResilientPredictor>(predictor_.get(),
                                           config_.resilience);
  return Status::OK();
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
  const Status st = resilient_->ObserveAt(request.feed_step, counts);
  if (st.ok()) {
    ++totals_.observes_applied;
    ++observes_since_checkpoint_;
  } else {
    // Guard rejection (stale step, oversized gap, ...): attributed and
    // survivable — the feed keeps flowing, the loop keeps serving.
    ++totals_.observes_rejected;
  }
}

bool Shard::ServePredictStep(double deadline_ms) {
  resilient_->set_deadline_ms(deadline_ms);
  return resilient_->PredictNextInto(&last_served_).ok();
}

const std::vector<double>& Shard::ExpiredFallback() {
  predictor_->MatchedMeanNextInto(&expired_scratch_);
  return expired_scratch_;
}

bool Shard::NoteServedStep() {
  const ServedPrediction& served = last_served_;
  const bool degraded = served.source != FallbackLevel::kFullModel;
  const bool model_failure = served.cause == DegradeCause::kNonFinite ||
                             served.cause == DegradeCause::kModelError ||
                             served.cause == DegradeCause::kDeadline;
  if (degraded) {
    ++totals_.predicts_degraded;
    ++totals_.degraded_by_cause[static_cast<int>(served.cause)];
  } else {
    ++totals_.predicts_model;
  }
  ++totals_.served_by_level[static_cast<int>(served.source)];

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

void Shard::FoldIncarnation(ShardTotals* out) const {
  if (const AdaptivePredictor* ap = adaptive()) {
    out->adapt.Accumulate(ap->stats());
  }
  const GuardStats& gs = predictor_->guard_stats();
  out->repaired_values += gs.repaired_values;
  out->gap_steps_filled += gs.gap_steps_filled;
  if (out->quarantine_by_region.size() < gs.quarantine.size()) {
    out->quarantine_by_region.resize(gs.quarantine.size(), 0);
  }
  for (size_t r = 0; r < gs.quarantine.size(); ++r) {
    out->quarantine_by_region[r] += gs.quarantine[r];
  }
}

Status Shard::Restart() {
  FoldIncarnation(&totals_);  // the dying incarnation's counters

  bool restored = false;
  if (!config_.state_dir.empty()) {
    if (reloader_) {
      auto model = reloader_(ModelPath());
      if (model.ok()) model_ = std::move(model).value();
      // A failed model reload falls back to the in-memory object: the
      // parameters are identical, only the load-path rehearsal is lost.
    }
    auto state = OnlinePredictor::LoadState(StatePath(), model_.get());
    if (state.ok()) {
      predictor_ =
          std::make_unique<OnlinePredictor>(std::move(state).value());
      predictor_->SetGuardPolicy(config_.guard);
      resilient_ = std::make_unique<ResilientPredictor>(predictor_.get(),
                                                        config_.resilience);
      restored = true;
      ++totals_.restarts_from_checkpoint;
    }
  }
  if (!restored) {
    // No state dir, or the checkpoint is missing/corrupt (CRC validation
    // rejected it): cold re-seed from the original dataset. The feed gap
    // back to the live stream position is then absorbed by the guard.
    EALGAP_RETURN_IF_ERROR(SeedPredictor());
  }

  // A reloaded adaptive wrapper starts a fresh incarnation (zero stats,
  // frozen A/B arm rebaselined to the reloaded — possibly adapted —
  // weights); its drift posture resumes from the persisted adapt state.
  adapt_commits_checkpointed_ = 0;
  if (auto* ap = adaptive()) {
    if (!config_.state_dir.empty() &&
        std::filesystem::exists(AdaptStatePath())) {
      // A corrupt adapt state is survivable: the detector restarts cold,
      // exactly like a missing file. The CRC rejected it, nothing loaded.
      (void)ap->LoadState(AdaptStatePath());
    }
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
  auto* ap = adaptive();
  if (ap == nullptr) return AdaptEvent{};
  return ap->MaybeAdapt();
}

void Shard::MaybeCheckpoint() {
  if (config_.state_dir.empty() || config_.checkpoint_every_steps <= 0) return;
  if (observes_since_checkpoint_ < config_.checkpoint_every_steps) return;
  observes_since_checkpoint_ = 0;  // keep the cadence even when writes fail
  const Status saved = predictor_->SaveState(StatePath());
  if (saved.ok()) {
    ++totals_.checkpoints_written;
  } else {
    ++totals_.checkpoint_failures;
  }
  if (auto* ap = adaptive()) {
    // Committed adaptations changed the weights since the last model save:
    // without this re-save a quarantine-restart would silently serve the
    // pre-adaptation parameters.
    if (ap->stats().commits != adapt_commits_checkpointed_) {
      if (auto* neural = CheckpointableModel(model_.get())) {
        const Status model_saved = neural->SaveCheckpoint(ModelPath());
        if (model_saved.ok()) {
          adapt_commits_checkpointed_ = ap->stats().commits;
          ++totals_.checkpoints_written;
        } else {
          ++totals_.checkpoint_failures;
        }
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
  FoldIncarnation(&out);
  return out;
}

}  // namespace serve
}  // namespace ealgap
