#include "serve/adaptive_predictor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/arena.h"
#include "common/fault_injection.h"
#include "common/record_io.h"

namespace ealgap {
namespace serve {

namespace {

constexpr char kAdaptStateKind[] = "adapt-state";
constexpr uint32_t kAdaptStateVersion = 2;

data::WindowSample CloneSample(const data::WindowSample& s) {
  data::WindowSample out;
  out.x = s.x.Clone();
  out.f = s.f.Clone();
  out.f_mu = s.f_mu.Clone();
  out.f_sigma = s.f_sigma.Clone();
  out.target = s.target.Clone();
  out.w_next = s.w_next.Clone();
  out.w_next_mu = s.w_next_mu.Clone();
  out.w_next_sigma = s.w_next_sigma.Clone();
  out.target_step = s.target_step;
  return out;
}

double Log2Err(double pred, double truth) {
  return std::fabs(std::log2(std::max(pred, 0.0) + 1.0) -
                   std::log2(std::max(truth, 0.0) + 1.0));
}

}  // namespace

void AdaptStats::Accumulate(const AdaptStats& other) {
  steps += other.steps;
  observed += other.observed;
  triggers += other.triggers;
  attempts += other.attempts;
  commits += other.commits;
  rollbacks_reject += other.rollbacks_reject;
  rollbacks_nan += other.rollbacks_nan;
  rollbacks_error += other.rollbacks_error;
  freezes += other.freezes;
  unfreezes += other.unfreezes;
  shadow_forwards += other.shadow_forwards;
  shadow_failures += other.shadow_failures;
  frozen = frozen || other.frozen;
  max_cusum = std::max(max_cusum, other.max_cusum);
  if (other.attempts > 0) {
    last_val_before = other.last_val_before;
    last_val_after = other.last_val_after;
  }
  pairs += other.pairs;
  values += other.values;
  truth_sum += other.truth_sum;
  adapted_abs_err += other.adapted_abs_err;
  frozen_abs_err += other.frozen_abs_err;
  adapted_log_err += other.adapted_log_err;
  frozen_log_err += other.frozen_log_err;
}

AdaptivePredictor::AdaptivePredictor(NeuralForecaster* model,
                                     AdaptOptions options)
    : model_(model), options_(options) {}

Result<std::unique_ptr<AdaptivePredictor>> AdaptivePredictor::Create(
    NeuralForecaster* model, AdaptOptions options) {
  if (model == nullptr) {
    return Status::InvalidArgument("AdaptivePredictor needs a model");
  }
  if (!model->SupportsStreaming()) {
    return Status::InvalidArgument(model->name() +
                                   " does not support streaming prediction");
  }
  if (options.holdout < 1 || options.min_window <= options.holdout ||
      options.window < options.min_window) {
    return Status::InvalidArgument(
        "AdaptOptions needs window >= min_window > holdout >= 1 (got " +
        std::to_string(options.window) + " / " +
        std::to_string(options.min_window) + " / " +
        std::to_string(options.holdout) + ")");
  }
  if (options.freeze_after < 1 || options.cooldown < 0 ||
      options.frozen_probe_after < 1) {
    return Status::InvalidArgument(
        "AdaptOptions needs freeze_after >= 1, cooldown >= 0, "
        "frozen_probe_after >= 1");
  }
  if (!(options.cusum_k >= 0.0) || !(options.cusum_h > 0.0) ||
      !(options.sigma_floor > 0.0) || !(options.ewma_alpha > 0.0) ||
      !(options.ewma_alpha <= 1.0)) {
    return Status::InvalidArgument(
        "AdaptOptions detector knobs out of range (need cusum_k >= 0, "
        "cusum_h > 0, sigma_floor > 0, ewma_alpha in (0,1])");
  }
  std::unique_ptr<AdaptivePredictor> wrapper(
      new AdaptivePredictor(model, options));
  // The frozen A/B arm is the weights at wrapper creation; capturing also
  // verifies the model is fitted.
  EALGAP_ASSIGN_OR_RETURN(wrapper->frozen_params_, model->CaptureParams());
  return wrapper;
}

std::string AdaptivePredictor::name() const { return model_->name(); }

bool AdaptivePredictor::SupportsStreaming() const {
  return model_->SupportsStreaming();
}

Status AdaptivePredictor::Fit(const data::SlidingWindowDataset& dataset,
                              const data::StepRanges& split,
                              const TrainConfig& config) {
  return model_->Fit(dataset, split, config);
}

Result<std::vector<double>> AdaptivePredictor::Predict(
    const data::SlidingWindowDataset& dataset, int64_t target_step) {
  return PredictSample(dataset.MakeSample(target_step));
}

Result<std::vector<double>> AdaptivePredictor::PredictSample(
    const data::WindowSample& sample) {
  std::vector<double> out;
  EALGAP_RETURN_IF_ERROR(PredictSampleInto(sample, &out));
  return out;
}

void AdaptivePredictor::EnsureDetector(int64_t num_regions) {
  if (static_cast<int64_t>(cusum_.size()) == num_regions) return;
  ewma_.assign(static_cast<size_t>(num_regions), 0.0);
  cusum_.assign(static_cast<size_t>(num_regions), 0.0);
}

void AdaptivePredictor::CompletePending(const data::WindowSample& next) {
  const int64_t n = pending_.target.numel();
  const int64_t l = next.x.dim(1);
  const int64_t m = next.f_mu.dim(0);
  if (next.x.dim(0) != n || next.f_mu.dim(1) != n || l < 1 || m < 1) {
    have_pending_ = false;  // geometry changed mid-stream; drop the sample
    return;
  }
  EnsureDetector(n);
  const float* nx = next.x.data();
  const float* nmu = next.f_mu.data();
  const float* nsg = next.f_sigma.data();
  float* tgt = pending_.target.data();
  const int64_t mp = pending_.w_next.dim(0);
  float* pwn = pending_.w_next.data() + (mp - 1) * n;
  float* pwm = pending_.w_next_mu.data() + (mp - 1) * n;
  float* pws = pending_.w_next_sigma.data() + (mp - 1) * n;

  const bool score_pair =
      !pending_adapted_.empty() &&
      static_cast<int64_t>(pending_adapted_.size()) == n &&
      (!diverged_at_pending_ || pending_frozen_valid_);
  double max_c = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    // The next step's sample ends at the pending step: its last x column IS
    // the realized observation, and the last column of its final f window
    // carries the temporally-matched mu/sigma for that step.
    const double obs = static_cast<double>(nx[r * l + l - 1]);
    const double mu = static_cast<double>(nmu[((m - 1) * n + r) * l + l - 1]);
    const double sigma =
        static_cast<double>(nsg[((m - 1) * n + r) * l + l - 1]);
    (void)mu;
    tgt[r] = static_cast<float>(obs);
    pwn[r] = static_cast<float>(obs);
    pwm[r] = nmu[((m - 1) * n + r) * l + l - 1];
    pws[r] = nsg[((m - 1) * n + r) * l + l - 1];
    if (static_cast<int64_t>(pending_adapted_.size()) == n) {
      const double z = (pending_adapted_[static_cast<size_t>(r)] - obs) /
                       std::max(sigma, options_.sigma_floor);
      const double az = std::fabs(z);
      ewma_[static_cast<size_t>(r)] =
          (1.0 - options_.ewma_alpha) * ewma_[static_cast<size_t>(r)] +
          options_.ewma_alpha * az;
      cusum_[static_cast<size_t>(r)] = std::max(
          0.0, cusum_[static_cast<size_t>(r)] + az - options_.cusum_k);
      max_c = std::max(max_c, cusum_[static_cast<size_t>(r)]);
    }
    if (score_pair) {
      const double pa = pending_adapted_[static_cast<size_t>(r)];
      const double pf = diverged_at_pending_
                            ? pending_frozen_[static_cast<size_t>(r)]
                            : pa;
      stats_.truth_sum += obs;
      stats_.adapted_abs_err += std::fabs(pa - obs);
      stats_.frozen_abs_err += std::fabs(pf - obs);
      stats_.adapted_log_err += Log2Err(pa, obs);
      stats_.frozen_log_err += Log2Err(pf, obs);
    }
  }
  if (score_pair) {
    ++stats_.pairs;
    stats_.values += n;
  }
  ++stats_.observed;
  ++observed_since_attempt_;
  ++observed_since_freeze_;
  stats_.max_cusum = std::max(stats_.max_cusum, max_c);
  if (max_c > options_.cusum_h && !pending_trigger_) {
    pending_trigger_ = true;
    ++stats_.triggers;
    // Restart the accumulation so a served adaptation (or a rejection) is
    // judged on fresh evidence, not the residue that tripped it.
    std::fill(cusum_.begin(), cusum_.end(), 0.0);
  }
  ring_.push_back(std::move(pending_));
  while (static_cast<int>(ring_.size()) > options_.window) ring_.pop_front();
  have_pending_ = false;
}

Status AdaptivePredictor::FrozenForward(const data::WindowSample& sample,
                                        std::vector<double>* out,
                                        Status* forward) {
  EALGAP_RETURN_IF_ERROR(model_->RestoreParams(frozen_params_));
  *forward = model_->PredictSampleInto(sample, out);
  // The live weights must come back even when the forward failed — the
  // frozen arm serving live would corrupt every later step.
  return model_->RestoreParams(live_params_);
}

Status AdaptivePredictor::PredictSampleInto(const data::WindowSample& sample,
                                            std::vector<double>* out) {
  // The ring clones and bookkeeping below must survive the caller's arena
  // rewind (OnlinePredictor serves under its per-predictor arena), so all
  // wrapper-owned tensors are allocated under a heap scope.
  if (have_pending_) {
    if (sample.target_step == pending_.target_step + 1) {
      ArenaScope heap(nullptr);
      CompletePending(sample);
    } else {
      // Non-contiguous replay (stream reset); the pending sample's
      // observation never arrived.
      have_pending_ = false;
    }
  }

  Status st = model_->PredictSampleInto(sample, out);
  if (!st.ok()) {
    // No prediction to pair with the next observation.
    pending_adapted_.clear();
    pending_frozen_valid_ = false;
    return st;
  }
  ++stats_.steps;
  pending_adapted_.assign(out->begin(), out->end());

  pending_frozen_valid_ = false;
  diverged_at_pending_ = diverged_;
  if (diverged_ && options_.shadow_every > 0 &&
      sample.target_step % options_.shadow_every == 0) {
    ++stats_.shadow_forwards;
    Status forward = Status::OK();
    EALGAP_RETURN_IF_ERROR(FrozenForward(sample, &shadow_buf_, &forward));
    if (!forward.ok()) {
      // A failed shadow forward (injected predict fault, transient) skips
      // this step's pair; the harness stays paired by dropping both arms.
      ++stats_.shadow_failures;
    } else {
      pending_frozen_ = shadow_buf_;
      pending_frozen_valid_ = true;
    }
  }

  {
    ArenaScope heap(nullptr);
    pending_ = CloneSample(sample);
  }
  have_pending_ = true;
  return Status::OK();
}

Result<AdaptEvent> AdaptivePredictor::RunAttempt() {
  AdaptEvent event;
  ++stats_.attempts;
  observed_since_attempt_ = 0;
  if (fault::Armed()) fault::MaybeDelay("serve.adapt.delay");

  // Snapshot first: every exit below other than commit restores it, so a
  // failed adaptation is bit-exactly invisible.
  using ParamMap = std::map<std::string, Tensor>;
  EALGAP_ASSIGN_OR_RETURN(ParamMap snapshot, model_->CaptureParams());
  std::vector<data::WindowSample> train(
      ring_.begin(), ring_.end() - options_.holdout);
  std::vector<data::WindowSample> holdout(
      ring_.end() - options_.holdout, ring_.end());

  auto rollback = [&](AdaptOutcome outcome) -> Result<AdaptEvent> {
    EALGAP_RETURN_IF_ERROR(model_->RestoreParams(snapshot));
    switch (outcome) {
      case AdaptOutcome::kRejected: ++stats_.rollbacks_reject; break;
      case AdaptOutcome::kNan: ++stats_.rollbacks_nan; break;
      default: ++stats_.rollbacks_error; break;
    }
    ++failed_streak_;
    if (!frozen_ && failed_streak_ >= options_.freeze_after) {
      frozen_ = true;
      stats_.frozen = true;
      ++stats_.freezes;
      event.froze = true;
    }
    // Frozen (or just-frozen): a failure re-arms the probe cooldown.
    observed_since_freeze_ = 0;
    event.outcome = outcome;
    return event;
  };

  Result<double> val_before =
      model_->EvaluateSamplesLoss(holdout, options_.micro.batch_size);
  if (!val_before.ok()) return rollback(AdaptOutcome::kError);
  stats_.last_val_before = *val_before;

  if (fault::Armed() && fault::ShouldFail("serve.adapt.error")) {
    return rollback(AdaptOutcome::kError);
  }
  Status fit = model_->MicroFit(train, options_.micro);
  if (!fit.ok()) return rollback(AdaptOutcome::kError);

  Result<double> val_after =
      model_->EvaluateSamplesLoss(holdout, options_.micro.batch_size);
  if (!val_after.ok()) return rollback(AdaptOutcome::kError);
  double after = *val_after;
  if (fault::Armed() && fault::ShouldFail("serve.adapt.nan")) {
    after = std::numeric_limits<double>::quiet_NaN();
  }
  stats_.last_val_after = after;
  if (!std::isfinite(after)) return rollback(AdaptOutcome::kNan);

  const bool forced_reject =
      fault::Armed() && fault::ShouldFail("serve.adapt.reject");
  if (forced_reject || !(after < *val_before)) {
    return rollback(AdaptOutcome::kRejected);
  }

  // Commit: the adapted weights are live. The frozen A/B arm keeps the
  // creation-time snapshot; the live snapshot backs the shadow swap.
  ++stats_.commits;
  failed_streak_ = 0;
  EALGAP_ASSIGN_OR_RETURN(live_params_, model_->CaptureParams());
  diverged_ = true;
  if (frozen_) {
    frozen_ = false;
    stats_.frozen = false;
    ++stats_.unfreezes;
    event.unfroze = true;
  }
  event.outcome = AdaptOutcome::kCommitted;
  return event;
}

Result<AdaptEvent> AdaptivePredictor::MaybeAdapt() {
  if (!pending_trigger_) return AdaptEvent{};
  if (static_cast<int>(ring_.size()) < options_.min_window) {
    return AdaptEvent{};
  }
  if (frozen_) {
    // Hysteresis: a frozen wrapper allows one probe attempt per aged
    // cooldown window.
    if (observed_since_freeze_ < options_.frozen_probe_after) {
      return AdaptEvent{};
    }
  } else if (stats_.attempts > 0 &&
             observed_since_attempt_ < options_.cooldown) {
    return AdaptEvent{};
  }
  pending_trigger_ = false;
  return RunAttempt();
}

Status AdaptivePredictor::SaveState(const std::string& path) const {
  RecordWriter writer(kAdaptStateKind, kAdaptStateVersion);
  writer.Section("model").PutString(name());
  writer.Section("guard")
      .PutI64(frozen_ ? 1 : 0)
      .PutI64(failed_streak_)
      .PutI64(observed_since_attempt_)
      .PutI64(observed_since_freeze_)
      .PutI64(pending_trigger_ ? 1 : 0);
  writer.Section("detector")
      .PutI64(static_cast<int64_t>(cusum_.size()))
      .PutF64s(ewma_.data(), ewma_.size())
      .PutF64s(cusum_.data(), cusum_.size());
  return writer.Commit(path);
}

Status AdaptivePredictor::LoadState(const std::string& path) {
  EALGAP_ASSIGN_OR_RETURN(
      RecordReader reader,
      RecordReader::Open(path, kAdaptStateKind, kAdaptStateVersion));
  EALGAP_ASSIGN_OR_RETURN(std::string model_name,
                          reader.StringSection("model"));
  if (model_name != name()) {
    return Status::InvalidArgument("adapt state was captured for model " +
                                   model_name + " but this model is " +
                                   name());
  }
  int64_t frozen = 0, streak = 0, since_attempt = 0, since_freeze = 0;
  int64_t trigger = 0;
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section("guard"));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("frozen", 0, 1, &frozen));
    EALGAP_RETURN_IF_ERROR(
        section.ReadI64In("failed_streak", 0, 1 << 30, &streak));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("observed_since_attempt", 0,
                                             INT64_MAX, &since_attempt));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("observed_since_freeze", 0,
                                             INT64_MAX, &since_freeze));
    EALGAP_RETURN_IF_ERROR(
        section.ReadI64In("pending_trigger", 0, 1, &trigger));
    EALGAP_RETURN_IF_ERROR(section.Finish());
  }
  std::vector<double> ewma, cusum;
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section,
                            reader.Section("detector"));
    int64_t regions = 0;
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("regions", 0, 1 << 20, &regions));
    EALGAP_RETURN_IF_ERROR(section.ReadF64s("ewma", &ewma));
    EALGAP_RETURN_IF_ERROR(section.ReadF64s("cusum", &cusum));
    EALGAP_RETURN_IF_ERROR(section.Finish());
    if (static_cast<int64_t>(ewma.size()) != regions ||
        static_cast<int64_t>(cusum.size()) != regions) {
      return section.Error("cusum", "detector arrays do not hold " +
                                        std::to_string(regions) + " regions");
    }
  }

  frozen_ = frozen == 1;
  stats_.frozen = frozen_;
  failed_streak_ = static_cast<int>(streak);
  observed_since_attempt_ = since_attempt;
  observed_since_freeze_ = since_freeze;
  pending_trigger_ = trigger == 1;
  ewma_ = std::move(ewma);
  cusum_ = std::move(cusum);
  return Status::OK();
}

}  // namespace serve
}  // namespace ealgap
