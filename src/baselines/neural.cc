#include "baselines/neural.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/record_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/serialize.h"

namespace ealgap {

namespace {

std::vector<data::WindowSample> MakeBatch(
    const data::SlidingWindowDataset& dataset,
    const std::vector<int64_t>& steps, size_t begin, size_t end) {
  std::vector<data::WindowSample> batch;
  batch.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    batch.push_back(dataset.MakeSample(steps[i]));
  }
  return batch;
}

/// Key for Adam moment i inside the train state's tensor block. Zero-padded
/// so lexicographic map order equals parameter order.
std::string AdamKey(char which, size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c.%05zu", which, i);
  return buf;
}

std::map<std::string, Tensor> CloneTensorMap(
    const std::map<std::string, Tensor>& src) {
  std::map<std::string, Tensor> out;
  for (const auto& [name, t] : src) out.emplace(name, t.Clone());
  return out;
}

}  // namespace

Var NeuralForecaster::ComputeLoss(const Var& predictions,
                                  const Tensor& scaled_targets) {
  return nn::MseLoss(predictions, Var::Leaf(scaled_targets));
}

Tensor NeuralForecaster::StackTargets(
    const std::vector<data::WindowSample>& batch) const {
  const int64_t b = static_cast<int64_t>(batch.size());
  const int64_t n = batch[0].target.numel();
  Tensor out({b, n});
  float* p = out.data();
  for (int64_t i = 0; i < b; ++i) {
    std::copy(batch[i].target.data(), batch[i].target.data() + n, p + i * n);
  }
  return out;
}

Result<double> NeuralForecaster::EvaluateLoss(
    const data::SlidingWindowDataset& dataset,
    const std::vector<int64_t>& steps, int batch_size) {
  if (steps.empty()) return 0.0;
  // Evaluation batches are independent: forward passes read only const
  // model parameters (grad recording is off, a thread-local flag), so they
  // fan out across the pool. Per-batch losses and errors land in slots
  // indexed by batch and are combined in batch order, keeping both the
  // result and the reported error identical to the serial loop for any
  // thread count: when several batches fail concurrently, the lowest batch
  // index wins deterministically.
  const size_t bs = static_cast<size_t>(batch_size);
  const int64_t nbatches = static_cast<int64_t>((steps.size() + bs - 1) / bs);
  std::vector<double> batch_total(nbatches, 0.0);
  std::vector<Status> batch_status(nbatches);
  ParallelFor(0, nbatches, 1, [&](int64_t b0, int64_t b1) {
    NoGradGuard no_grad;
    for (int64_t bi = b0; bi < b1; ++bi) {
      if (fault::Armed() && fault::ShouldFail("train.eval.error")) {
        batch_status[bi] = Status::Internal(
            "injected evaluation failure in batch " + std::to_string(bi) +
            " of " + name());
        continue;
      }
      const size_t begin = static_cast<size_t>(bi) * bs;
      const size_t end = std::min(steps.size(), begin + bs);
      auto batch = MakeBatch(dataset, steps, begin, end);
      Var pred = ForwardBatch(batch);
      Tensor scaled = ScaleTargets(StackTargets(batch));
      Var loss = ComputeLoss(pred, scaled);
      const double l = static_cast<double>(loss.value().data()[0]);
      if (!std::isfinite(l)) {
        batch_status[bi] = Status::Internal(
            "non-finite evaluation loss in batch " + std::to_string(bi) +
            " of " + name());
        continue;
      }
      batch_total[bi] = l * static_cast<double>(end - begin);
    }
  });
  for (int64_t bi = 0; bi < nbatches; ++bi) {
    if (!batch_status[bi].ok()) return batch_status[bi];
  }
  double total = 0.0;
  for (double v : batch_total) total += v;
  return total / static_cast<double>(steps.size());
}

Result<std::map<std::string, Tensor>> NeuralForecaster::CaptureParams() {
  if (!fitted_) {
    return Status::FailedPrecondition(name() +
                                      " captured before Fit/LoadCheckpoint");
  }
  std::map<std::string, Tensor> out;
  for (const auto& [pname, p] : module()->NamedParameters()) {
    out.emplace(pname, p.value().Clone());
  }
  return out;
}

Status NeuralForecaster::RestoreParams(
    const std::map<std::string, Tensor>& params) {
  if (!fitted_) {
    return Status::FailedPrecondition(name() +
                                      " restored before Fit/LoadCheckpoint");
  }
  return nn::ApplyParameters(*module(), params, "parameter snapshot");
}

Result<double> NeuralForecaster::EvaluateSamplesLoss(
    const std::vector<data::WindowSample>& samples, int batch_size) {
  if (!fitted_) {
    return Status::FailedPrecondition(name() +
                                      " evaluated before Fit/LoadCheckpoint");
  }
  if (samples.empty()) {
    return Status::InvalidArgument("EvaluateSamplesLoss needs samples");
  }
  if (batch_size < 1) {
    return Status::InvalidArgument("EvaluateSamplesLoss batch_size < 1");
  }
  NoGradGuard no_grad;
  const size_t bs = static_cast<size_t>(batch_size);
  double total = 0.0;
  for (size_t begin = 0; begin < samples.size(); begin += bs) {
    const size_t end = std::min(samples.size(), begin + bs);
    std::vector<data::WindowSample> batch(samples.begin() + begin,
                                          samples.begin() + end);
    Var pred = ForwardBatch(batch);
    Tensor scaled = ScaleTargets(StackTargets(batch));
    Var loss = ComputeLoss(pred, scaled);
    const double l = static_cast<double>(loss.value().data()[0]);
    if (!std::isfinite(l)) {
      return Status::Internal("non-finite loss in sample batch " +
                              std::to_string(begin / bs) + " of " + name());
    }
    total += l * static_cast<double>(end - begin);
  }
  return total / static_cast<double>(samples.size());
}

Status NeuralForecaster::MicroFit(
    const std::vector<data::WindowSample>& samples,
    const MicroFitConfig& config) {
  if (!fitted_) {
    return Status::FailedPrecondition(name() +
                                      " micro-fit before Fit/LoadCheckpoint");
  }
  if (samples.empty()) {
    return Status::InvalidArgument("MicroFit needs samples");
  }
  if (config.steps < 1 || config.batch_size < 1) {
    return Status::InvalidArgument("MicroFit steps/batch_size must be >= 1");
  }
  std::vector<Var> params = module()->Parameters();
  nn::Sgd optimizer(params, config.learning_rate);
  const size_t bs = static_cast<size_t>(config.batch_size);
  size_t cursor = 0;
  for (int step = 0; step < config.steps; ++step) {
    std::vector<data::WindowSample> batch;
    batch.reserve(bs);
    for (size_t i = 0; i < bs; ++i) {
      batch.push_back(samples[cursor]);
      cursor = (cursor + 1) % samples.size();
    }
    module()->ZeroGrad();
    Var pred = ForwardBatch(batch);
    Tensor scaled = ScaleTargets(StackTargets(batch));
    Var loss = ComputeLoss(pred, scaled);
    const double loss_val = static_cast<double>(loss.value().data()[0]);
    if (!std::isfinite(loss_val)) {
      return Status::Internal("non-finite micro-fit loss at step " +
                              std::to_string(step) + " of " + name());
    }
    Backward(loss);
    const float norm = nn::ClipGradNorm(params, config.grad_clip);
    if (!std::isfinite(norm)) {
      return Status::Internal("non-finite micro-fit gradient norm at step " +
                              std::to_string(step) + " of " + name());
    }
    optimizer.Step();
  }
  return Status::OK();
}

Status NeuralForecaster::Fit(const data::SlidingWindowDataset& dataset,
                             const data::StepRanges& split,
                             const TrainConfig& config) {
  current_dataset_ = &dataset;
  Initialize(dataset, split, config);
  fitted_ = true;
  train_stats_ = TrainStats{};

  std::vector<int64_t> train_steps =
      dataset.TargetSteps(split.train_begin, split.train_end);
  std::vector<int64_t> val_steps =
      dataset.TargetSteps(split.val_begin, split.val_end);
  if (train_steps.empty()) {
    return Status::FailedPrecondition("no training steps");
  }

  std::vector<Var> params = module()->Parameters();
  nn::Adam optimizer(params, config.learning_rate);
  Rng rng(config.seed);

  // Loop state that lives in the snapshot at every epoch boundary.
  int epoch = 0;
  double best_val = 1e300;
  int bad_epochs = 0;
  int64_t total_steps = 0;
  double total_step_ms = 0.0;
  std::map<std::string, Tensor> best_params;

  auto capture = [&]() {
    TrainSnapshot snap;
    snap.epoch = epoch;
    snap.lr = optimizer.learning_rate();
    snap.best_val = best_val;
    snap.bad_epochs = bad_epochs;
    snap.total_steps = total_steps;
    snap.total_step_ms = total_step_ms;
    snap.rng = rng.state();
    snap.order = train_steps;
    for (const auto& [pname, p] : module()->NamedParameters()) {
      snap.params.emplace(pname, p.value().Clone());
    }
    optimizer.ExportState(&snap.adam_t, &snap.adam_m, &snap.adam_v);
    snap.best_params = CloneTensorMap(best_params);
    snap.stats = train_stats_;
    return snap;
  };
  auto restore = [&](const TrainSnapshot& snap) -> Status {
    EALGAP_RETURN_IF_ERROR(
        nn::ApplyParameters(*module(), snap.params, "train state"));
    EALGAP_RETURN_IF_ERROR(
        optimizer.ImportState(snap.adam_t, snap.adam_m, snap.adam_v));
    optimizer.set_learning_rate(snap.lr);
    rng.set_state(snap.rng);
    train_steps = snap.order;
    epoch = snap.epoch;
    best_val = snap.best_val;
    bad_epochs = snap.bad_epochs;
    total_steps = snap.total_steps;
    total_step_ms = snap.total_step_ms;
    best_params = CloneTensorMap(snap.best_params);
    return Status::OK();
  };

  // Resume: an existing train state continues the run bit-identically; a
  // missing file is a fresh start (first run of a --resume sweep). A
  // corrupt file is a hard error — silently restarting would overwrite
  // evidence.
  if (config.resume && !config.checkpoint_path.empty() &&
      std::ifstream(config.checkpoint_path).good()) {
    TrainSnapshot snap;
    EALGAP_RETURN_IF_ERROR(LoadTrainState(config.checkpoint_path, &snap));
    // The saved order must be a permutation of this run's training steps;
    // anything else means the state belongs to a different training range
    // (or was corrupted), and resuming from it would be silently wrong.
    std::vector<int64_t> sorted_order = snap.order;
    std::sort(sorted_order.begin(), sorted_order.end());
    std::vector<int64_t> sorted_steps = train_steps;
    std::sort(sorted_steps.begin(), sorted_steps.end());
    if (sorted_order != sorted_steps) {
      return Status::InvalidArgument(
          config.checkpoint_path +
          " was written for a different training range (" +
          std::to_string(snap.order.size()) + " steps vs " +
          std::to_string(train_steps.size()) + " here)");
    }
    EALGAP_RETURN_IF_ERROR(restore(snap));
    train_stats_ = snap.stats;
    train_stats_.resumed_epoch = snap.epoch;
    if (config.verbose) {
      EALGAP_LOG(Info) << name() << " resumed from "
                       << config.checkpoint_path << " at epoch " << epoch;
    }
  }

  // The rollback target: the last good epoch boundary (initially the
  // freshly initialized state).
  TrainSnapshot good = capture();

  while (epoch < config.epochs && bad_epochs <= config.patience) {
    rng.Shuffle(train_steps);
    double train_loss = 0.0;
    int64_t batches = 0;
    int64_t attempt_steps = 0;
    bool diverged = false;
    std::string diverge_why;
    for (size_t i = 0; i < train_steps.size();
         i += static_cast<size_t>(config.batch_size)) {
      const size_t end =
          std::min(train_steps.size(), i + config.batch_size);
      auto batch = MakeBatch(dataset, train_steps, i, end);
      // Fault sites modeling the ways a real train step dies: a stall, a
      // hard error (allocator, accelerator, I/O), and a numerically
      // poisoned loss. The first aborts nothing, the second fails Fit
      // mid-epoch (crash rehearsal for resume tests), the third drives
      // the divergence sentinel below.
      if (fault::Armed()) {
        fault::MaybeDelay("train.step.delay");
        if (fault::ShouldFail("train.step.error")) {
          return Status::Internal("injected train step failure in " + name());
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      module()->ZeroGrad();
      Var pred = ForwardBatch(batch);
      Tensor scaled = ScaleTargets(StackTargets(batch));
      Var loss = ComputeLoss(pred, scaled);
      double loss_val = static_cast<double>(loss.value().data()[0]);
      if (fault::Armed() && fault::ShouldFail("train.step.nan")) {
        loss_val = std::numeric_limits<double>::quiet_NaN();
      }
      // Divergence sentinel: a non-finite loss or gradient norm means the
      // parameters are (or are about to be) poisoned. Stop the epoch and
      // let the rollback policy below decide.
      if (!std::isfinite(loss_val)) {
        diverged = true;
        diverge_why = "non-finite training loss";
        break;
      }
      Backward(loss);
      const float norm = nn::ClipGradNorm(params, config.grad_clip);
      if (!std::isfinite(norm)) {
        diverged = true;
        diverge_why = "non-finite gradient norm";
        break;
      }
      optimizer.Step();
      const auto t1 = std::chrono::steady_clock::now();
      total_step_ms +=
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      ++total_steps;
      ++attempt_steps;
      train_loss += loss_val;
      ++batches;
    }

    if (diverged) {
      // Roll back to the last good epoch boundary with the learning rate
      // backed off, and retry the epoch; give up (attributed, not silent)
      // once the retry budget is spent.
      ++train_stats_.rollbacks;
      ++train_stats_.retries;
      train_stats_.skipped_steps += attempt_steps + 1;
      total_steps -= attempt_steps;  // discarded by the restore below
      if (train_stats_.rollbacks > config.max_rollbacks) {
        return Status::Internal(
            name() + " diverged (" + diverge_why + ") at epoch " +
            std::to_string(epoch) + " after exhausting " +
            std::to_string(config.max_rollbacks) + " rollbacks");
      }
      const float backed_off =
          optimizer.learning_rate() * config.rollback_lr_backoff;
      EALGAP_RETURN_IF_ERROR(restore(good));
      optimizer.set_learning_rate(backed_off);
      if (config.verbose) {
        EALGAP_LOG(Warning)
            << name() << " epoch " << epoch << ": " << diverge_why
            << "; rolled back to last good state, lr -> " << backed_off
            << " (rollback " << train_stats_.rollbacks << "/"
            << config.max_rollbacks << ")";
      }
      continue;
    }

    double val_loss;
    if (val_steps.empty()) {
      val_loss = train_loss / static_cast<double>(std::max<int64_t>(batches, 1));
    } else {
      auto vl = EvaluateLoss(dataset, val_steps, config.batch_size);
      if (!vl.ok()) return vl.status();
      val_loss = *vl;
    }
    if (config.verbose) {
      EALGAP_LOG(Info) << name() << " epoch " << epoch << " train "
                       << train_loss / std::max<int64_t>(batches, 1) << " val "
                       << val_loss;
    }
    train_stats_.steps += attempt_steps;
    ++train_stats_.epochs_completed;
    if (val_loss < best_val - 1e-9) {
      best_val = val_loss;
      bad_epochs = 0;
      best_params.clear();
      for (const auto& [pname, p] : module()->NamedParameters()) {
        best_params.emplace(pname, p.value().Clone());
      }
    } else {
      ++bad_epochs;
    }
    ++epoch;

    const bool checkpoint_due =
        !config.checkpoint_path.empty() && config.checkpoint_every > 0 &&
        epoch % config.checkpoint_every == 0;
    if (checkpoint_due) ++train_stats_.checkpoints_written;
    good = capture();
    if (checkpoint_due) {
      EALGAP_RETURN_IF_ERROR(SaveTrainState(config.checkpoint_path, good));
    }
  }

  best_val_loss_ = best_val;
  train_stats_.final_lr = optimizer.learning_rate();
  mean_step_ms_ = total_steps > 0 ? total_step_ms / total_steps : 0.0;
  // Restore the best-validation parameters.
  if (!best_params.empty()) {
    EALGAP_RETURN_IF_ERROR(
        nn::ApplyParameters(*module(), best_params, "best-validation state"));
  }
  return Status::OK();
}

Result<std::vector<double>> NeuralForecaster::Predict(
    const data::SlidingWindowDataset& dataset, int64_t target_step) {
  if (!fitted_) return Status::FailedPrecondition("Predict before Fit");
  current_dataset_ = &dataset;
  NoGradGuard no_grad;
  std::vector<data::WindowSample> batch = {dataset.MakeSample(target_step)};
  Var pred = ForwardBatch(batch);
  Tensor counts = InverseScale(pred.value());
  const float* p = counts.data();
  std::vector<double> out(counts.numel());
  for (int64_t i = 0; i < counts.numel(); ++i) {
    out[i] = std::max(0.0, static_cast<double>(p[i]));
  }
  return out;
}

Result<std::vector<double>> NeuralForecaster::PredictSample(
    const data::WindowSample& sample) {
  std::vector<double> out;
  EALGAP_RETURN_IF_ERROR(PredictSampleInto(sample, &out));
  return out;
}

Status NeuralForecaster::PredictSampleInto(const data::WindowSample& sample,
                                           std::vector<double>* out) {
  if (!fitted_) return Status::FailedPrecondition("PredictSample before Fit");
  // Fault sites modeling the three ways a live forward pass degrades:
  // latency spikes (deadline overruns), hard errors, and numerically
  // poisoned outputs. serve::ResilientPredictor turns each into a fallback.
  if (fault::Armed()) {
    fault::MaybeDelay("nn.predict.delay");
    if (fault::ShouldFail("nn.predict.error")) {
      return Status::Internal("injected model error in " + name());
    }
  }
  NoGradGuard no_grad;
  // Reused one-sample batch. The WindowSample copy is eight tensor
  // refcount bumps, not a data copy; the vector is cleared before
  // returning so no tensor handle outlives a serve-path arena scope.
  static thread_local std::vector<data::WindowSample> batch;
  batch.clear();
  batch.push_back(sample);
  Var pred = ForwardBatch(batch);
  Tensor counts = InverseScale(pred.value());
  batch.clear();
  const float* p = counts.data();
  out->resize(counts.numel());
  for (int64_t i = 0; i < counts.numel(); ++i) {
    (*out)[i] = std::max(0.0, static_cast<double>(p[i]));
  }
  if (fault::Armed() && fault::ShouldFail("nn.predict.nan") && !out->empty()) {
    (*out)[0] = std::numeric_limits<double>::quiet_NaN();
  }
  return Status::OK();
}

// --- Checkpointing ----------------------------------------------------------

namespace {
constexpr char kCheckpointKind[] = "checkpoint";
constexpr uint32_t kCheckpointVersion = 2;
constexpr char kTrainStateKind[] = "train-state";
constexpr uint32_t kTrainStateVersion = 4;

/// Reads a tensor-map section whole (nn::ReadTensors + Finish).
Status ReadTensorSection(const RecordReader& reader, std::string_view name,
                         std::map<std::string, Tensor>* out) {
  EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section(name));
  EALGAP_RETURN_IF_ERROR(nn::ReadTensors(section, out));
  return section.Finish();
}
}  // namespace

Status NeuralForecaster::EncodeConfig(CheckpointConfig* config) const {
  (void)config;
  return Status::NotImplemented(name() + " does not support checkpointing");
}

Status NeuralForecaster::DecodeConfig(
    const std::map<std::string, std::string>& config) {
  (void)config;
  return Status::NotImplemented(name() + " does not support checkpointing");
}

Status NeuralForecaster::ConfigInt(
    const std::map<std::string, std::string>& config, const std::string& key,
    int64_t lo, int64_t hi, int64_t* out) {
  auto it = config.find(key);
  if (it == config.end()) {
    return Status::ParseError("checkpoint config missing key " + key);
  }
  std::istringstream is(it->second);
  int64_t v = 0;
  if (!(is >> v)) {
    return Status::ParseError("checkpoint config key " + key +
                              " is not an integer: " + it->second);
  }
  if (v < lo || v > hi) {
    return Status::InvalidArgument(
        "checkpoint config key " + key + " out of range: " + it->second);
  }
  *out = v;
  return Status::OK();
}

Status NeuralForecaster::ConfigFloat(
    const std::map<std::string, std::string>& config, const std::string& key,
    float* out) {
  auto it = config.find(key);
  if (it == config.end()) {
    return Status::ParseError("checkpoint config missing key " + key);
  }
  std::istringstream is(it->second);
  float v = 0.f;
  if (!(is >> v)) {
    return Status::ParseError("checkpoint config key " + key +
                              " is not a number: " + it->second);
  }
  *out = v;
  return Status::OK();
}

Status NeuralForecaster::SaveCheckpoint(const std::string& path) {
  if (!fitted_) {
    return Status::FailedPrecondition("SaveCheckpoint before Fit");
  }
  CheckpointConfig config;
  EALGAP_RETURN_IF_ERROR(EncodeConfig(&config));
  RecordWriter writer(kCheckpointKind, kCheckpointVersion);
  writer.Section("model").PutString(name());
  writer.Section("config").PutU64(config.size());
  for (const auto& [key, value] : config) {
    writer.PutString(key).PutString(value);
  }
  writer.Section("params");
  nn::PutTensors(writer, nn::ParameterMap(*module()));
  return writer.Commit(path);
}

Result<std::string> NeuralForecaster::CheckpointModelName(
    const std::string& path) {
  EALGAP_ASSIGN_OR_RETURN(
      RecordReader reader,
      RecordReader::Open(path, kCheckpointKind, kCheckpointVersion));
  return reader.StringSection("model");
}

Status NeuralForecaster::LoadCheckpoint(const std::string& path) {
  EALGAP_ASSIGN_OR_RETURN(
      RecordReader reader,
      RecordReader::Open(path, kCheckpointKind, kCheckpointVersion));
  EALGAP_ASSIGN_OR_RETURN(std::string model, reader.StringSection("model"));
  if (model != name()) {
    return Status::InvalidArgument("checkpoint holds model " + model +
                                   " but this forecaster is " + name());
  }
  EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section("config"));
  uint64_t entries = 0;
  // Each entry is at least two string lengths.
  EALGAP_RETURN_IF_ERROR(section.ReadCount("entries", 8, &entries));
  std::map<std::string, std::string> config;
  for (uint64_t i = 0; i < entries; ++i) {
    std::string key, value;
    EALGAP_RETURN_IF_ERROR(section.ReadString("key", &key));
    EALGAP_RETURN_IF_ERROR(section.ReadString(key, &value));
    if (!config.emplace(key, std::move(value)).second) {
      return section.Error(key, "duplicate config key");
    }
  }
  EALGAP_RETURN_IF_ERROR(section.Finish());
  std::map<std::string, Tensor> loaded;
  EALGAP_RETURN_IF_ERROR(ReadTensorSection(reader, "params", &loaded));
  // Rebuild the network from the config echo, then load the weights.
  EALGAP_RETURN_IF_ERROR(DecodeConfig(config));
  EALGAP_RETURN_IF_ERROR(nn::ApplyParameters(*module(), loaded, path));
  fitted_ = true;
  return Status::OK();
}

// --- Train-state checkpoints -------------------------------------------------
//
// Sections: model, loop (epoch, lr, best_val, bad_epochs, total_steps,
// total_step_ms), stats (the TrainStats fields), rng (xoshiro state + the
// cached normal), order (the train-step visit order, permutation-checked
// against the dataset on resume), params, adam (step count + moments keyed
// m.%05d / v.%05d) and best. Written through RecordWriter, so a crash at
// any point leaves the previous complete state or the new one.

Status NeuralForecaster::SaveTrainState(const std::string& path,
                                        const TrainSnapshot& snap) {
  RecordWriter writer(kTrainStateKind, kTrainStateVersion);
  writer.Section("model").PutString(name());
  writer.Section("loop")
      .PutI64(snap.epoch)
      .PutF32(snap.lr)
      .PutF64(snap.best_val)
      .PutI64(snap.bad_epochs)
      .PutI64(snap.total_steps)
      .PutF64(snap.total_step_ms);
  const TrainStats& st = snap.stats;
  writer.Section("stats")
      .PutI64(st.epochs_completed)
      .PutI64(st.steps)
      .PutI64(st.rollbacks)
      .PutI64(st.retries)
      .PutI64(st.skipped_steps)
      .PutI64(st.checkpoints_written)
      .PutI64(st.resumed_epoch)
      .PutF32(st.final_lr);
  writer.Section("rng");
  for (uint64_t word : snap.rng.s) writer.PutU64(word);
  writer.PutI64(snap.rng.have_cached_normal ? 1 : 0)
      .PutF64(snap.rng.cached_normal);
  writer.Section("order").PutI64s(snap.order.data(), snap.order.size());
  writer.Section("params");
  nn::PutTensors(writer, snap.params);
  std::map<std::string, Tensor> adam;
  for (size_t i = 0; i < snap.adam_m.size(); ++i) {
    adam.emplace(AdamKey('m', i), snap.adam_m[i]);
  }
  for (size_t i = 0; i < snap.adam_v.size(); ++i) {
    adam.emplace(AdamKey('v', i), snap.adam_v[i]);
  }
  writer.Section("adam").PutI64(snap.adam_t);
  nn::PutTensors(writer, adam);
  writer.Section("best");
  nn::PutTensors(writer, snap.best_params);
  return writer.Commit(path);
}

Status NeuralForecaster::LoadTrainState(const std::string& path,
                                        TrainSnapshot* snap) {
  EALGAP_ASSIGN_OR_RETURN(
      RecordReader reader,
      RecordReader::Open(path, kTrainStateKind, kTrainStateVersion));
  EALGAP_ASSIGN_OR_RETURN(std::string model, reader.StringSection("model"));
  if (model != name()) {
    return Status::InvalidArgument("train state holds model " + model +
                                   " but this forecaster is " + name());
  }

  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection loop, reader.Section("loop"));
    int64_t epoch = 0, bad_epochs = 0;
    EALGAP_RETURN_IF_ERROR(loop.ReadI64In("epoch", 0, 1000000, &epoch));
    EALGAP_RETURN_IF_ERROR(loop.ReadF32("lr", &snap->lr));
    EALGAP_RETURN_IF_ERROR(loop.ReadF64("best_val", &snap->best_val));
    EALGAP_RETURN_IF_ERROR(
        loop.ReadI64In("bad_epochs", 0, 1000000, &bad_epochs));
    EALGAP_RETURN_IF_ERROR(
        loop.ReadI64In("total_steps", 0, INT64_MAX, &snap->total_steps));
    EALGAP_RETURN_IF_ERROR(
        loop.ReadF64("total_step_ms", &snap->total_step_ms));
    EALGAP_RETURN_IF_ERROR(loop.Finish());
    snap->epoch = static_cast<int>(epoch);
    snap->bad_epochs = static_cast<int>(bad_epochs);
  }
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection stats, reader.Section("stats"));
    TrainStats& st = snap->stats;
    EALGAP_RETURN_IF_ERROR(
        stats.ReadI64("epochs_completed", &st.epochs_completed));
    EALGAP_RETURN_IF_ERROR(stats.ReadI64("steps", &st.steps));
    EALGAP_RETURN_IF_ERROR(stats.ReadI64("rollbacks", &st.rollbacks));
    EALGAP_RETURN_IF_ERROR(stats.ReadI64("retries", &st.retries));
    EALGAP_RETURN_IF_ERROR(stats.ReadI64("skipped_steps", &st.skipped_steps));
    EALGAP_RETURN_IF_ERROR(
        stats.ReadI64("checkpoints_written", &st.checkpoints_written));
    EALGAP_RETURN_IF_ERROR(stats.ReadI64("resumed_epoch", &st.resumed_epoch));
    EALGAP_RETURN_IF_ERROR(stats.ReadF32("final_lr", &st.final_lr));
    EALGAP_RETURN_IF_ERROR(stats.Finish());
  }
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection rng, reader.Section("rng"));
    for (uint64_t& word : snap->rng.s) {
      EALGAP_RETURN_IF_ERROR(rng.ReadU64("state", &word));
    }
    int64_t have_cached = 0;
    EALGAP_RETURN_IF_ERROR(rng.ReadI64In("have_cached", 0, 1, &have_cached));
    snap->rng.have_cached_normal = have_cached == 1;
    EALGAP_RETURN_IF_ERROR(
        rng.ReadF64("cached_normal", &snap->rng.cached_normal));
    EALGAP_RETURN_IF_ERROR(rng.Finish());
  }
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection order, reader.Section("order"));
    EALGAP_RETURN_IF_ERROR(order.ReadI64s("steps", &snap->order));
    for (int64_t step : snap->order) {
      if (step < 0) return order.Error("steps", "negative train step");
    }
    EALGAP_RETURN_IF_ERROR(order.Finish());
  }
  EALGAP_RETURN_IF_ERROR(ReadTensorSection(reader, "params", &snap->params));
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section("adam"));
    EALGAP_RETURN_IF_ERROR(
        section.ReadI64In("t", 0, INT64_MAX, &snap->adam_t));
    std::map<std::string, Tensor> adam;
    EALGAP_RETURN_IF_ERROR(nn::ReadTensors(section, &adam));
    EALGAP_RETURN_IF_ERROR(section.Finish());
    if (adam.size() % 2 != 0) {
      return section.Error("tensors", "odd moment count " +
                                          std::to_string(adam.size()));
    }
    const size_t n = adam.size() / 2;
    snap->adam_m.clear();
    snap->adam_v.clear();
    snap->adam_m.reserve(n);
    snap->adam_v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto mi = adam.find(AdamKey('m', i));
      auto vi = adam.find(AdamKey('v', i));
      if (mi == adam.end() || vi == adam.end()) {
        return Status::ParseError("missing adam moment pair " +
                                  std::to_string(i) + " in " + path);
      }
      snap->adam_m.push_back(mi->second);
      snap->adam_v.push_back(vi->second);
    }
  }
  return ReadTensorSection(reader, "best", &snap->best_params);
}

}  // namespace ealgap
