// The paper cell's layers, measured in every traced run: NYC bike /
// weather (hurricane), the paper's own experiment cell. The data pipeline
// stage by stage (generate, clean, partition, aggregate, window), an
// EALGAP Fit with a fixed epoch count, and one replay of the test range
// through AdaptivePredictor that calls MaybeAdapt after each observe, as
// `ealgap_tool serve --adapt` does. These are the layers that run in grad
// mode and write weights; the serving workloads never reach them.
//
// The cell's trip feed is fixed: MakePeriodConfig's default generator
// seed, the one the repository's tables use, as the paper's cell is one
// dataset. The workload seed drives the k-means partition and the model's
// initialization and training order.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "data/cleaning.h"
#include "data/dataset_configs.h"
#include "data/partition.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "stats/metrics.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace ealgap;

constexpr int kEpochs = 4;

/// `serve --adapt` on a fixed attempt schedule: the detector trips on
/// any residual and rejections never freeze, so the replay attempts a
/// micro-fine-tune each `cooldown` observed steps once the ring holds
/// `min_window` samples (7 attempts per 240-step replay), whatever the
/// seed's model does. The frozen-arm shadow forward runs every 8th step.
serve::AdaptOptions AdaptConfig() {
  serve::AdaptOptions options;
  options.cusum_k = 0.0;
  options.cusum_h = 1e-9;
  options.freeze_after = 1 << 20;
  options.shadow_every = 8;
  return options;
}

/// The pipeline stage by stage: the calls core::PrepareData makes.
bool StagedPipeline(const data::PeriodConfig& config, Tracer* tracer,
                    RunResult* result, core::PreparedData* out) {
  bool ok = true;
  const auto stage = [&](const char* span_name, const char* metric,
                         auto&& body) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, span_name);
      ok = ok && body();
    }
    result->Metric(metric, SecondsSince(t0), "s");
  };
  std::vector<data::TripRecord> clean;
  data::MobilitySeries series;
  stage("data.generate", "cell.data.generate_s", [&] {
    auto city = data::GenerateCity(config.generator);
    if (!city.ok()) return false;
    out->city = std::move(city).value();
    out->stations = out->city.stations;
    return true;
  });
  stage("data.clean", "cell.data.clean_s", [&] {
    clean = data::CleanTrips(out->city.trips, out->stations, config.cleaning,
                             &out->cleaning);
    return true;
  });
  stage("cluster.partition", "cell.cluster.partition_s", [&] {
    auto partition = data::PartitionStations(out->stations, config.partition);
    if (!partition.ok()) return false;
    out->partition = std::move(partition).value();
    return true;
  });
  stage("data.aggregate", "cell.data.aggregate_s", [&] {
    auto s = data::AggregateTrips(clean, out->stations, out->partition,
                                  config.generator.start_date,
                                  config.generator.num_days);
    if (!s.ok()) return false;
    series = std::move(s).value();
    return true;
  });
  stage("data.window", "cell.data.window_s", [&] {
    auto ds = data::SlidingWindowDataset::Create(std::move(series),
                                                 config.dataset);
    if (!ds.ok()) return false;
    out->dataset = std::move(ds).value();
    auto split = data::MakeChronoSplit(out->dataset);
    if (!split.ok()) return false;
    out->split = *split;
    return true;
  });
  return ok;
}

}  // namespace

void RunPaperCellLayers(const Options& options, Tracer* tracer,
                        RunResult* result) {
  data::PeriodConfig config =
      data::MakePeriodConfig(data::City::kNycBike, data::Period::kWeather);
  config.partition.seed = DeriveSeed(options.seed, kSeedPartition);

  // core::PrepareData is what users call; the staged copy times its parts
  // and must produce the same series.
  const auto t_prepare = Clock::now();
  Result<core::PreparedData> prepared = [&] {
    ScopedSpan span(tracer, "core.prepare_data");
    return core::PrepareData(config);
  }();
  result->Metric("cell.core.prepare_data_s", SecondsSince(t_prepare), "s");
  core::PreparedData staged;
  const bool staged_ok = StagedPipeline(config, tracer, result, &staged);
  if (!prepared.ok() || !staged_ok) {
    result->Check("cell.pipeline", false, "cell data pipeline failed");
    return;
  }
  const core::PreparedData& cell = *prepared;
  const Tensor& counts = cell.dataset.series().counts;
  const Tensor& staged_counts = staged.dataset.series().counts;
  result->Check("cell.pipeline",
                staged_counts.numel() == counts.numel() &&
                    std::equal(counts.data(), counts.data() + counts.numel(),
                               staged_counts.data()),
                "stage-by-stage pipeline matches core::PrepareData");

  core::EalgapForecaster model;
  TrainConfig train;
  train.epochs = kEpochs;
  train.patience = kEpochs;     // no early stop: every run trains kEpochs
  train.learning_rate = 2e-3f;  // the repository's table/quickstart setting
  train.seed = DeriveSeed(options.seed, kSeedTrain);
  const auto t_fit = Clock::now();
  Status fitted = Status::OK();
  {
    ScopedSpan span(tracer, "core.fit");
    fitted = model.Fit(cell.dataset, cell.split, train);
  }
  const double fit_s = SecondsSince(t_fit);
  const TrainStats& stats = model.train_stats();
  result->Metric("cell.core.fit_s", fit_s, "s");
  result->Metric("cell.core.fit_epoch_s",
                 stats.epochs_completed > 0 ? fit_s / stats.epochs_completed
                                            : 0.0,
                 "s");
  result->Metric("cell.core.train_step_ms",
                 stats.steps > 0 ? fit_s * 1000.0 / stats.steps : 0.0, "ms");
  result->Metric("cell.core.train_steps", static_cast<double>(stats.steps),
                 "count");
  if (!fitted.ok()) {
    result->Check("cell.fit", false, fitted.ToString());
    return;
  }

  // One adaptive replay of the test range.
  auto adaptive = serve::AdaptivePredictor::Create(&model, AdaptConfig());
  if (!adaptive.ok()) {
    result->Check("cell.replay", false, adaptive.status().ToString());
    return;
  }
  auto online = serve::OnlinePredictor::Create(adaptive->get(), cell.dataset,
                                               cell.split.test_begin);
  if (!online.ok()) {
    result->Check("cell.replay", false, online.status().ToString());
    return;
  }
  serve::ResilientPredictor resilient(&*online);
  serve::ServedPrediction served;
  std::vector<double> pred, truth, attempt_ms;
  int64_t errors = 0;
  const auto t_replay = Clock::now();
  for (int64_t step = cell.split.test_begin; step < cell.split.test_end;
       ++step) {
    const std::vector<float> realized = cell.dataset.StepCounts(step);
    const std::vector<double> row(realized.begin(), realized.end());
    tracer->SetRun(step);
    {
      ScopedSpan span(tracer, "serve.adaptive.predict");
      if (!resilient.PredictNextInto(&served).ok()) ++errors;
    }
    {
      ScopedSpan span(tracer, "serve.resilient.observe");
      if (!resilient.Observe(row).ok()) ++errors;
    }
    pred.insert(pred.end(), served.values.begin(), served.values.end());
    truth.insert(truth.end(), row.begin(), row.end());
    Result<serve::AdaptEvent> event = serve::AdaptEvent{};
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "serve.adaptive.maybe_adapt");
      event = (*adaptive)->MaybeAdapt();
    }
    if (!event.ok()) {
      ++errors;
    } else if (event->outcome != serve::AdaptOutcome::kNone) {
      attempt_ms.push_back(MsBetween(t0, Clock::now()));
    }
  }
  const double replay_s = SecondsSince(t_replay);
  const serve::AdaptStats& a = (*adaptive)->stats();
  const stats::MetricReport quality = stats::ComputeMetrics(pred, truth);
  result->Check("cell.replay", errors == 0,
                std::to_string(errors) + " predict/observe/adapt errors");
  result->Check("cell.unattributed_adaptations",
                a.UnattributedAdaptations() == 0,
                std::to_string(a.UnattributedAdaptations()));
  result->Check("cell.quality_finite",
                std::isfinite(quality.er) && std::isfinite(quality.msle),
                "er/msle finite");
  result->Metric("cell.serve.adaptive.replay_s", replay_s, "s");
  result->Metric("cell.serve.adaptive.step_us.p50",
                 Median(tracer->DurationsUs("serve.adaptive.predict")), "us");
  result->Metric("cell.serve.adaptive.attempt_ms.p50", Median(attempt_ms),
                 "ms");
  result->Metric("cell.serve.adaptive.shadow_forwards",
                 static_cast<double>(a.shadow_forwards), "count");
  result->Metric("cell.serve.adaptive.attempts", static_cast<double>(a.attempts),
                 "count");
  result->Metric("cell.serve.adaptive.commits", static_cast<double>(a.commits),
                 "count");
  result->Metric("cell.serve.adaptive.commit_ratio",
                 a.attempts > 0 ? static_cast<double>(a.commits) / a.attempts
                                : 0.0,
                 "ratio");
  result->Metric("cell.er", quality.er, "ratio");
  result->Metric("cell.msle", quality.msle, "log2sq");
  result->Info("cell.er_adapted_minus_frozen", a.AdaptedEr() - a.FrozenEr());
}

}  // namespace e2e
